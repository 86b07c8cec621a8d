"""Deterministic serialization: JSON documents, CSV profiles, OBJ scenes.

All numeric output is rounded to 12 significant digits and keys are
sorted, so identical inputs (and seeds) produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .families import FamilyInstance, PolytopeND
from .holding import ChainCertificate, Circle3, EscapeResult, HoldingReport
from .polytope import Polytope3, build_hull
from .projection import IcebergProfile

__all__ = [
    "round_sig",
    "jsonify",
    "dumps_json",
    "write_text",
    "body_to_dict",
    "body_from_dict",
    "load_body",
    "circle_to_dict",
    "circle_from_dict",
    "load_circle",
    "body_id",
    "family_to_dicts",
    "profile_to_dict",
    "profile_csv",
    "escape_to_dict",
    "chain_to_dict",
    "report_to_dict",
    "scene_obj",
]


def round_sig(x: float) -> float:
    """Round to 12 significant digits (the serialization precision)."""
    return float(f"{float(x):.12g}")


def jsonify(obj):
    """Recursively convert to JSON-ready types with rounded floats."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj))
    return obj


def dumps_json(data) -> str:
    """Serialize with sorted keys and a trailing newline."""
    return json.dumps(jsonify(data), sort_keys=True, indent=2) + "\n"


def write_text(path, text: str) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# bodies and circles
# ---------------------------------------------------------------------------

def body_to_dict(body) -> dict:
    verts = np.asarray(body.vertices, float)
    return {"vertices": verts, "dimension": int(verts.shape[1])}


def body_from_dict(data: dict):
    """Rebuild a body from its vertex list (faces are recomputed)."""
    try:
        verts = np.asarray(data["vertices"], float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed body document: {exc}") from None
    if verts.ndim != 2:
        raise InvalidInput("body 'vertices' must be a list of points")
    if verts.shape[1] == 3:
        return build_hull(verts)
    return PolytopeND(verts)


def load_body(path):
    return body_from_dict(json.loads(Path(path).read_text()))


def circle_to_dict(C: Circle3) -> dict:
    return {"center": list(C.center), "diameter": C.diameter,
            "normal": list(C.normal)}


def circle_from_dict(data: dict) -> Circle3:
    try:
        return Circle3(tuple(float(v) for v in data["center"]),
                       float(data["diameter"]),
                       tuple(float(v) for v in data["normal"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed circle document: {exc}") from None


def load_circle(path) -> Circle3:
    return circle_from_dict(json.loads(Path(path).read_text()))


def body_id(body) -> str:
    """Stable content hash of the rounded vertex coordinates."""
    text = dumps_json(body_to_dict(body))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def family_to_dicts(inst: FamilyInstance) -> tuple[dict, dict]:
    """(body document, predictions document) for a family instance."""
    body_doc = body_to_dict(inst.body)
    pred_doc = {
        "family": inst.name,
        "params": dict(inst.params),
        "predictions": {k: {"value": p.value, "formula": p.formula}
                        for k, p in inst.predictions.items()},
    }
    if inst.circle is not None:
        pred_doc["circle"] = circle_to_dict(inst.circle)
    return body_doc, pred_doc


# ---------------------------------------------------------------------------
# analysis documents
# ---------------------------------------------------------------------------

def profile_to_dict(profile: IcebergProfile) -> dict:
    return {
        "orientation": profile.orientation,
        "level": profile.level,
        "theta_samples": int(len(profile.thetas)),
        "margin": profile.margin,
        "margin_theta": profile.margin_theta,
        "margin_flipped": profile.margin_flipped,
        "margin_flipped_theta": profile.margin_flipped_theta,
    }


def profile_csv(profile: IcebergProfile) -> str:
    lines = ["theta,width_upper,width_lower,margin"]
    for th, wu, wl in zip(profile.thetas, profile.width_upper,
                          profile.width_lower):
        lines.append(f"{th:.12g},{wu:.12g},{wl:.12g},{wl - wu:.12g}")
    return "\n".join(lines) + "\n"


def escape_to_dict(esc: EscapeResult) -> dict:
    return {
        "outcome": esc.outcome,
        "found": esc.found,
        "checks_used": int(esc.checks_used),
        "nodes": int(esc.nodes),
        "seed": int(esc.seed),
        "step": esc.step,
        "escape_radius": esc.escape_radius,
        "path": [circle_to_dict(pose) for pose in (esc.path or [])],
    }


def chain_to_dict(cert: ChainCertificate) -> dict:
    return {
        "side": cert.side,
        "height": cert.height,
        "section_circumdiameter": cert.d_h,
        "homothety_ratio": cert.rho,
        "delta_direction": cert.delta_direction,
        "contacts_on_circle": cert.contacts2,
        "contacts_on_section": cert.contacts3,
        "region_kind": cert.region_kind,
        "strip_direction": cert.strip_direction,
        "values": dict(cert.values),
        "checks": dict(cert.checks),
        "holds": cert.holds,
    }


def report_to_dict(report: HoldingReport) -> dict:
    block = report.block
    doc = {
        "circle": circle_to_dict(report.circle),
        "verdict": report.verdict,
        "non_penetration": report.non_penetration,
        "penetration_depth": report.penetration_depth,
        "surrounds_slice": report.surrounds_slice,
        "blocked_above": block.blocked_above if block else None,
        "blocked_below": block.blocked_below if block else None,
        "block": None,
        "edge_bound": report.edge_bound,
        "escape": escape_to_dict(report.escape) if report.escape else None,
        "reasons": list(report.reasons),
    }
    if block is not None:
        doc["block"] = {
            side: {"blocked": sb.blocked, "height": sb.height,
                   "circumdiameter": sb.circumdiameter, "margin": sb.margin}
            for side, sb in (("above", block.above), ("below", block.below))
        }
    return doc


# ---------------------------------------------------------------------------
# OBJ scenes
# ---------------------------------------------------------------------------

def scene_obj(body, circles=(), segments: int = 128) -> str:
    """Wavefront OBJ text: the body mesh plus each circle as a polyline."""
    if not isinstance(body, Polytope3):
        raise InvalidInput("OBJ scenes need a 3D body")
    out = ["# polytope with holding circles"]
    for v in body.vertices:
        out.append(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}")
    for face in body.faces:
        out.append("f " + " ".join(str(i + 1) for i in face))
    offset = len(body.vertices)
    for C in circles:
        pts = C.points(np.linspace(0.0, 2.0 * np.pi, segments,
                                   endpoint=False))
        for p in pts:
            out.append(f"v {p[0]:.12g} {p[1]:.12g} {p[2]:.12g}")
        idx = [str(offset + i + 1) for i in range(segments)]
        out.append("l " + " ".join(idx + [idx[0]]))
        offset += segments
    return "\n".join(out) + "\n"
