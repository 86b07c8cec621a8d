"""Command-line interface.

Subcommands
-----------

- ``construct``    build a named family instance; write ``body.json``,
  ``predictions.json`` and ``scene.obj``
- ``analyze``      width, minimal cylinder, holding-circle evidence and an
  optional projected-width profile for a body file
- ``escape``       run only the escape search for a body/circle pair
- ``chain``        build the projection chain certificate for a pair
- ``verify-paper`` re-derive the headline quantities and compare them
  against independent arithmetic, suite by suite
- ``render``       write the OBJ scene and SVG figures for a body

Each subcommand takes only the flags it reads; ``construct`` takes only
the parameters of the family it builds.  The projected-width profile's
margins and the chain's minima are exact; the profile's 720 angles in
``analyze`` and ``render`` are plot samples only.

Exit codes: 0 success (or certified evidence), 1 usage error or failed
verification, 2 an escape was found, 3 inconclusive (``analyze`` with
``--require-verdict``).  The tolerances are the constants of
:mod:`circlehold.tolerances`.  Only ``verify-paper`` takes ``--seed``, for
its random inputs; every other result depends on its inputs alone.  JSON
output is canonical (sorted keys, 12 significant digits), so identical
inputs, seed and package version give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, families, fileio, holding, polytope, projection
from . import svgfig, verification
from .errors import CircleHoldError, InvalidInput, NotFound
from .polytope import Polytope3
from .tolerances import DEFAULT_SEED, TOL_GEOM, TOL_OPT

__all__ = ["main", "build_parser"]

_FAMILY_PARAMS = ("a", "h", "eps", "R", "m", "p", "q", "s", "n",
                  "apex_height")
_INT_PARAMS = {"m", "n"}


def _g(x: float) -> str:
    return f"{float(x):.9g}"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this interface reserves 2 for a
    found escape, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _write(args, name: str, text: str, written: list[str]) -> None:
    path = fileio.write_text(Path(args.out_dir or ".") / name, text)
    written.append(str(path))


def _emit(args, name: str, doc: dict, written: list[str]) -> None:
    """Print the canonical JSON of ``doc`` with ``--json`` and write it to
    ``name`` under ``--out-dir``."""
    text = fileio.dumps_json(doc)
    if args.json:
        sys.stdout.write(text)
    if args.out_dir:
        _write(args, name, text, written)


def _print_written(written: list[str]) -> None:
    for path in written:
        print(f"wrote {path}")


def _load_pair(args, need_3d: str | None = None):
    """The body and circle files; ``need_3d`` names a use that needs a
    3-dimensional body."""
    body = fileio.load_body(args.body)
    circle = fileio.load_circle(args.circle) if args.circle else None
    if need_3d and not isinstance(body, Polytope3):
        raise InvalidInput(f"{need_3d} needs a 3-dimensional body")
    return body, circle


def _profile_level(args, circle) -> float | None:
    if args.profile_level is not None:
        return float(args.profile_level)
    if circle is not None and abs(circle.normal[2]) > 1.0 - 1e-9:
        return float(circle.center[2])
    return None


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    maker, params = families.FAMILIES[args.family]
    kwargs = {}
    for p in params:
        val = getattr(args, p)
        if val is None:
            print(f"error: family {args.family!r} requires --{p}",
                  file=sys.stderr)
            return 1
        kwargs[p] = val
    if args.family == "seven-vertex" and args.apex_height is not None:
        kwargs["apex_height"] = args.apex_height
    extra = ", ".join("--" + p.replace("_", "-") for p in _FAMILY_PARAMS
                      if p not in kwargs and getattr(args, p) is not None)
    if extra:
        print(f"error: family {args.family!r} takes no {extra}",
              file=sys.stderr)
        return 1

    inst = maker(**kwargs)
    body_doc, pred_doc = fileio.family_to_dicts(inst)
    pred_doc["version"] = __version__

    written: list[str] = []
    _write(args, "body.json", fileio.dumps_json(body_doc), written)
    _write(args, "predictions.json", fileio.dumps_json(pred_doc), written)
    if inst.circle is not None:
        _write(args, "circle.json",
               fileio.dumps_json(fileio.circle_to_dict(inst.circle)), written)
    if isinstance(inst.body, Polytope3):
        circles = [inst.circle] if inst.circle is not None else []
        _write(args, "scene.obj", fileio.scene_obj(inst.body, circles),
               written)

    nverts = len(inst.body.vertices)
    dim = inst.body.vertices.shape[1]
    print(f"{args.family} ({', '.join(f'{k}={v:g}' for k, v in kwargs.items())}): "
          f"{nverts} vertices in dimension {dim}, body {fileio.body_id(inst.body)}")
    for key in sorted(inst.predictions):
        pred = inst.predictions[key]
        val = pred.value
        if isinstance(val, (tuple, list, np.ndarray)):
            txt = "(" + ", ".join(_g(v) for v in np.ravel(val)) + ")"
        elif isinstance(val, bool):
            txt = str(val)
        else:
            txt = _g(val)
        print(f"  {key} = {txt}    [{pred.formula}]")
    _print_written(written)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _verdict_exit(verdict: str | None, require: bool) -> int:
    if verdict == holding.VERDICT_ESCAPE:
        return 2
    if verdict != holding.VERDICT_EVIDENCE and require:
        return 3
    return 0


def cmd_analyze(args) -> int:
    if args.budget is not None and not args.circle:
        print("error: --budget needs --circle: the search for the smallest "
              "certified circle runs no escape search", file=sys.stderr)
        return 1
    body, circle = _load_pair(args)
    budget = args.budget if args.budget is not None else 20_000
    written: list[str] = []

    if not isinstance(body, Polytope3):
        if circle is not None:
            print("error: holding-circle analysis needs a 3-dimensional body",
                  file=sys.stderr)
            return 1
        w = families.width_nd(body)
        doc = {"body": fileio.body_id(body), "dimension": body.dim,
               "vertices": len(body.vertices), "width": w,
               "version": __version__}
        print(f"body {doc['body']}: {doc['vertices']} vertices in "
              f"dimension {body.dim}")
        print(f"width: {_g(w)}")
        _emit(args, "analysis.json", doc, written)
        _print_written(written)
        return 0

    w = polytope.width3(body)
    cyl = polytope.min_cylinder(body)
    doc: dict = {"body": fileio.body_id(body), "dimension": 3,
                 "vertices": len(body.vertices), "width": w.width,
                 "width_direction": w.direction,
                 "cylinder_diameter": cyl.diameter,
                 "tolerances": {"geom": TOL_GEOM, "opt": TOL_OPT},
                 "version": __version__}
    print(f"body {doc['body']}: {doc['vertices']} vertices")
    print(f"width: {_g(w.width)}   minimal cylinder diameter: "
          f"{_g(cyl.diameter)}")

    report = None
    if circle is not None:
        report = holding.holding_report(body, circle, budget=budget)
    else:
        try:
            circle, report = holding.min_holding_circle(body)
            print("smallest certified circle found by waist search:")
        except NotFound as exc:
            print(f"holding-circle search: {exc}")

    if report is not None:
        doc["holding"] = fileio.report_to_dict(report)
        c = report.circle
        print(f"circle: diameter {_g(c.diameter)}, center "
              f"({', '.join(_g(x) for x in c.center)}), normal "
              f"({', '.join(_g(x) for x in c.normal)})")
        print(f"verdict: {report.verdict}")
        for reason in report.reasons:
            print(f"  - {reason}")
        print(f"diameter/width ratio: {_g(c.diameter / w.width)}   "
              f"diameter/cylinder ratio: {_g(c.diameter / cyl.diameter)}")

    level = _profile_level(args, circle)
    prof = None
    if level is not None:
        prof = projection.iceberg_profile(body, level=level)
        doc["profile"] = fileio.profile_to_dict(prof)
        print(f"projected widths at level {_g(level)}: {prof.orientation} "
              f"(margin {_g(prof.margin)}, flipped "
              f"{_g(prof.margin_flipped)})")
    elif args.csv or args.svg:
        print("error: --csv/--svg need a profile level (give --profile-level "
              "or a circle with a vertical normal)", file=sys.stderr)
        return 1

    _emit(args, "analysis.json", doc, written)
    if prof is not None and args.csv:
        _write(args, "profile.csv", fileio.profile_csv(prof), written)
    if prof is not None and args.svg:
        _write(args, "profile.svg", svgfig.profile_svg(prof), written)
    _print_written(written)

    return _verdict_exit(report.verdict if report else None,
                         args.require_verdict)


# ---------------------------------------------------------------------------
# escape
# ---------------------------------------------------------------------------

def cmd_escape(args) -> int:
    body, circle = _load_pair(args, "escape search")
    budget = args.budget if args.budget is not None else 100_000
    esc = holding.escape_search(body, circle, budget=budget)
    doc = fileio.escape_to_dict(esc)
    doc["version"] = __version__
    print(f"escape search: {esc.outcome} after {esc.checks_used} collision "
          f"checks (start clearance {_g(esc.start_clearance)})")
    print(f"march steps: {esc.accepted} accepted, {esc.rejected} rejected; "
          f"reach {_g(esc.reach)} of escape radius {_g(esc.escape_radius)}")
    if esc.found:
        print(f"escape path with {len(esc.path)} waypoints, final center "
              f"({', '.join(_g(x) for x in esc.path[-1].center)})")
    written: list[str] = []
    _emit(args, "escape.json", doc, written)
    _print_written(written)
    return 2 if esc.found else 0


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def cmd_chain(args) -> int:
    body, circle = _load_pair(args, "the chain certificate")
    cert = holding.chain_certificate(body, circle, side=args.side)
    doc = fileio.chain_to_dict(cert)
    doc["version"] = __version__
    v = cert.values
    print(f"blocking side: {cert.side} at height {_g(cert.height)}, section "
          f"circumdiameter {_g(cert.d_h)} (ratio {_g(cert.rho)})")
    print(f"region: {cert.region_kind} with {len(cert.contacts2)} contacts")
    print(f"chain: width {_g(v['width'])} <= far-half min "
          f"{_g(v['min_wh_far_half'])} < region min {_g(v['min_wh_region'])} "
          f"= planar width {_g(v['width2_region'])} <= "
          f"{_g(v['diameter_bound'])} (3/2 diameter)")
    for name, ok in cert.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    written: list[str] = []
    _emit(args, "chain.json", doc, written)
    _print_written(written)
    return 0 if cert.holds else 1


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    runs = verification.run_suites(args.suite, seed=args.seed)
    print(verification.format_results(runs))
    doc = {"seed": args.seed, "version": __version__, "suites": [
        {"name": run.name, "seconds": fileio.round_sig(run.seconds),
         "checks": [{"name": r.name, "passed": r.passed,
                     "expected": r.expected, "got": r.got,
                     "tolerance": r.tolerance, "detail": r.detail}
                    for r in run.results]} for run in runs]}
    written: list[str] = []
    _emit(args, "verify.json", doc, written)
    _print_written(written)
    return 0 if all(r.passed for run in runs for r in run.results) else 1


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    body, circle = _load_pair(args, "rendering")
    written: list[str] = []
    circles = [circle] if circle is not None else []
    _write(args, "scene.obj", fileio.scene_obj(body, circles), written)

    level = _profile_level(args, circle)
    if level is not None:
        prof = projection.iceberg_profile(body, level=level)
        _write(args, "profile.svg", svgfig.profile_svg(prof), written)
        _write(args, "profile.csv", fileio.profile_csv(prof), written)

    if circle is not None:
        try:
            cert = holding.chain_certificate(body, circle)
        except CircleHoldError as exc:
            print(f"region figure skipped: {exc}")
        else:
            svg = svgfig.planar_svg(polygons=[cert.region2],
                                    circles=[((0.0, 0.0), circle.radius)],
                                    points=cert.contacts2)
            _write(args, "region.svg", svg, written)
    _print_written(written)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the shared flags; each subcommand takes only those it reads
_FLAGS = {
    "budget": dict(type=_positive_int,
                   help="escape-search collision-check budget "
                        "(analyze reads it only with --circle)"),
    "seed": dict(type=int, default=DEFAULT_SEED,
                 help="seed of the random inputs"),
    "out-dir": dict(type=Path, help="directory for output files"),
    "json": dict(action="store_true",
                 help="print the JSON document to stdout"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument("--" + name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circlehold",
                     description="Holding circles of convex polytopes: "
                                 "certificates, searches and constructions.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family instance")
    _add_flags(p, "out-dir")
    p.add_argument("family", choices=sorted(families.FAMILIES))
    for name in _FAMILY_PARAMS:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=int if name in _INT_PARAMS else float,
                       default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="widths, cylinder and holding evidence")
    _add_flags(p, "budget", "out-dir", "json")
    p.add_argument("body", help="body JSON file")
    p.add_argument("--circle", help="circle JSON file (default: search "
                   "for the smallest certified circle)")
    p.add_argument("--profile-level", type=float, default=None,
                   help="split level for the projected-width profile")
    p.add_argument("--csv", action="store_true",
                   help="write the profile as CSV")
    p.add_argument("--svg", action="store_true",
                   help="write the profile as SVG")
    p.add_argument("--require-verdict", action="store_true",
                   help="exit 3 unless the verdict is conclusive")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("escape", help="search for an escape path of a circle")
    _add_flags(p, "budget", "out-dir", "json")
    p.add_argument("body")
    p.add_argument("circle")
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("chain", help="projection chain certificate for a pair")
    _add_flags(p, "out-dir", "json")
    p.add_argument("body")
    p.add_argument("circle")
    p.add_argument("--side", choices=("auto", "above", "below"),
                   default="auto")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify-paper",
                       help="recompute headline quantities and compare "
                            "against independent arithmetic")
    _add_flags(p, "seed", "out-dir", "json")
    p.add_argument("--suite", choices=verification.suite_names(),
                   default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="write OBJ/SVG figures for a body")
    _add_flags(p, "out-dir")
    p.add_argument("body")
    p.add_argument("--circle")
    p.add_argument("--profile-level", type=float, default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CircleHoldError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
