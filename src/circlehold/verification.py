"""Reproducibility checks for every headline quantity in the library.

Each check recomputes a claimed value with the geometric machinery and
compares it against independent arithmetic (closed forms, frozen decimal
expansions, or a brute-force oracle), returning a :class:`CheckResult`
with the expectation, the computed value and the tolerance.  Suites group
the checks; ``run_suite("all")`` runs everything, and :func:`run_suites`
also gives each suite's measured wall time (the checks of a suite share
their set-up, so they are not timed one by one).

Two checks are expected to fail and are kept failing on purpose, because
the claimed tolerances are not attainable:

- ``limits/diameter-near-two``: at a = 1.001 the waist-circle diameter is
  2a/sqrt(1+(a-1)^2/3) = 2 + 2(a-1) - O((a-1)^2), so its distance from 2
  is about 2e-3, larger than the demanded 1e-3.
- ``width-equals-diameter/equality-instance``: the instance (p,q,s) =
  (2,2,1) has waist value p*q/sqrt(p^2+q^2) = sqrt(2) > s = 1, i.e. it
  lies outside the equality class its check assumes: its width is 1 while
  the smallest certified holding circle has diameter sqrt(2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import families, holding, planar, polytope, projection
from .errors import CircleHoldError
from .tolerances import DEFAULT_SEED, TOL_OPT

__all__ = ["CheckResult", "SuiteRun", "SUITES", "suite_names", "run_suite",
           "run_suites", "format_results"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    got: str
    tolerance: str
    detail: str = ""


@dataclass
class SuiteRun:
    """The checks of one suite and the wall time the suite took."""

    name: str
    seconds: float
    results: list[CheckResult]


def _res(name, passed, expected, got, tolerance, detail=""):
    return CheckResult(name, bool(passed), str(expected), str(got),
                       str(tolerance), detail)


# ---------------------------------------------------------------------------
# suite: ratio-bound
# ---------------------------------------------------------------------------

def check_ratio_bound(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Certified diameter over width stays above 2/3 and decreases toward it."""
    out = []
    ratios = []
    for a, h in [(1.2, 10.0), (1.05, 50.0), (1.01, 200.0)]:
        inst = families.octahedron_iceberg(a, h)
        w = polytope.width3(inst.body).width
        circle, _ = holding.min_holding_circle(inst.body)
        ratio = circle.diameter / w
        ratios.append(ratio)
        out.append(_res(f"ratio-above-two-thirds(a={a},h={h:g})",
                        ratio > 2.0 / 3.0, "> 0.666667", f"{ratio:.9f}",
                        "strict",
                        f"diameter {circle.diameter:.9f}, width {w:.9f}"))
    decreasing = ratios[0] > ratios[1] > ratios[2]
    out.append(_res("ratio-decreasing-along-family", decreasing,
                    "r(1.2,10) > r(1.05,50) > r(1.01,200)",
                    " > ".join(f"{r:.6f}" for r in ratios), "strict order"))
    out.append(_res("final-ratio-window", 0.6667 < ratios[2] < 0.675,
                    "in (0.6667, 0.675)", f"{ratios[2]:.9f}", "open interval"))
    return out


# ---------------------------------------------------------------------------
# suite: limits
# ---------------------------------------------------------------------------

def check_limits(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Waist diameter tends to 2 and width tends to 3 along the family."""
    d = families.octahedron_iceberg(1.001, 5.0).predicted("diameter")
    out = [_res("diameter-near-two(a=1.001)", abs(d - 2.0) < 1e-3,
                "2 within 1e-3", f"{d:.12g} (|err| = {abs(d - 2):.3g})",
                "1e-3",
                "expected failing: the diameter is 2 + 2(a-1) + O((a-1)^2),"
                " about 2e-3 away from 2 at a = 1.001")]
    w = families.octahedron_iceberg(1.01, 500.0).predicted("width")
    out.append(_res("width-near-three(h=500)", abs(w - 3.0) < 1e-2,
                    "3 within 1e-2", f"{w:.12g} (|err| = {abs(w - 3):.3g})",
                    "1e-2"))
    return out


# ---------------------------------------------------------------------------
# suite: iceberg
# ---------------------------------------------------------------------------

def check_iceberg(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The narrow-top octahedron profiles as narrower-above at its circle."""
    inst = families.octahedron_iceberg(1.38, 5.0)
    level = inst.circle.center[2]
    prof = projection.iceberg_profile(inst.body, level=level)
    ok = prof.orientation == "as_given" and prof.margin > 0.0
    return [_res("narrower-above-everywhere(a=1.38,h=5)", ok,
                 "orientation as_given, margin > 0",
                 f"{prof.orientation}, margin {prof.margin:.6g} "
                 f"at theta {prof.margin_theta:.6f}",
                 "exact: edge-normal and trough angles")]


# ---------------------------------------------------------------------------
# suite: split-identities
# ---------------------------------------------------------------------------

def check_split_identities(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Horizontal width of split halves: union takes max, chord takes min."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        poly = planar.random_axis_crossing_polygon(rng)
        sw = planar.split_width_identities(poly)
        worst = max(worst, sw.residual_min, sw.residual_max)
    return [_res("split-residuals-1000-random", worst < 1e-9,
                 "max residual < 1e-9", f"{worst:.3g}", "1e-9",
                 f"seed {seed}")]


# ---------------------------------------------------------------------------
# suite: inscribed-circle
# ---------------------------------------------------------------------------

def check_inscribed_circle(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Planar width never exceeds three inradii; equilateral is tight."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(1000):
        poly = planar.random_convex_polygon(rng)
        w, _ = planar.width2(poly)
        r = planar.chebyshev_inscribed(poly).radius
        worst = max(worst, w - 3.0 * r)
    out = [_res("width-at-most-three-inradii-1000-random", worst <= 1e-9,
                "w - 3r <= 1e-9", f"max excess {worst:.3g}", "1e-9",
                f"seed {seed}")]
    tri = planar.equilateral_triangle(3.0)
    r = planar.chebyshev_inscribed(tri).radius
    out.append(_res("equilateral-height-3-inradius", abs(r - 1.0) <= 1e-9,
                    "1", f"{r:.12g}", "1e-9"))
    return out


# ---------------------------------------------------------------------------
# suite: projection-chain
# ---------------------------------------------------------------------------

def check_projection_chain(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The full inequality chain on the near-extremal octahedron."""
    inst = families.octahedron_iceberg(1.01, 200.0)
    cert = holding.chain_certificate(inst.body, inst.circle)
    v = cert.values
    out = []
    out.append(_res("width-le-min-far-width",
                    cert.checks["width_le_far_half"],
                    f"{v['width']:.9f} <= min far width",
                    f"{v['min_wh_far_half']:.9f}", "1e-9 slack"))
    out.append(_res("far-width-lt-region-width",
                    cert.checks["far_half_lt_region"],
                    "strict <", f"{v['min_wh_far_half']:.9f} < "
                    f"{v['min_wh_region']:.9f}", "strict"))
    out.append(_res("region-width-le-three-halves-diameter",
                    cert.checks["width2_le_three_halves_diameter"],
                    f"<= {v['diameter_bound']:.9f}",
                    f"{v['width2_region']:.9f}", "1e-9 slack"))
    gap = abs(v["min_wh_region"] - v["width2_region"])
    out.append(_res("prism-min-equals-region-planar-width", gap < 1e-6,
                    "equal within 1e-6", f"gap {round(gap, 12):.3g}", "1e-6",
                    f"gap {gap!r}"))
    diag = holding.extremality_diagnostics(inst.body, inst.circle,
                                           chain=cert)
    out.append(_res("region-close-to-equilateral",
                    diag.hausdorff < 0.05,
                    "Hausdorff < 0.05 to the tangent equilateral triangle",
                    f"{diag.hausdorff:.6g}", "0.05",
                    f"chain side {cert.side}, contacts "
                    f"{len(cert.contacts2)}"))
    return out


# ---------------------------------------------------------------------------
# suite: flat-tetra
# ---------------------------------------------------------------------------

def check_flat_tetra(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """All four headline quantities of the nearly flat tetrahedron."""
    inst = families.flat_tetrahedron(0.2)
    d_pred = inst.predicted("diameter")
    alt_pred = inst.predicted("altitude")
    out = []
    circle, _ = holding.min_holding_circle(inst.body)
    out.append(_res("search-matches-closed-diameter",
                    abs(circle.diameter - d_pred) < 1e-3,
                    f"{d_pred:.9f}", f"{circle.diameter:.9f}", "1e-3"))
    out.append(_res("circle-altitude", abs(circle.center[2] - alt_pred) < 1e-3,
                    f"{alt_pred:.9f}", f"{circle.center[2]:.9f}", "1e-3"))
    cyl = polytope.min_cylinder(inst.body)
    out.append(_res("cylinder-diameter", abs(cyl.diameter - 1.04) < 1e-6,
                    "1.04", f"{cyl.diameter:.12g}", "1e-6"))
    p, u = np.asarray(cyl.axis_point), np.asarray(cyl.axis_direction)
    t = -p[0] / u[0] if abs(u[0]) > 1e-6 else 0.0
    cross = p + t * u
    axis_ok = abs(cross[1]) < 1e-4 and abs(cross[2] - 0.48) < 1e-4
    out.append(_res("cylinder-axis-height", axis_ok,
                    "passes through (., 0, 0.48)",
                    f"({cross[0]:.4g}, {cross[1]:.4g}, {cross[2]:.6g})",
                    "1e-4"))
    bound, _ = holding.nonintersecting_edge_bound(inst.body)
    out.append(_res("edge-gap-equals-diameter", abs(bound - d_pred) < 1e-12,
                    f"{d_pred:.15g}", f"{bound:.15g}", "1e-12"))
    return out


# ---------------------------------------------------------------------------
# suite: skew-tetra
# ---------------------------------------------------------------------------

def check_skew_tetra(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Crossing points inside the tiny circle; escape search finds nothing."""
    eps = 0.1
    inst = families.skew_tetrahedron(eps)
    a = eps * eps
    verts = np.array([[-2.0, -1.0, eps], [-1.0, 0.0, 0.0],
                      [2.0 * a, a, eps], [a, 0.0, 0.0]])
    out = []
    worst = 0.0
    for (i, j), key in (((0, 3), "crossing_v1v4"), ((1, 2), "crossing_v2v3")):
        p, q = verts[i], verts[j]
        s = -p[0] / (q[0] - p[0])
        crossing = p + s * (q - p)
        closed = np.array(inst.predicted(key))
        worst = max(worst, float(np.max(np.abs(crossing - closed))))
    out.append(_res("edge-crossings-match-closed-forms", worst < 1e-12,
                    "coordinate error < 1e-12", f"{worst:.3g}", "1e-12"))
    center = np.array(inst.circle.center)
    radius = inst.circle.radius
    dists = [float(np.linalg.norm(np.array(inst.predicted(k)) - center))
             for k in ("crossing_v1v4", "crossing_v2v3")]
    out.append(_res("crossings-strictly-inside-circle",
                    all(dd < radius for dd in dists),
                    f"< {radius:.6g}",
                    ", ".join(f"{dd:.9f}" for dd in dists), "strict"))
    searches = [holding.escape_search(inst.body, inst.circle,
                                      budget=100_000, seed=s)
                for s in range(seed, seed + 5)]
    outcomes = [esc.outcome for esc in searches]
    # a search whose start clearance is at most 0 returns after one check:
    # it did no work, and the detail says so
    out.append(_res("escape-search-exhausts-budget-5-seeds",
                    all(o == "not_found_within_budget" for o in outcomes),
                    "not_found_within_budget x5",
                    ", ".join(sorted(set(outcomes))), "budget 100000",
                    f"seeds {seed}..{seed + 4}; checks_used "
                    + ", ".join(str(esc.checks_used) for esc in searches)
                    + "; start_clearance "
                    + ", ".join(f"{esc.start_clearance:.3g}"
                                for esc in searches)))
    return out


# ---------------------------------------------------------------------------
# suite: non-iceberg
# ---------------------------------------------------------------------------

def check_non_iceberg(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Flat four- and five-vertex bodies are never narrower on one side."""
    out = []
    for maker, label in ((families.flat_tetrahedron, "four-vertex"),
                         (families.five_vertex_flat, "five-vertex")):
        inst = maker(0.2)
        prof = projection.iceberg_profile(inst.body,
                                          level=inst.circle.center[2])
        out.append(_res(f"no-orientation-narrower({label})",
                        prof.orientation == "neither",
                        "neither", prof.orientation, "margin band 1e-7",
                        f"margins {prof.margin:.4g} / "
                        f"{prof.margin_flipped:.4g}"))
    return out


# ---------------------------------------------------------------------------
# suite: width-equals-diameter
# ---------------------------------------------------------------------------

def check_width_equals_diameter(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Width against certified diameter for the orthogonal-edge tetrahedron."""
    inst = families.wd_tetrahedron(2.0, 2.0, 1.0)
    w = polytope.width3(inst.body).width
    circle, _ = holding.min_holding_circle(inst.body)
    gap = abs(w - circle.diameter)
    out = [_res("equality-instance(2,2,1)", gap < 5e-3,
                "|w - d| < 5e-3", f"w {w:.6f}, d {circle.diameter:.6f}, "
                f"gap {gap:.6f}", "5e-3",
                "expected failing: waist value sqrt(2) exceeds the edge "
                "separation 1, so the instance is outside the equality "
                "class and its smallest certified circle is the waist")]
    verts = inst.body.vertices.copy()
    idx = int(np.argmin(np.linalg.norm(verts - np.array([0.0, 1.0, 0.0]),
                                       axis=1)))
    verts[idx] = verts[idx] + np.array([0.1, 0.0, 0.0])
    body2 = polytope.build_hull(verts)
    w2 = polytope.width3(body2).width
    circle2, _ = holding.min_holding_circle(body2)
    gap2 = abs(w2 - circle2.diameter)
    out.append(_res("perturbed-instance-breaks-equality", gap2 > 1e-2,
                    "|w - d| > 1e-2",
                    f"w {w2:.6f}, d {circle2.diameter:.6f}, gap {gap2:.6f}",
                    "1e-2", "vertex nearest (0,1,0) moved by 0.1 in x"))
    return out


# ---------------------------------------------------------------------------
# suite: higher-dim
# ---------------------------------------------------------------------------

def check_higher_dim(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Inradius constants, simplex-hull widths, waist-sphere closed form."""
    expected = {3: 2.0 / 3.0, 4: 1.0 / np.sqrt(3.0),
                5: np.sqrt(6.0) / 5.0, 6: 1.0 / np.sqrt(5.0),
                7: np.sqrt(8.0) / 7.0, 8: 1.0 / np.sqrt(7.0)}
    exact = all(families.steinhagen_constant(n) == v
                for n, v in expected.items())
    out = [_res("inradius-constants-n-3-to-8", exact,
                "closed forms for n = 3..8",
                ", ".join(f"{families.steinhagen_constant(n):.6f}"
                          for n in range(3, 9)), "exact")]
    for n in (4, 5):
        inst = families.simplex_hull_nd(n, 1.001, 1000.0)
        w = families.width_nd(inst.body)
        target = 2.0 / families.steinhagen_constant(n)
        rel = abs(w - target) / target
        out.append(_res(f"simplex-hull-width(n={n})", rel < 0.02,
                        f"{target:.9f} within 2%", f"{w:.9f} "
                        f"(rel err {rel:.3g})", "2%"))
    lam, d_num = families.simplex_waist_minimum(5, 1.001)
    d_closed = families.simplex_holding_sphere_diameter(5, 1.001)
    out.append(_res("waist-sphere-closed-form(n=5)",
                    abs(d_num - d_closed) < 1e-6,
                    f"{d_closed:.12g}", f"{d_num:.12g} at fraction "
                    f"{lam:.6g}", "1e-6"))
    return out


# ---------------------------------------------------------------------------
# suite: bevelled
# ---------------------------------------------------------------------------

def check_bevelled(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Certified diametral circle with unbounded diameter/cylinder ratio."""
    inst = families.bevelled_cylinder(10.0, 64)
    rep = holding.holding_report(inst.body, inst.circle)
    out = [_res("diametral-circle-certified",
                rep.verdict == holding.VERDICT_EVIDENCE,
                holding.VERDICT_EVIDENCE, rep.verdict,
                f"blocked on both sides by more than TOL_OPT = {TOL_OPT:g}",
                "; ".join(rep.reasons))]
    cyl = polytope.min_cylinder(inst.body)
    ratio = inst.circle.diameter / cyl.diameter
    out.append(_res("diameter-to-cylinder-ratio", ratio >= 4.0,
                    ">= 4", f"{ratio:.6f}", "qualitative",
                    f"circle diameter {inst.circle.diameter:g} "
                    f"(radius {inst.circle.diameter / 2:g}), cylinder "
                    f"diameter {cyl.diameter:.6f} (radius "
                    f"{cyl.diameter / 2:.6f}); the ratio is R in the "
                    f"radius convention and R here as well"))
    return out


# ---------------------------------------------------------------------------
# suite: tetra-width
# ---------------------------------------------------------------------------

def check_tetra_width(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Unit regular tetrahedron has width sqrt(2)/2."""
    scale = 1.0 / np.sqrt(8.0)
    verts = scale * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                              [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    body = polytope.build_hull(verts)
    w = polytope.width3(body).width
    target = np.sqrt(2.0) / 2.0
    return [_res("unit-tetrahedron-width", abs(w - target) <= 1e-9,
                 f"{target:.12g}", f"{w:.12g}", "1e-9")]


# ---------------------------------------------------------------------------
# suite: oracle-agreement
# ---------------------------------------------------------------------------

def check_oracle_agreement(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exact circle-interior test versus a dense sampling oracle."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    detail = ""
    for case in range(1000):
        pts = rng.standard_normal((rng.integers(8, 15), 3))
        try:
            body = polytope.build_hull(pts)
        except CircleHoldError:
            continue
        center = rng.standard_normal(3) * 1.2
        normal = rng.standard_normal(3)
        diameter = float(0.3 + 2.5 * rng.random())
        circle = holding.Circle3(tuple(center), diameter, tuple(normal))
        exact = holding.circle_interior_intersects(body, circle, tol=1e-9)
        depth, angle = holding.sampled_penetration(body, circle,
                                                   samples=4096)
        if exact.intersects and depth <= 1e-9:
            # thin arc the sampler can miss: confirm at the exact witness
            pt = circle.points(np.array([exact.angle]))[0]
            if polytope.point_location(body, pt, tol=1e-12) != "interior":
                mismatches += 1
                detail = detail or f"case {case}: witness not interior"
        elif (not exact.intersects) and depth > 1e-9:
            mismatches += 1
            detail = detail or (f"case {case}: sampler found depth "
                                f"{depth:.3g} at angle {angle:.6f}")
    out = [_res("exact-vs-sampled-1000-random", mismatches == 0,
                "0 unreconciled mismatches", str(mismatches),
                "depth tol 1e-9", detail or f"seed {seed}")]
    cube = polytope.build_hull(np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
         for z in (0.0, 1.0)]))
    cyl = polytope.min_cylinder(cube)
    target = np.sqrt(2.0)
    out.append(_res("unit-cube-cylinder", abs(cyl.diameter - target) <= 1e-4,
                    f"{target:.9f}", f"{cyl.diameter:.9f}", "1e-4"))
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "ratio-bound": check_ratio_bound,
    "limits": check_limits,
    "iceberg": check_iceberg,
    "split-identities": check_split_identities,
    "inscribed-circle": check_inscribed_circle,
    "projection-chain": check_projection_chain,
    "flat-tetra": check_flat_tetra,
    "skew-tetra": check_skew_tetra,
    "non-iceberg": check_non_iceberg,
    "width-equals-diameter": check_width_equals_diameter,
    "higher-dim": check_higher_dim,
    "bevelled": check_bevelled,
    "tetra-width": check_tetra_width,
    "oracle-agreement": check_oracle_agreement,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suites(name: str, seed: int = DEFAULT_SEED) -> list[SuiteRun]:
    """Run one named suite (or ``"all"``), timing each suite."""
    if name == "all":
        picked = list(SUITES.items())
    elif name in SUITES:
        picked = [(name, SUITES[name])]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(suite_names())}")
    runs: list[SuiteRun] = []
    for suite, fn in picked:
        t0 = time.perf_counter()
        rs = fn(seed=seed)
        dt = time.perf_counter() - t0
        for r in rs:
            r.name = f"{suite}/{r.name}"
        runs.append(SuiteRun(suite, dt, rs))
    return runs


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The checks of :func:`run_suites`, in order."""
    return [r for run in run_suites(name, seed) for r in run.results]


def format_results(runs: list[SuiteRun]) -> str:
    """One line per check (and one per detail), one line per suite with
    its wall time, and a total."""
    lines = []
    width = max((len(r.name) for run in runs for r in run.results),
                default=8)
    for run in runs:
        for r in run.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.name:<{width}}  expected "
                         f"{r.expected}; got {r.got}  (tol {r.tolerance})")
            if r.detail:
                lines.append(f"       {r.name:<{width}}  {r.detail}")
        n_pass = sum(r.passed for r in run.results)
        lines.append(f"suite {run.name}: {n_pass}/{len(run.results)} "
                     f"passed in {run.seconds:.2f}s")
    n_pass = sum(r.passed for run in runs for r in run.results)
    n_all = sum(len(run.results) for run in runs)
    total = sum(run.seconds for run in runs)
    lines.append(f"{n_pass}/{n_all} checks passed in {total:.2f}s")
    return "\n".join(lines)
