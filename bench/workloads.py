"""The benchmark's workloads: inputs made from the seed, the operations run
on them, and the checks on each result.

Every workload is a list of operations.  One pass runs each operation once,
in order, each starting when the previous one has returned (a closed loop
with one client).  Only generated bodies and circles reach the library.

- ``escape``: ``escape_search`` on family circles inflated by a small
  factor, and a loose ring.  Clearance evaluations dominate; no
  cross-section is scanned and no cylinder is fitted.
- ``verify-paper``: every verification suite, one at a time.  The slice
  kernel does most of the work, then the cylinder fits and the edge pairs;
  it is the only workload that reaches the projection profile, the chain
  certificate and the planar random-polygon checks, and its pass/fail set
  is the paper-level correctness check.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# circlehold.DEFAULT_SEED: the --seed default, the reference is recorded at it
DEFAULT_SEED = 7

# escape_search settings, the same for every seed
ESCAPE_SEED = DEFAULT_SEED
ESCAPE_BUDGET = 1500        # clearance evaluations per search
ESCAPE_BUDGET_WIDE = 150    # bevelled cylinder: 188 faces, ~10 ms a check
RING_BUDGET = 20_000        # the README's; the ring escapes within ~2k
EPSILONS = (0.0, 1e-2, 5e-2)

# the two verification checks that are red by design
EXPECTED_FAILURES = frozenset({
    "limits/diameter-near-two(a=1.001)",
    "width-equals-diameter/equality-instance(2,2,1)",
})

REF_TOL = 1e-9              # relative to max(1, |reference|)
PEN_TOL = 1e-9              # interior depth that counts as penetration


@dataclass
class Op:
    """One operation: ``run`` calls the library, ``record`` summarises the
    result for the reference, ``check`` returns the invariants it breaks."""

    name: str
    run: Callable[[], Any]
    record: Callable[[Any], dict]
    check: Callable[[Any], list[str]]
    seeded: bool                 # inputs depend on --seed


@dataclass
class Workload:
    ops: list[Op]
    span_prefix: str = "op"      # traced runs name each operation's span


def penetration_problems(cl, body, circle, what: str) -> list[str]:
    """The exact test and the sampled oracle must both find no interior
    point on the circle."""
    out = []
    exact = cl.holding.circle_interior_intersects(body, circle,
                                                  tol=cl.TOL_OPT)
    depth, _ = cl.holding.sampled_penetration(body, circle, samples=4096)
    if exact.intersects:
        out.append(f"{what} penetrates (exact test, depth "
                   f"{exact.penetration:.3g})")
    if depth > PEN_TOL:
        out.append(f"{what} penetrates (sampled depth {depth:.3g})")
    return out


# ---------------------------------------------------------------------------
# escape
# ---------------------------------------------------------------------------

def _escape_families(cl):
    f = cl.families
    return [("oct(1.2,10)", f.octahedron_iceberg(1.2, 10.0)),
            ("oct(1.05,50)", f.octahedron_iceberg(1.05, 50.0)),
            ("flat(0.2)", f.flat_tetrahedron(0.2)),
            ("skew(0.1)", f.skew_tetrahedron(0.1)),
            ("bevelled(10,64)", f.bevelled_cylinder(10.0, 64))]


def unit_cube(cl):
    return cl.polytope.build_hull(np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
         for z in (0.0, 1.0)]))


def loose_ring(cl, rng):
    """The README's loose ring around the unit cube, moved and tilted a
    little by the seed; it never meets the cube."""
    center = 0.5 + rng.uniform(-0.03, 0.03, 3)
    normal = np.array([0.0, 0.0, 1.0]) + rng.uniform(-0.03, 0.03, 3)
    return cl.holding.Circle3(tuple(center), 1.8, tuple(normal))


def escape_op(cl, name, body, circle, budget, seeded, touching=False,
              family_check=None) -> Op:
    def run():
        return cl.holding.escape_search(body, circle, budget=budget,
                                        seed=ESCAPE_SEED)

    def check(res) -> list[str]:
        out = penetration_problems(cl, body, circle, "start circle")
        if touching and res.found:
            out.append("touching waist reported as escaping")
        if res.found:
            for k, pose in enumerate(res.path):
                out += penetration_problems(cl, body, pose, f"path pose {k}")
        if family_check is not None:
            out += family_check()
        return out

    return Op(name, run, lambda res: {"outcome": res.outcome}, check, seeded)


def escape_workload(cl, seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    fams = _escape_families(cl)
    if tiny:
        fams = [fams[0], fams[2]]
    for fam, inst in fams:
        body, c = inst.body, inst.circle
        wide = len(body.faces) > 12
        budget = ESCAPE_BUDGET_WIDE if wide else ESCAPE_BUDGET
        if tiny:
            budget = 100

        def family_check(body=body, d=c.diameter, fam=fam):
            out = []
            w = cl.polytope.width3(body).width
            if not d > (2.0 / 3.0) * w:
                out.append(f"{fam}: d = {d:.12g} <= (2/3) w = {w:.12g}")
            eb, _ = cl.holding.nonintersecting_edge_bound(body)
            if eb > d * (1.0 + REF_TOL):
                out.append(f"{fam}: edge bound {eb:.12g} > d = {d:.12g}")
            return out

        family_check = functools.cache(family_check)
        for eps in EPSILONS:
            circle = cl.holding.Circle3(c.center, c.diameter * (1.0 + eps),
                                        c.normal)
            ops.append(escape_op(cl, f"{fam}/eps={eps:g}", body, circle,
                                 budget, seeded=False, touching=eps == 0.0,
                                 family_check=family_check))
    ops.append(escape_op(cl, "cube/loose-ring", unit_cube(cl),
                         loose_ring(cl, rng),
                         RING_BUDGET, seeded=True))
    return Workload(ops)


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

TINY_SUITES = ("limits", "tetra-width", "higher-dim")


def suite_record(results) -> dict:
    return {r.name: {"passed": r.passed, "got": r.got} for r in results}


def suite_problems(suite: str, results) -> list[str]:
    failing = {r.name for r in results if not r.passed}
    expected = {n for n in EXPECTED_FAILURES if n.startswith(suite + "/")}
    out = [f"{n} failed" for n in sorted(failing - expected)]
    out += [f"{n} passed but is red by design"
            for n in sorted(expected - failing)]
    return out


def verify_paper_workload(cl, seed: int, tiny: bool = False) -> Workload:
    suites = TINY_SUITES if tiny else tuple(cl.verification.SUITES)
    ops = [Op(suite,
              lambda suite=suite: cl.verification.run_suite(suite, seed),
              suite_record,
              lambda rs, suite=suite: suite_problems(suite, rs), True)
           for suite in suites]
    return Workload(ops, span_prefix="verification")


WORKLOADS = {
    "escape": escape_workload,
    "verify-paper": verify_paper_workload,
}


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan")


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REF_TOL * max(1.0, abs(b))


def differences(got, ref, path: str = "") -> list[str]:
    """Where ``got`` differs from ``ref``: numbers to ``REF_TOL``, numbers
    inside strings likewise, everything else exactly."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: {got!r} does not have the keys {sorted(ref)}"]
        out = []
        for k in ref:
            out += differences(got[k], ref[k], f"{path}/{k}")
        return out
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if got is ref else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        ok = isinstance(got, (int, float)) and _close(float(got), float(ref))
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, str) and isinstance(got, str):
        g_nums, r_nums = _NUMBER.findall(got), _NUMBER.findall(ref)
        same = (_NUMBER.sub("#", got) == _NUMBER.sub("#", ref)
                and len(g_nums) == len(r_nums)
                and all(_close(float(x), float(y))
                        for x, y in zip(g_nums, r_nums)))
        return [] if same else [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]
