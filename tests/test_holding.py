import dataclasses
import tracemalloc
import warnings
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from chain_reference import bounded_intersection_vertices, grid_golden_min
from clearance_reference import reference_bound
from hypothesis import given, settings
from hypothesis import strategies as st
from hull_reference import clip_halfspace
from oracle_cases import oracle_agreement_cases
from test_sections import diam_calls  # noqa: F401 (a fixture)

from circlehold import (
    Circle3,
    CircleHoldError,
    DegenerateInput,
    InvalidInput,
    InvalidStart,
    NoBlockingSlice,
    NotFound,
    Polygon2,
    VERDICT_ESCAPE,
    VERDICT_EVIDENCE,
    VERDICT_INCONCLUSIVE,
    bevelled_cylinder,
    build_hull,
    chain_certificate,
    circle_interior_intersects,
    escape_search,
    extremality_diagnostics,
    flat_tetrahedron,
    holding_report,
    min_holding_circle,
    nonintersecting_edge_bound,
    octahedron_iceberg,
    sampled_penetration,
    segment_distance,
    skew_tetrahedron,
    surrounds_slice,
    translation_block_certificate,
    wd_tetrahedron,
)
from circlehold import families, fileio, holding, polytope, verification
from circlehold.fileio import circle_from_dict, escape_to_dict, report_to_dict
from circlehold.holding import _SupportGapBound, _edge_pair_distances
from circlehold.planar import periodic_min, projected_width
from circlehold.polytope import (HalfSpace, Polytope3, _min_shadow_width,
                                 plane_frame, point_location)
from circlehold.sections import _SliceScanner
from circlehold.tolerances import TOL_OPT

CUBE = build_hull(np.array([
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
], dtype=float))


def test_circle_normal_is_normalized():
    c = Circle3((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 5.0))
    assert c.normal == (0.0, 0.0, 1.0)
    pts = c.points(np.linspace(0.0, 2 * np.pi, 32, endpoint=False))
    assert np.allclose(np.linalg.norm(pts - np.zeros(3), axis=1), 0.5)
    assert np.allclose(pts @ np.array(c.normal), 0.0)
    # rebuilding a circle from its own fields gives the same circle
    rng = np.random.default_rng(58)
    for _ in range(20000):
        n = rng.normal(size=3)
        n *= 10.0 ** rng.uniform(-3.0, 3.0) / np.linalg.norm(n)
        c = Circle3((0.0, 0.0, 0.0), 1.0, tuple(n))
        assert Circle3(c.center, c.diameter, c.normal) == c
        assert abs(np.linalg.norm(c.normal) - 1.0) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("center, diameter", [
    ((np.nan, 0.0, 0.0), 1.0), ((0.0, np.inf, 0.0), 1.0),
    ((0.0, 0.0, -np.inf), 1.0), ((0.0, 0.0, 0.0), np.inf),
    ((0.0, 0.0, 0.0), np.nan), ((0.0, 0.0, 0.0), 0.0),
])
def test_circle_rejects_non_finite_center_and_diameter(center, diameter):
    with pytest.raises(InvalidInput):
        Circle3(center, diameter, (0.0, 0.0, 1.0))


@pytest.mark.parametrize("center, normal", [
    ((3.0, 0.5), (1.0, 0.0, 0.0)), ((3.0, 0.5, 0.5, 0.0), (1.0, 0.0, 0.0)),
    ((3.0, 0.5, 0.5), (1.0, 0.0)), ((3.0, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0)),
    ((3.0, 0.5, 0.5), 1.0),
])
def test_circle_rejects_center_or_normal_not_in_3d(center, normal):
    with pytest.raises(InvalidInput):
        Circle3(center, 0.8, normal)
    with pytest.raises(InvalidInput):
        circle_from_dict({"center": list(center), "diameter": 0.8,
                          "normal": list(np.atleast_1d(normal))})


def test_penetration_witness():
    # circle fully inside the cube: its section, the unit square, reaches
    # sqrt(1/2) from the center, past the radius 0.4 by the margin; the
    # margin bounds the 3-D depth, 0.1 from a face at angle 0
    w = circle_interior_intersects(CUBE, Circle3((0.5, 0.5, 0.5), 0.8, (1, 0, 0)))
    assert w.intersects
    assert w.penetration == pytest.approx(np.sqrt(0.5) - 0.4, abs=1e-9)
    assert point_location(CUBE, w.point) != "exterior"


def test_no_penetration_for_outside_and_coplanar_rings():
    assert not circle_interior_intersects(
        CUBE, Circle3((3.0, 0.5, 0.5), 0.8, (1, 0, 0))).intersects
    # a ring lying in the base plane touches no interior point
    assert not circle_interior_intersects(
        CUBE, Circle3((0.5, 0.5, 0.0), 4.0, (0, 0, 1))).intersects


def test_sampled_penetration_tracks_exact():
    rng = np.random.default_rng(21)
    for _ in range(150):
        pts = rng.standard_normal((int(rng.integers(8, 14)), 3))
        try:
            K = build_hull(pts)
        except CircleHoldError:
            continue
        c = Circle3(tuple(rng.standard_normal(3) * 0.8), 0.4 + 2.0 * rng.random(),
                    tuple(rng.standard_normal(3)))
        exact = circle_interior_intersects(K, c, tol=1e-9)
        depth, _ = sampled_penetration(K, c, samples=2048)
        if exact.intersects and exact.penetration > 1e-6:
            assert depth > 0.0
        if not exact.intersects:
            assert depth <= 1e-6


def test_oracle_agreement_does_not_hide_a_fault(monkeypatch):
    build_hull = verification.polytope.build_hull
    calls = []

    def broken_once(pts):
        calls.append(pts)
        if len(calls) == 1:
            raise RuntimeError("hull kernel fault")
        return build_hull(pts)

    monkeypatch.setattr(verification.polytope, "build_hull", broken_once)
    with pytest.raises(RuntimeError, match="hull kernel fault"):
        verification.check_oracle_agreement(7)


def test_surrounds_slice():
    assert surrounds_slice(CUBE, Circle3((0.5, 0.5, 0.5), 4.0, (0, 0, 1)))
    assert not surrounds_slice(CUBE, Circle3((2.5, 0.5, 0.5), 1.0, (0, 0, 1)))
    # penetrating circle cannot surround
    assert not surrounds_slice(CUBE, Circle3((0.5, 0.5, 0.5), 0.5, (0, 0, 1)))


def test_sampled_penetration_matches_sample_by_face_matrix():
    def by_sample_rows(K, C, samples):
        t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        n, b = K.face_planes()
        dep = -(C.points(t) @ n.T - b).max(axis=1)
        k = int(np.argmax(dep))
        return float(dep[k]), float(t[k])

    cases = [(K, C) for seed in (7, 3, 11)
             for _, K, C in oracle_agreement_cases(seed) if K is not None]
    assert len(cases) == 3000
    # bodies of more than one 32-face block: circles about the waist circle
    rng = np.random.default_rng(3)
    for m in (64, 16):
        inst = bevelled_cylinder(10.0, m)
        assert len(inst.body.faces) > 32
        C = inst.circle
        cases += [(inst.body, Circle3(
            tuple(C.center_array + 0.5 * rng.standard_normal(3)),
            C.diameter * rng.uniform(0.5, 1.5),
            tuple(np.asarray(C.normal) + 0.3 * rng.standard_normal(3))))
            for _ in range(20)]
    # one full 32-face block, and one face past it: prisms over 30- and
    # 31-gons, circles about their middle
    for m, faces in ((30, 32), (31, 33)):
        t = 2.0 * np.pi * np.arange(m) / m
        ring = np.stack([np.cos(t), np.sin(t), np.zeros(m)], axis=1)
        K = build_hull(np.vstack([ring, ring + [0.0, 0.0, 2.0]]))
        assert len(K.faces) == faces
        cases += [(K, Circle3(tuple(rng.uniform(-1.0, 1.0, 3) + [0, 0, 1]),
                              rng.uniform(0.5, 3.0),
                              tuple(rng.standard_normal(3))))
                  for _ in range(20)]
    for i, (K, C) in enumerate(cases):
        for samples in (4096,) if i % 10 else (4096, 10_000, 7, 4095):
            got = sampled_penetration(K, C, samples=samples)
            assert got == by_sample_rows(K, C, samples)


def test_sampled_penetration_memory_is_bounded():
    # 32 faces at a time: a 188-face body never holds the (4096, F) depths
    inst = bevelled_cylinder(10.0, 64)
    sampled_penetration(inst.body, inst.circle, samples=4096)  # warm caches
    tracemalloc.start()
    try:
        sampled_penetration(inst.body, inst.circle, samples=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_slices_reject_non_finite_input(bad):
    inst = families.octahedron_iceberg(1.2, 10.0)
    V = inst.body.vertices.copy()
    V[0, 1] = bad
    K = Polytope3(V, inst.body.faces, validate=False)
    with pytest.raises(InvalidInput):
        translation_block_certificate(K, inst.circle)
    with pytest.raises(InvalidInput):
        min_holding_circle(K)
    for axis, origin in (((0.0, bad, 1.0), None), ((0.0, 0.0, 1.0),
                                                   (0.0, bad, 0.0))):
        with pytest.raises(InvalidInput):
            _SliceScanner(inst.body, axis, origin=origin)


def test_translation_block_waist_vs_prism():
    wd = wd_tetrahedron(1.0, 1.0, 1.0)
    tb = translation_block_certificate(wd.body, wd.circle)
    assert tb.above.blocked and tb.below.blocked
    assert tb.above.circumdiameter > wd.circle.diameter
    # constant cross-sections never block
    tb2 = translation_block_certificate(CUBE, Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1)))
    assert not tb2.above.blocked and not tb2.below.blocked


@pytest.mark.parametrize("a", [1.002, 1.005, 1.05, 1.2])
@pytest.mark.parametrize("h", [10.0, 50.0, 200.0, 500.0, 2000.0])
def test_min_holding_circle_certifies_long_spindles(a, h):
    inst = octahedron_iceberg(a, h)
    circ, rep = min_holding_circle(inst.body)
    assert rep.verdict == VERDICT_EVIDENCE
    assert abs(circ.diameter - inst.circle.diameter) <= 1e-9


@pytest.mark.parametrize("h", [10.0, 2000.0])
def test_thinnest_spindle_waist_is_not_blocked_above(h):
    # the widest section above the waist is the top triangle, diameter 2a,
    # so the margin 2a - d = 2a (1 - cos(arctan((a - 1) / sqrt(3)))) does
    # not depend on h: 3.3e-7 at a = 1.001, below TOL_OPT
    a = 1.001
    inst = octahedron_iceberg(a, h)
    tb = translation_block_certificate(inst.body, inst.circle)
    want = 2.0 * a * (1.0 - np.cos(np.arctan((a - 1.0) / np.sqrt(3.0))))
    assert abs(tb.above.margin - want) <= 1e-12
    assert 3.3e-7 < tb.above.margin < TOL_OPT
    assert not tb.blocked_above and tb.blocked_below


def test_slice_evaluation_counts(diam_calls):
    # bounds: 1.5 times the counts of the certified polish, 2,508, and of
    # the exact profile, 4; 60-step golden polishes made 6,838, the sampled
    # profile 12,835 and 526
    inst = octahedron_iceberg(1.2, 10.0)
    min_holding_circle(inst.body)
    assert diam_calls[0] <= 3_762
    diam_calls[0] = 0
    translation_block_certificate(inst.body, inst.circle)
    assert diam_calls[0] <= 6


@pytest.mark.parametrize("inst", [
    octahedron_iceberg(1.2, 10.0), octahedron_iceberg(1.05, 500.0),
    flat_tetrahedron(0.2)], ids=["octahedron-10", "octahedron-500", "flat"])
def test_min_holding_circle_is_invariant_under_rigid_motion(inst):
    # the polish stops at 1e-13 * scale, and a translation changes the scale
    rng = np.random.default_rng(43)
    d = inst.circle.diameter
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        K = build_hull(inst.body.vertices @ q.T + rng.uniform(-10, 10, 3))
        circ, rep = min_holding_circle(K)
        assert rep.verdict == VERDICT_EVIDENCE
        assert abs(circ.diameter - d) <= 1e-9 * d


def _edge_pairs_by_scalar_oracle(K):
    """(i, j, distance) for every non-adjacent edge pair, one
    :func:`segment_distance` call each, in (i, j) order."""
    segs = K.vertices[np.asarray(K.edges, int)]
    out = []
    for i, j in combinations(range(len(K.edges)), 2):
        if not set(K.edges[i]) & set(K.edges[j]):
            out.append((i, j, segment_distance(*segs[i], *segs[j])))
    return out


@pytest.mark.parametrize("K", [
    CUBE, octahedron_iceberg(1.2, 10).body, skew_tetrahedron(0.1).body,
    bevelled_cylinder(3.0, 16).body,
    build_hull(np.random.default_rng(8).standard_normal((30, 3)))])
def test_edge_pair_distances_match_scalar_oracle(K):
    I, J, D = _edge_pair_distances(K)
    ref = _edge_pairs_by_scalar_oracle(K)
    assert list(zip(I.tolist(), J.tolist())) == [(i, j) for i, j, _ in ref]
    scale = max(1.0, float(np.abs(K.vertices).max()))
    assert np.allclose(D, [d for _, _, d in ref], rtol=0, atol=1e-14 * scale)
    # the bound keeps the first minimum in (i, j) order
    best = min(d for _, _, d in ref)
    first = next((i, j) for i, j, d in ref if d == best)
    bound, pair = nonintersecting_edge_bound(K)
    assert bound == pytest.approx(best, abs=1e-14 * scale)
    assert pair == first


def test_edge_bound_flat_tetrahedron():
    eps = 0.2
    bound, pair = nonintersecting_edge_bound(flat_tetrahedron(eps).body)
    assert bound == pytest.approx(2.0 * np.sin(np.arctan(eps)), abs=1e-12)
    assert len(pair) == 2


# --- escape search ----------------------------------------------------------

def test_escape_from_free_space_is_quick():
    res = escape_search(CUBE, Circle3((3.0, 0.5, 0.5), 0.8, (1, 0, 0)), budget=2000)
    assert res.found
    assert res.outcome == "found"
    assert res.checks_used < 100
    assert len(res.path) >= 2


def test_loose_ring_slides_off():
    # diameter 1.8 exceeds every horizontal slice of the unit cube, so the
    # ring can travel straight up
    res = escape_search(CUBE, Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1)), budget=20000)
    assert res.found


def test_escape_path_never_touches_body():
    for normal in ((0, 0, 1), (0, 0, -1)):
        start = Circle3((0.5, 0.5, 0.5), 1.8, normal)
        res = escape_search(CUBE, start, budget=20000)
        assert res.found
        for pose in res.path:
            assert not circle_interior_intersects(CUBE, pose).intersects
            # the search only translates the circle
            assert (pose.diameter, pose.normal) == (start.diameter,
                                                    start.normal)


def test_escape_requires_clean_start():
    # the messages give the in-plane margin, sqrt(1/2) - 0.4 here
    with pytest.raises(InvalidStart, match=r"penetrates the body \(margin 0\.307\)"):
        escape_search(CUBE, Circle3((0.5, 0.5, 0.5), 0.8, (1, 0, 0)), budget=100)


def test_skewed_sliver_holds_its_circle():
    inst = skew_tetrahedron(0.05)
    res = escape_search(inst.body, inst.circle, budget=20000, seed=3)
    assert res.outcome == "not_found_within_budget"


def _support_gap_by_face_loop(beta, A, B):
    """The candidate-angle minimum with one pass per face ``f`` over the
    faces after it: the reference for the all-pairs batch."""
    cands = [np.arctan2(B, A) + np.pi]
    F = len(beta)
    for f in range(F):
        dA = A[f] - A[f + 1:]
        dB = B[f] - B[f + 1:]
        rhs = beta[f + 1:] - beta[f]
        Rc = np.hypot(dA, dB)
        ok = Rc > 1e-15
        x = np.clip(rhs[ok] / Rc[ok], -2.0, 2.0)
        hit = np.abs(x) <= 1.0
        if hit.any():
            pc = np.arctan2(dB[ok][hit], dA[ok][hit])
            al = np.arccos(x[hit])
            cands.extend([pc + al, pc - al])
    ts = np.concatenate([np.atleast_1d(c) for c in cands])
    vals = (beta[None, :] + np.cos(ts)[:, None] * A[None, :]
            + np.sin(ts)[:, None] * B[None, :])
    return float(vals.max(axis=1).min())


def _random_gap_inputs(rng, F):
    beta = rng.normal(size=F)
    A, B = rng.normal(size=(2, F)) * rng.uniform(0.1, 3.0)
    if rng.random() < 0.2:  # repeated faces: pairs with no crossing
        k = rng.integers(1, F) if F > 1 else 0
        beta[k], A[k], B[k] = beta[0], A[0], B[0]
    return beta, A, B


def _grid_gap(beta, A, B, n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    g = (beta[None, :] + np.cos(t)[:, None] * A[None, :]
         + np.sin(t)[:, None] * B[None, :])
    return float(g.max(axis=1).min())


@pytest.mark.parametrize("F", [1, 2, 4, 6, 8, 12])
def test_support_gap_exact_matches_face_loop(F):
    rng = np.random.default_rng(F)
    for _ in range(400):
        beta, A, B = _random_gap_inputs(rng, F)
        assert (_SupportGapBound(A, B).exact(beta)
                == _support_gap_by_face_loop(beta, A, B))


def test_support_gap_exact_is_the_dense_minimum():
    rng = np.random.default_rng(11)
    n = 2 ** 16
    for F in (3, 5, 8, 12):
        for _ in range(5):
            beta, A, B = _random_gap_inputs(rng, F)
            exact = _SupportGapBound(A, B).exact(beta)
            dense = _grid_gap(beta, A, B, n)
            slack = float(np.hypot(A, B).max()) * np.pi / n
            assert exact <= dense + 1e-12
            assert dense - slack <= exact + 1e-12


def _gap_inputs_for_pose(K, r, center, normal):
    N, b = K.face_planes()
    e1, e2, _ = plane_frame(normal)
    return N @ center - b, r * (N @ e1), r * (N @ e2)


def test_cell_restricted_clearance_equals_full_fine_grid():
    inst = bevelled_cylinder(10.0, 64)
    K, C = inst.body, inst.circle
    assert len(K.faces) > _SupportGapBound.max_exact_faces
    rng = np.random.default_rng(5)
    c0, n0 = C.center_array, np.asarray(C.normal, float)
    poses = []
    for eps in (0.0, 1e-3, 1e-2, 5e-2):  # near the waist
        for _ in range(15):
            n = n0 + eps * rng.normal(size=3)
            poses.append((C.radius * (1.0 + eps), c0 + eps * rng.normal(size=3),
                          n / np.linalg.norm(n)))
    for _ in range(60):  # anywhere near the body
        n = rng.normal(size=3)
        poses.append((rng.uniform(0.2, 1.5) * C.radius,
                      K.centroid + K.circumradius * rng.uniform(-1, 1, 3),
                      n / np.linalg.norm(n)))
    fine = 0
    for r, c, n in poses:
        beta, A, B = _gap_inputs_for_pose(K, r, c, n)
        gap = _SupportGapBound(A, B)
        slack = float(np.hypot(A, B).max()) * np.pi / 128
        coarse = _grid_gap(beta, A, B, 128) - slack
        if coarse > 0.0:
            assert gap(beta) == coarse
            continue
        fine += 1
        assert gap(beta) == _grid_gap(beta, A, B, 8192) - slack / 64
    assert fine >= 40


def test_clearance_is_the_exact_minimum_at_most_12_faces():
    rng = np.random.default_rng(12)
    seen = {"touching": 0, "clear": 0}
    insts = [octahedron_iceberg(1.2, 10.0), octahedron_iceberg(1.05, 50.0),
             flat_tetrahedron(0.2), skew_tetrahedron(0.1)]
    for inst in insts:
        K, C = inst.body, inst.circle
        for _ in range(300):
            n = np.asarray(C.normal) + rng.uniform(0.0, 0.3) * rng.normal(
                size=3)
            r = C.radius * (1.0 + rng.choice([0.0, 1e-3, 1e-2, 0.1, 1.0]))
            c = C.center_array + rng.choice([0.0, 0.01, 0.3, 3.0]) * rng.normal(
                size=3)
            beta, A, B = _gap_inputs_for_pose(K, r, c, n / np.linalg.norm(n))
            gap = _SupportGapBound(A, B)
            got = gap(beta)
            assert got == gap.exact(beta)
            # no angle grid is built at most 12 faces
            assert not hasattr(gap, "cos_A")
            dense = _grid_gap(beta, A, B, 4096)
            slack = float(np.hypot(A, B).max()) * np.pi / 4096
            assert dense - slack - 1e-12 <= got <= dense + 1e-12
            seen["touching" if got <= 0.0 else "clear"] += 1
    assert min(seen.values()) >= 50, seen


# escape searches on the inflated circles of the benchmark: the outcome,
# checks and nodes pin the whole trajectory.  A failed search takes no new
# march step once a quarter of the budget is spent, but the bisection of a
# step under way may run past that quarter.  The last case is the
# benchmark's loose ring at seed 36, whose normalized normal is unit only
# to rounding: rebuilding the circle keeps that normal.
@pytest.mark.parametrize("inst, eps, budget, expected", [
    (bevelled_cylinder(10.0, 64), 1e-2, 150,
     ("not_found_within_budget", 37, 1)),
    (flat_tetrahedron(0.2), 5e-2, 1500, ("found", 186, 0)),
    (octahedron_iceberg(1.2, 10.0), 1e-2, 1500,
     ("not_found_within_budget", 375, 1)),
    (SimpleNamespace(body=CUBE, circle=Circle3(
        (0.4808379854734502, 0.4938942056441401, 0.5236299442141927), 1.8,
        (-0.005796839549119991, 0.010980277381678297, 1.0006648549128156))),
     0.0, 20000, ("found", 794, 0)),
])
def test_escape_trajectory_is_pinned(inst, eps, budget, expected):
    c = inst.circle
    start = Circle3(c.center, c.diameter * (1.0 + eps), c.normal)
    res = escape_search(inst.body, start, budget=budget, seed=7)
    assert (res.outcome, res.checks_used, res.nodes) == expected


# march steps accepted and rejected, and the furthest center reached, on
# the pinned trajectories above
@pytest.mark.parametrize("inst, eps, budget, expected", [
    (bevelled_cylinder(10.0, 64), 1e-2, 150, (7, 17, 0.16638195704633427)),
    (flat_tetrahedron(0.2), 5e-2, 1500, (43, 94, 16.284657394542343)),
    (octahedron_iceberg(1.2, 10.0), 1e-2, 1500, (70, 230, 4.222538326359666)),
    (SimpleNamespace(body=CUBE, circle=Circle3(
        (0.4808379854734502, 0.4938942056441401, 0.5236299442141927), 1.8,
        (-0.005796839549119991, 0.010980277381678297, 1.0006648549128156))),
     0.0, 20000, (161, 454, 10.59034465518842)),
])
def test_escape_statistics_are_pinned(inst, eps, budget, expected):
    c = inst.circle
    start = Circle3(c.center, c.diameter * (1.0 + eps), c.normal)
    res = escape_search(inst.body, start, budget=budget, seed=7)
    accepted, rejected, reach = expected
    assert (res.accepted, res.rejected) == (accepted, rejected)
    assert res.reach == pytest.approx(reach, rel=1e-12)
    assert (res.reach >= res.escape_radius) == res.found
    if res.found:
        # the last march's accepted centers are the path after the start
        assert len(res.path) - 1 <= res.accepted
        d = np.asarray(res.path[-1].center) - inst.body.centroid
        assert res.reach == pytest.approx(np.linalg.norm(d), rel=1e-15)
    doc = escape_to_dict(res)
    assert (doc["accepted"], doc["rejected"], doc["reach"]) == (
        res.accepted, res.rejected, res.reach)


def _bench_escape_starts(seed):
    """The starts of the benchmark's 16 escape searches at ``seed``: five
    family circles inflated by 0, 1e-2 and 5e-2 (budget 1500, 150 above
    12 faces), and the loose ring about the unit cube (budget 20,000),
    whose pose depends on the seed."""
    out = []
    for name, inst in [("oct(1.2,10)", octahedron_iceberg(1.2, 10.0)),
                       ("oct(1.05,50)", octahedron_iceberg(1.05, 50.0)),
                       ("flat(0.2)", flat_tetrahedron(0.2)),
                       ("skew(0.1)", skew_tetrahedron(0.1)),
                       ("bevelled(10,64)", bevelled_cylinder(10.0, 64))]:
        c = inst.circle
        budget = 150 if len(inst.body.faces) > 12 else 1500
        for eps in (0.0, 1e-2, 5e-2):
            out.append((f"{name}/eps={eps:g}", inst.body,
                        Circle3(c.center, c.diameter * (1.0 + eps), c.normal),
                        budget))
    rng = np.random.default_rng(seed)
    center = 0.5 + rng.uniform(-0.03, 0.03, 3)
    normal = np.array([0.0, 0.0, 1.0]) + rng.uniform(-0.03, 0.03, 3)
    out.append(("cube/loose-ring", CUBE,
                Circle3(tuple(center), 1.8, tuple(normal)), 20_000))
    return out


# (outcome, checks_used, start_clearance) of the benchmark's escape
# searches at seed 7, recorded before the clearance kernel was rewritten
BENCH_ESCAPES_SEED_7 = {
    "oct(1.2,10)/eps=0": ("not_found_within_budget", 1,
                          -5.608426340773475e-17),
    "oct(1.2,10)/eps=0.01": ("not_found_within_budget", 375,
                             0.011223454208009298),
    "oct(1.2,10)/eps=0.05": ("not_found_within_budget", 375,
                             0.055911829132939905),
    "oct(1.05,50)/eps=0": ("not_found_within_budget", 375,
                           7.454482926029456e-18),
    "oct(1.05,50)/eps=0.01": ("not_found_within_budget", 375,
                              0.01031285186916441),
    "oct(1.05,50)/eps=0.05": ("not_found_within_budget", 375,
                              0.051284929724615264),
    "flat(0.2)/eps=0": ("not_found_within_budget", 1,
                        -6.938893903907228e-18),
    "flat(0.2)/eps=0.01": ("not_found_within_budget", 375,
                           0.001528830443751017),
    "flat(0.2)/eps=0.05": ("found", 186, 0.007525010748910321),
    "skew(0.1)/eps=0": ("not_found_within_budget", 1,
                        -1.3877787807814457e-17),
    "skew(0.1)/eps=0.01": ("not_found_within_budget", 379,
                           0.0004030227047728818),
    "skew(0.1)/eps=0.05": ("not_found_within_budget", 375,
                           0.001988320403776986),
    "bevelled(10,64)/eps=0": ("not_found_within_budget", 1,
                              -0.0038307796581827968),
    "bevelled(10,64)/eps=0.01": ("not_found_within_budget", 37,
                                 0.06684159066388998),
    "bevelled(10,64)/eps=0.05": ("not_found_within_budget", 38,
                                 0.09612499756333126),
    "cube/loose-ring": ("found", 783, 0.1205515781260943),
}


def test_bench_escape_searches_are_pinned():
    got = {name: escape_search(K, C, budget=budget, seed=7)
           for name, K, C, budget in _bench_escape_starts(7)}
    assert {name: (r.outcome, r.checks_used, r.start_clearance)
            for name, r in got.items()} == BENCH_ESCAPES_SEED_7


def test_clearance_equals_reference_on_bench_searches(monkeypatch):
    # every clearance the benchmark's searches evaluate, recorded by
    # wrapping the bound, equals the two-block exact minimum (at most 12
    # faces) or the coarse grid and the full fine grid (above)
    calls = []

    class Recording(_SupportGapBound):
        def __call__(self, beta):
            got = super().__call__(beta)
            calls.append((self.A, self.B, beta.copy(), got))
            return got

    monkeypatch.setattr(holding, "_SupportGapBound", Recording)
    starts = _bench_escape_starts(7)
    starts += [s for seed in (3, 11) for s in _bench_escape_starts(seed)[-1:]]
    for _, K, C, budget in starts:
        escape_search(K, C, budget=budget, seed=7)
    assert len(calls) > 4000
    assert sum(len(A) > _SupportGapBound.max_exact_faces
               for A, _, _, _ in calls) >= 70
    for A, B, beta, got in calls:
        assert got == reference_bound(beta, A, B)


def _pose_gap_inputs(rng, K, radius):
    n = rng.normal(size=3)
    c = K.centroid + K.circumradius * rng.uniform(-1.0, 1.0, 3)
    return _gap_inputs_for_pose(K, radius * rng.uniform(0.2, 1.5), c,
                                n / np.linalg.norm(n))


def test_clearance_equals_reference_about_bevelled_cylinders():
    rng = np.random.default_rng(20)
    fine = 0
    for sides in (16, 64):
        inst = bevelled_cylinder(10.0, sides)
        K, C = inst.body, inst.circle
        c0, n0 = C.center_array, np.asarray(C.normal, float)
        poses = []
        for eps in (0.0, 1e-3, 1e-2, 5e-2):  # near the waist
            for _ in range(10):
                n = n0 + eps * rng.normal(size=3)
                poses.append(_gap_inputs_for_pose(
                    K, C.radius * (1.0 + eps), c0 + eps * rng.normal(size=3),
                    n / np.linalg.norm(n)))
        poses += [_pose_gap_inputs(rng, K, C.radius) for _ in range(40)]
        for beta, A, B in poses:
            assert _SupportGapBound(A, B)(beta) == reference_bound(beta, A, B)
            slack = float(np.hypot(A, B).max()) * np.pi / 128
            fine += _grid_gap(beta, A, B, 128) - slack <= 0.0
    assert fine >= 60


def test_clearance_equals_reference_on_random_hulls():
    rng = np.random.default_rng(21)
    seen = {"exact": 0, "grid": 0}
    while min(seen.values()) < 100:
        pts = rng.standard_normal((int(rng.integers(4, 23)), 3))
        try:
            K = build_hull(pts * rng.uniform(0.3, 2.0, 3))
        except DegenerateInput:
            continue
        if not 4 <= len(K.faces) <= 40:
            continue
        for _ in range(10):
            beta, A, B = _pose_gap_inputs(rng, K, K.circumradius)
            assert _SupportGapBound(A, B)(beta) == reference_bound(beta, A, B)
        seen["exact" if len(K.faces) <= 12 else "grid"] += 10


def test_escape_search_does_not_depend_on_seed():
    inst = octahedron_iceberg(1.2, 10.0)
    c = inst.circle
    start = Circle3(c.center, 1.01 * c.diameter, c.normal)
    want = escape_search(inst.body, start, budget=1500, seed=7)
    for seed in (0, 3, 11):
        got = escape_search(inst.body, start, budget=1500, seed=seed)
        assert got.seed == seed
        assert dataclasses.replace(got, seed=7) == want


# --- reports and certificates ------------------------------------------------

def test_holding_report_verdicts():
    wd = wd_tetrahedron(1.0, 1.0, 1.0)
    rep = holding_report(wd.body, wd.circle, budget=2000)
    assert rep.verdict == VERDICT_EVIDENCE
    assert rep.non_penetration and rep.surrounds_slice

    rep2 = holding_report(CUBE, Circle3((3.0, 0.5, 0.5), 0.8, (1, 0, 0)), budget=2000)
    assert rep2.verdict == VERDICT_ESCAPE

    rep3 = holding_report(CUBE, Circle3((0.5, 0.5, 0.5), 0.8, (1, 0, 0)), budget=500)
    assert rep3.verdict == VERDICT_INCONCLUSIVE
    assert not rep3.non_penetration
    assert rep3.reasons == ["circle penetrates the body (margin 0.307) — "
                            "not a holding circle"]

    # blocking is incomplete and the search stops near a quarter of budget
    oct_ = octahedron_iceberg(1.2, 10.0)
    c = oct_.circle
    rep4 = holding_report(oct_.body, Circle3(c.center, 1.01 * c.diameter,
                                             c.normal), budget=400)
    assert rep4.verdict == VERDICT_INCONCLUSIVE
    assert rep4.reasons[-1] == (
        f"escape not found ({rep4.escape.checks_used} of 400 clearance "
        f"evaluations used), but blocking certificates are incomplete")


def _blocked_reason(block):
    return (f"the body passes through the circle and sections wider than "
            f"it lie on both sides (margins {block.above.margin:.3g} above, "
            f"{block.below.margin:.3g} below), so no translation carries "
            f"the circle past them; rotations are not examined")


def test_report_says_when_the_escape_search_did_no_work():
    # the waist circle touches the body, but it is linked and blocked on
    # both sides: the gates decide and no search runs
    inst = flat_tetrahedron(0.2)
    rep = holding_report(inst.body, inst.circle, budget=2000)
    assert rep.verdict == VERDICT_EVIDENCE and rep.escape is None
    assert rep.reasons == [_blocked_reason(rep.block)]
    assert report_to_dict(rep)["escape"] is None

    # the thinnest spindle's waist touches the body and is not blocked
    # above, so the search runs and no motion can be certified
    inst = octahedron_iceberg(1.001, 10.0)
    rep = holding_report(inst.body, inst.circle, budget=2000)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.escape.start_clearance <= 0.0
    assert rep.escape.checks_used == 1
    assert any("did no work" in r for r in rep.reasons)
    assert report_to_dict(rep)["escape"]["start_clearance"] <= 0.0

    inst = flat_tetrahedron(0.2)
    loose = Circle3(inst.circle.center, 1.05 * inst.circle.diameter,
                    inst.circle.normal)
    rep = holding_report(inst.body, loose, budget=2000)
    assert rep.escape.start_clearance > 0.0
    assert not any("did no work" in r for r in rep.reasons)


def test_march_never_frees_a_linked_circle_blocked_on_both_sides():
    # a linked circle translates free only if every section on one side
    # of its plane fits through it, so the march must fail wherever the
    # gates certify; the report then runs no search
    rng = np.random.default_rng(11)
    poses = []
    motions = [(np.linalg.qr(rng.standard_normal((3, 3)))[0],
                rng.uniform(-5.0, 5.0, 3)) for _ in range(2)]
    for inst in (octahedron_iceberg(1.2, 10.0), octahedron_iceberg(1.05, 50.0),
                 flat_tetrahedron(0.2), skew_tetrahedron(0.1),
                 wd_tetrahedron(1.0, 1.0, 1.0), bevelled_cylinder(10.0, 64)):
        c = inst.circle
        for q, s in motions:
            K = build_hull(inst.body.vertices @ q.T + s)
            poses += [(K, Circle3(tuple(q @ c.center_array + s),
                                  c.diameter * (1.0 + eps),
                                  tuple(q @ np.asarray(c.normal))))
                      for eps in (0.0, 1e-4, 1e-3, 1e-2)]
    for _ in range(10):
        K = build_hull(rng.standard_normal((rng.integers(5, 14), 3)))
        for axis in np.eye(3):
            for d, t, c2, sc in holding._waist_candidates(K, axis):
                poses += [(K, Circle3(tuple(sc.lift(c2, t)), d * (1.0 + eps),
                                      tuple(sc.frame[2])))
                          for eps in (0.0, 1e-3)]
    certified = escaped = 0
    for K, C in poses:
        rep = holding_report(K, C, budget=2000)
        if rep.verdict != VERDICT_EVIDENCE:
            # the march is live: it frees some circles the gates reject
            escaped += rep.verdict == VERDICT_ESCAPE
            continue
        certified += 1
        assert rep.escape is None
        assert rep.reasons == [_blocked_reason(rep.block)]
        assert not escape_search(K, C, budget=2000).found
    assert certified >= 60 and escaped >= 1


def test_skew_tetra_check_shows_the_work_of_its_escape_searches():
    inst = skew_tetrahedron(0.1)
    searches = [escape_search(inst.body, inst.circle, budget=100_000, seed=s)
                for s in range(7, 12)]
    res = verification.check_skew_tetra(7)[-1]
    assert res.name == "escape-search-exhausts-budget-5-seeds"
    assert res.detail == (
        "seeds 7..11; checks_used "
        + ", ".join(str(e.checks_used) for e in searches)
        + "; start_clearance "
        + ", ".join(f"{e.start_clearance:.3g}" for e in searches))
    # the circle touches the body: each search returns after one check
    assert all(e.checks_used == 1 and e.start_clearance <= 0.0
               for e in searches)


def test_min_holding_circle_flat_tetrahedron():
    inst = flat_tetrahedron(0.2)
    circ, rep = min_holding_circle(inst.body)
    assert circ.diameter == pytest.approx(
        inst.predictions["diameter"].value, abs=1e-6)
    assert rep.verdict == VERDICT_EVIDENCE


def test_min_holding_circle_reports_with_the_gates_it_computed(monkeypatch):
    inst = flat_tetrahedron(0.2)
    blocked = []
    block = holding._block
    monkeypatch.setattr(
        holding, "_block",
        lambda sc, C, *a: blocked.append(C) or block(sc, C, *a))
    circ, rep = min_holding_circle(inst.body)
    # each candidate circle is blocked once, the reported one included
    assert circ in blocked and len(set(blocked)) == len(blocked)
    monkeypatch.undo()
    assert rep == holding_report(inst.body, circ, budget=800)


def test_min_holding_circle_matches_waist_in_equality_class():
    inst = wd_tetrahedron(1.0, 1.0, 1.0)
    circ, _ = min_holding_circle(inst.body)
    assert circ.diameter == pytest.approx(
        inst.predictions["waist_diameter"].value, abs=1e-6)


def test_min_holding_circle_rejects_cube():
    with pytest.raises(NotFound):
        min_holding_circle(CUBE)


def test_chain_certificate_octahedron():
    inst = octahedron_iceberg(1.2, 10.0)
    cert = chain_certificate(inst.body, inst.circle)
    assert all(cert.checks.values())
    v = cert.values
    assert v["width"] <= v["min_wh_far_half"] + 1e-9
    assert v["min_wh_far_half"] < v["min_wh_region"]
    assert v["min_wh_region"] == pytest.approx(v["width2_region"], abs=1e-6)
    assert v["width2_region"] <= v["diameter_bound"] + 1e-9
    assert v["diameter_bound"] == pytest.approx(1.5 * inst.circle.diameter, abs=1e-9)


def test_verify_paper_chain_values_unchanged():
    # the values before the float hull and hull-edge slopes
    want = {"width": 2.9999161900746905, "min_wh_far_half": 2.999999999999999,
            "min_wh_region": 3.029949501262465,
            "width2_region": 3.0299495012624624,
            "diameter_bound": 3.029949501262465}
    inst = octahedron_iceberg(1.01, 200.0)
    cert = chain_certificate(inst.body, inst.circle)
    assert cert.values.keys() == want.keys()
    for k, v in want.items():
        assert abs(cert.values[k] - v) <= 1e-12
    assert all(cert.checks.values())


def _chain_parts(inst, side="auto"):
    """The chain certificate of a family circle on ``side``, its frame,
    centre and working box, the prism as the working cube clipped by the
    tangent half-spaces, the far half as a second plane cut of the body
    (both by ``clip_halfspace``, the construction the certificate
    replaced), and the projected widths of that prism and far half."""
    C = inst.circle
    cert = chain_certificate(inst.body, C, side=side)
    frame = _SliceScanner(inst.body, C.normal, origin=C.center_array).frame
    c0, box = C.center_array, 50.0 * C.diameter
    prism = build_hull([c0 + box * (s1 * frame[0] + s2 * frame[1]
                                    + s3 * frame[2])
                        for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)
                        for s3 in (1.0, -1.0)])
    for hs in cert.tangent_halfspaces:
        prism = clip_halfspace(prism, hs)
    far_normal = tuple((1.0 if cert.side == "above" else -1.0)
                       * np.asarray(C.normal, float))
    far = clip_halfspace(inst.body, HalfSpace(
        far_normal, float(np.dot(far_normal, C.center))))

    def widths(V):
        pts = [((V - c0) @ ax).tolist() for ax in frame]
        return lambda th: projected_width(*pts, th)

    return (cert, frame, c0, box, prism, far, widths(prism.vertices),
            widths(far.vertices))


CHAIN_SPINDLES = [(1.01, 200.0), (1.2, 10.0), (1.38, 5.0)]


@pytest.mark.parametrize("a, h", CHAIN_SPINDLES)
def test_periodic_min_matches_grid_golden_reference_in_the_chain(a, h):
    cert, *_, wh_prism, wh_far = _chain_parts(octahedron_iceberg(a, h))
    for f, key in ((wh_prism, "min_wh_region"), (wh_far, "min_wh_far_half")):
        grid = np.linspace(0.0, np.pi, 720, endpoint=False)
        got = periodic_min(f, np.pi, np.array([f(x) for x in grid]))
        assert got == grid_golden_min(f, 720)
        # the chain's minimum is exact; the sampled one agrees with it
        assert abs(got[1] - cert.values[key]) <= 1e-12 * got[1]


@pytest.mark.parametrize("inst", [
    *(octahedron_iceberg(a, h) for a, h in CHAIN_SPINDLES),
    octahedron_iceberg(1.05, 50.0), families.rectangle_circle(1.2, 3.0)])
def test_cluster_distance_is_the_sampled_minimum(inst):
    diag = extremality_diagnostics(inst.body, inst.circle)
    q, d = diag.chain.contacts2, inst.circle.diameter
    period = 2.0 * np.pi / 3.0

    def cluster_cost(psi):
        ang = psi + np.array([0.0, period, 2.0 * period])
        ideal = (d / 2.0) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dd = np.linalg.norm(q[:, None, :] - ideal[None, :, :], axis=2)
        return float(dd.min(axis=1).max())

    psi, cost = grid_golden_min(cluster_cost, 360, period)
    assert 0.0 <= diag.cluster_rotation < period
    off = abs(diag.cluster_rotation - psi)
    assert min(off, period - off) <= 1e-9
    assert abs(diag.cluster_distance - cost) <= 1e-14 * d
    assert diag.cluster_distance == cluster_cost(diag.cluster_rotation)


@pytest.mark.parametrize("a, h", CHAIN_SPINDLES + [(1.05, 50.0)])
def test_clipped_prism_matches_plane_triple_vertices(a, h):
    cert, frame, c0, box, prism, *_ = _chain_parts(octahedron_iceberg(a, h))
    hs = list(cert.tangent_halfspaces) + [
        HalfSpace(tuple(s * ax), box + float(s * ax @ c0))
        for ax in frame for s in (1.0, -1.0)]
    want = bounded_intersection_vertices(hs, 1e-7 * box)
    got = prism.vertices
    assert len(got) == len(want)
    dist = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
    assert dist.min(axis=1).max() <= 1e-12 * box
    assert dist.min(axis=0).max() <= 1e-12 * box


@pytest.mark.parametrize("maker, args, side, built", [
    # the first side (above) holds: the other is never built
    (octahedron_iceberg, (1.2, 10.0), "above", 1),
    (octahedron_iceberg, (1.01, 200.0), "above", 1),
    (octahedron_iceberg, (1.05, 50.0), "above", 1),
    (octahedron_iceberg, (1.38, 5.0), "above", 1),
    # only the second side holds
    (families.rectangle_circle, (1.2, 3.0), "below", 2),
    # neither holds: the fewest failures, the first side on ties
    (flat_tetrahedron, (0.2,), "above", 2),
])
def test_auto_chain_builds_sides_until_one_holds(monkeypatch, maker, args,
                                                  side, built):
    inst = maker(*args)
    want = chain_certificate(inst.body, inst.circle, side=side)
    calls = []
    inner = holding._min_shadow_width
    monkeypatch.setattr(holding, "_min_shadow_width",
                        lambda *a, **k: calls.append(a) or inner(*a, **k))
    cert = chain_certificate(inst.body, inst.circle)
    # each side built runs two minimisations: the prism and the far half
    assert len(calls) == 2 * built
    assert cert.side == side and cert.holds == want.holds
    assert cert.values == want.values and cert.checks == want.checks
    assert np.array_equal(cert.contacts3, want.contacts3)


def test_chain_needs_a_blocking_slice():
    with pytest.raises(NoBlockingSlice):
        chain_certificate(CUBE, Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1)))
    # the unit square section does not fit in these circles: the body does
    # not pass through them, and the largest section above lies in their
    # own plane, where the chain would divide by the blocking height
    for d in (1.0, 1.2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="does not pass through"):
                chain_certificate(CUBE, Circle3((0.5, 0.5, 0.5), d, (0, 0, 1)))


def _big_cube_circle(narrower):
    """The side-2000 cube and a circle about its middle square section,
    ``narrower`` than the square's diagonal."""
    s = 2000.0
    K = build_hull(np.array([[x, y, z] for x in (0.0, s) for y in (0.0, s)
                             for z in (0.0, s)]))
    return K, Circle3((s / 2, s / 2, s / 2), s * np.sqrt(2.0) - narrower,
                      (0, 0, 1))


def test_chain_blocking_height_is_off_the_circle_plane():
    # at scale 2000 the surround test admits a circle 1.2e-6 narrower than
    # the square section in its plane, more than TOL_OPT: the section there
    # would block, but the chain divides by the blocking height.  The
    # circle cuts the square's corners 4.2e-7 deep, less than TOL_OPT.
    K, C = _big_cube_circle(1.2e-6)
    assert surrounds_slice(K, C)
    assert holding_report(K, C).verdict == VERDICT_EVIDENCE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = chain_certificate(K, C)
    assert cert.side == "above" and 0.0 < cert.height < 1e-8 * 2000.0
    assert np.isfinite(cert.delta_direction).all()


def test_chain_rejects_a_circle_that_meets_the_interior():
    # 3e-6 narrower, the circle cuts the corners 1.06e-6 deep, more than
    # TOL_OPT: the body passes through it, but it is no holding circle
    K, C = _big_cube_circle(3e-6)
    assert surrounds_slice(K, C)
    pen = circle_interior_intersects(K, C, TOL_OPT)
    assert pen.intersects and pen.penetration > TOL_OPT
    assert holding_report(K, C).verdict == VERDICT_INCONCLUSIVE
    with pytest.raises(InvalidInput, match=r"penetrates the body \(margin "):
        chain_certificate(K, C)


def test_extremality_of_octahedron_waist():
    inst = octahedron_iceberg(1.2, 10.0)
    cert = chain_certificate(inst.body, inst.circle)
    diag = extremality_diagnostics(inst.body, inst.circle, chain=cert)
    # the waist region of this spindle is an exact equilateral triangle
    assert diag.hausdorff < 1e-9
    assert diag.slacks["region_vs_diameter_bound"] == pytest.approx(0.0, abs=1e-9)
    assert diag.slacks["width_vs_far_half"] > 0.0


EXTREMAL_SPINDLES = [*(octahedron_iceberg(a, h)
                       for a, h in CHAIN_SPINDLES + [(1.05, 50.0)]),
                     families.seven_vertex_iceberg(1.2, 10.0)]


@pytest.mark.parametrize("inst", EXTREMAL_SPINDLES)
def test_spindle_regions_are_the_extremal_triangle(inst):
    diag = extremality_diagnostics(inst.body, inst.circle)
    assert diag.hausdorff < 1e-12 * inst.circle.diameter


@pytest.mark.parametrize("inst", [*EXTREMAL_SPINDLES,
                                  families.rectangle_circle(1.2, 3.0)])
def test_extremal_triangle_touches_the_circle_at_the_ideal_points(inst):
    diag = extremality_diagnostics(inst.body, inst.circle)
    d = inst.circle.diameter
    normals, offsets = diag.triangle.edge_lines()
    # the edges lie at d/2 from the centre, so the circle is inscribed,
    # and the outward normals point at the three ideal points
    assert np.abs(offsets - d / 2.0).max() <= 1e-12 * d
    ang = diag.cluster_rotation + 2.0 * np.pi / 3.0 * np.arange(3)
    ideal = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    gap = np.linalg.norm(normals[:, None] - ideal[None], axis=2)
    assert gap.min(axis=0).max() <= 1e-12 and gap.min(axis=1).max() <= 1e-12


def _boundary_samples(P, step):
    v = P.vertices
    pts = []
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        k = int(np.ceil(np.linalg.norm(b - a) / step))
        pts.append(a + (np.arange(k) / k)[:, None] * (b - a))
    return np.vstack(pts)


def _sampled_hausdorff(P, Q, step):
    """Hausdorff distance of two convex polygons from their boundaries
    sampled ``step`` apart: a directed supremum is attained on the
    boundary, and a boundary point outside the other polygon is nearest
    to that polygon's boundary."""
    from scipy.spatial import cKDTree

    def directed(A, B):
        a, b = _boundary_samples(A, step), _boundary_samples(B, step)
        n, off = B.edge_lines()
        outside = (a @ n.T > off).any(axis=1)
        return float(cKDTree(b).query(a[outside])[0].max(initial=0.0))

    return max(directed(P, Q), directed(Q, P))


def test_extremal_hausdorff_matches_sampled_boundaries():
    inst = families.rectangle_circle(1.2, 3.0)
    diag = extremality_diagnostics(inst.body, inst.circle)
    region = Polygon2.from_points(diag.chain.region2)
    step = 1e-3
    want = _sampled_hausdorff(region, diag.triangle, step)
    assert abs(diag.hausdorff - want) <= step
    # the circumscribing triangle is no fit: here it is 1.37 away
    assert diag.hausdorff == pytest.approx(1.3715555016, abs=1e-9)


@pytest.mark.parametrize("a, h", CHAIN_SPINDLES)
def test_far_half_from_the_profile_equals_the_plane_cut(a, h):
    cert, frame, *_, far, _, _ = _chain_parts(octahedron_iceberg(a, h))
    want = _min_shadow_width(far.vertices, frame[2])
    got = cert.values["min_wh_far_half"]
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("a, h", CHAIN_SPINDLES)
@pytest.mark.parametrize("side", ["above", "below"])
def test_chain_side_hulls_the_prism_alone(monkeypatch, a, h, side):
    inst = octahedron_iceberg(a, h)
    hulls = []
    inner = polytope.build_hull
    for module in (polytope, families, fileio):
        monkeypatch.setattr(module, "build_hull",
                            lambda points: hulls.append(len(points))
                            or inner(points))
    assert not hasattr(holding, "build_hull")
    chain_certificate(inst.body, inst.circle, side=side)
    # the prism is the boxed region moved along the prism direction and
    # the far half is read off the profile: no hull is built at all
    assert hulls == []


@pytest.mark.parametrize("inst", [*EXTREMAL_SPINDLES,
                                  families.rectangle_circle(1.2, 3.0),
                                  skew_tetrahedron(0.1),
                                  wd_tetrahedron(2.0, 2.0, 1.0),
                                  flat_tetrahedron(0.2)])
@pytest.mark.parametrize("side", ["above", "below"])
def test_extruded_region_matches_the_cube_clipped_prism(inst, side):
    cert, frame, _, _, prism, *_ = _chain_parts(inst, side)
    want = _min_shadow_width(prism.vertices, frame[2])
    got = cert.values["min_wh_region"]
    assert cert.side == side
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(inst=st.sampled_from([*EXTREMAL_SPINDLES,
                             families.rectangle_circle(1.2, 3.0),
                             skew_tetrahedron(0.1),
                             wd_tetrahedron(2.0, 2.0, 1.0)]),
       motion=st.integers(0, 2**32 - 1))
def test_chain_is_invariant_under_rigid_motion_and_vertex_order(inst, motion):
    # scaling is left out: the tolerances are absolute (ROADMAP item 2)
    K, C = inst.body, inst.circle
    rng = np.random.default_rng(motion)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    R = q if np.linalg.det(q) > 0 else -q
    shift = rng.uniform(-5.0, 5.0, 3) * K.circumradius
    perm = rng.permutation(len(K.vertices))
    new_index = np.argsort(perm)
    moved = Polytope3(K.vertices[perm] @ R.T + shift,
                      [[int(new_index[i]) for i in f] for f in K.faces],
                      validate=False)
    C2 = Circle3(R @ C.center_array + shift, C.diameter,
                 R @ np.asarray(C.normal, float))
    want = extremality_diagnostics(K, C)
    got = extremality_diagnostics(moved, C2)
    d = C.diameter
    assert got.chain.side == want.chain.side
    for k, v in want.chain.values.items():
        assert abs(got.chain.values[k] - v) <= 1e-9 * max(1.0, abs(v))
    assert got.chain.checks == want.chain.checks
    assert (got.hausdorff == want.hausdorff
            or abs(got.hausdorff - want.hausdorff) <= 1e-9 * d)
    assert abs(got.cluster_distance - want.cluster_distance) <= 1e-9 * d
