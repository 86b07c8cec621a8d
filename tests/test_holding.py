import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from chain_reference import bounded_intersection_vertices, grid_golden_min
from oracle_cases import oracle_agreement_cases
from profile_reference import (inward_intervals, sampled_grid,
                               sampled_side_max, sampled_waists,
                               unpruned_smallest)

from circlehold import (
    Circle3,
    InvalidInput,
    InvalidStart,
    NoBlockingSlice,
    NotFound,
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
from circlehold import families, holding
from circlehold.holding import (_SliceScanner, _SupportGapBound,
                                _edge_pair_distances,
                                _support_gap_exact)
from circlehold.planar import (golden_refine, min_enclosing_circle,
                               periodic_min, projected_width)
from circlehold.polytope import (HalfSpace, Polytope3, clip_halfspace,
                                 plane_frame)
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


def test_penetration_witness():
    # circle fully inside the cube: deepest point 0.1 from a face
    w = circle_interior_intersects(CUBE, Circle3((0.5, 0.5, 0.5), 0.8, (1, 0, 0)))
    assert w.intersects
    assert w.penetration == pytest.approx(0.1, abs=1e-9)
    assert CUBE.contains(w.point)


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
        except Exception:
            continue
        c = Circle3(tuple(rng.standard_normal(3) * 0.8), 0.4 + 2.0 * rng.random(),
                    tuple(rng.standard_normal(3)))
        exact = circle_interior_intersects(K, c, tol=1e-9)
        depth, _ = sampled_penetration(K, c, samples=2048)
        if exact.intersects and exact.penetration > 1e-6:
            assert depth > 0.0
        if not exact.intersects:
            assert depth <= 1e-6


def test_surrounds_slice():
    assert surrounds_slice(CUBE, Circle3((0.5, 0.5, 0.5), 4.0, (0, 0, 1)))
    assert not surrounds_slice(CUBE, Circle3((2.5, 0.5, 0.5), 1.0, (0, 0, 1)))
    # penetrating circle cannot surround
    assert not surrounds_slice(CUBE, Circle3((0.5, 0.5, 0.5), 0.5, (0, 0, 1)))


def _section_by_numpy(K, axis, origin, t):
    """Section points of the earlier numpy scanner (vertices within
    ``1e-12 * scale`` of the plane, then edge crossings), kept as the
    reference for the float loop."""
    e1, e2, n = plane_frame(np.asarray(axis, float))
    rel = K.vertices - origin
    V2 = np.stack([rel @ e1, rel @ e2], axis=1)
    h = rel @ n
    edges = np.asarray(K.edges, dtype=int)
    eps = 1e-12 * max(1.0, float(np.abs(K.vertices).max()))
    d = h - t
    parts = [V2[np.abs(d) <= eps]]
    a, bb = edges[:, 0], edges[:, 1]
    da, db = d[a], d[bb]
    m = ((da < -eps) & (db > eps)) | ((da > eps) & (db < -eps))
    if m.any():
        lam = (da[m] / (da[m] - db[m]))[:, None]
        parts.append(V2[a[m]] + lam * (V2[bb[m]] - V2[a[m]]))
    return np.vstack(parts)


def _section_bodies():
    rng = np.random.default_rng(30)
    bodies = [families.octahedron_iceberg(1.2, 10.0).body,
              families.seven_vertex_iceberg(1.38, 5.0).body,
              families.rectangle_circle(1.38, 5.0).body,
              families.flat_tetrahedron(0.2).body,
              families.five_vertex_flat(0.2).body,
              families.skew_tetrahedron(0.1).body,
              families.bevelled_cylinder(10.0, 16).body,
              families.wd_tetrahedron(2.0, 2.0, 1.0).body,
              build_hull(families.simplex_hull_nd(3, 1.2, 10.0).body.vertices),
              CUBE]
    bodies += [build_hull(rng.standard_normal((int(rng.integers(5, 25)), 3))
                          * rng.uniform(0.1, 10.0, size=3))
               for _ in range(30)]
    return bodies


def test_float_section_matches_numpy_section():
    rng = np.random.default_rng(31)
    checked = 0
    for K in _section_bodies():
        for axis in np.vstack([np.eye(3), rng.standard_normal((2, 3))]):
            origin = rng.standard_normal(3) * float(rng.random() < 0.5)
            sc = _SliceScanner(K, axis, origin=origin)
            hs = np.unique(sc.h)
            heights = np.concatenate([hs, (hs[1:] + hs[:-1]) / 2.0,
                                      [hs[0] - 1.0, hs[-1] + 1.0]])
            for t in heights:
                want = _section_by_numpy(K, axis, origin, t)
                got = sc.points2(t)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                if len(want) == 0:
                    assert sc.circum(t) is None and sc.diam(t) == 0.0
                    continue
                c, w = sc.circum(t), min_enclosing_circle(want, seed=1)
                assert np.array([*c.center, c.radius]).tobytes() == \
                    np.array([*w.center, w.radius]).tobytes()
                checked += 1
    assert checked > 1000
    assert _SliceScanner(CUBE, (0, 0, 1)).diam(float("nan")) == 0.0


def _section_by_full_loop(sc, t):
    """The section of every vertex and every edge, in the float loop of
    the scanner before the per-interval edge lists, and the largest
    ``|coordinate|`` of its points."""
    eps = 1e-12 * sc.scale
    pts = [(x, y) for hv, x, y in sc._vertices if abs(hv - t) <= eps]
    for ha, hb, ax, ay, bx, by in sc._edges:
        da = ha - t
        db = hb - t
        if (da < -eps and db > eps) or (da > eps and db < -eps):
            lam = da / (da - db)
            pts.append((ax + lam * (bx - ax), ay + lam * (by - ay)))
    return pts, max((abs(c) for p in pts for c in p), default=0.0)


def test_interval_section_matches_full_edge_loop():
    rng = np.random.default_rng(32)
    bodies = _section_bodies() + [
        families.octahedron_iceberg(1.01, 200.0).body,
        families.bevelled_cylinder(10.0, 64).body,
        families.skew_tetrahedron(0.1).body]
    checked = near = 0
    for K in bodies:
        axes = np.vstack([np.eye(3), rng.standard_normal((2, 3))])
        for axis in axes:
            origin = rng.standard_normal(3) * float(rng.random() < 0.5)
            sc = _SliceScanner(K, axis, origin=origin)
            eps = 1e-12 * sc.scale
            hs = np.unique(sc.h)
            heights = [np.linspace(sc.h_min - 1.0, sc.h_max + 1.0, 101),
                       sampled_grid(sc, sc.h_min, sc.h_max, 100)]
            heights += [hs + k * eps for k in range(-3, 4)]
            for i, t in enumerate(np.concatenate(heights).tolist()):
                got, want = sc._section(t), _section_by_full_loop(sc, t)
                assert got == want
                checked += 1
                near += bool(want[0]) and min(abs(hs - t)) <= 2.0 * eps
                if i % 7 == 0 and want[0]:
                    assert sc.diam(t) == 2.0 * sc.circum(t).radius
                elif i % 7 == 0:
                    assert sc.diam(t) == 0.0 and sc.circum(t) is None
    assert checked > 10_000 and near > 1000


def test_sampled_penetration_matches_sample_by_face_matrix():
    def by_sample_rows(K, C, samples):
        t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        n, b = K.face_planes()
        dep = -(C.points(t) @ n.T - b).max(axis=1)
        k = int(np.argmax(dep))
        return float(dep[k]), float(t[k])

    cases = [(K, C) for _, K, C in oracle_agreement_cases(7) if K is not None]
    assert len(cases) == 1000
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


# --- the exact slice profile ------------------------------------------------

@lru_cache(maxsize=None)
def _profile_cases():
    """(body, unit axis) pairs: the families along their circle normals and
    the coordinate axes, and 100 random hulls along the coordinate axes and
    one random axis."""
    rng = np.random.default_rng(40)
    insts = [octahedron_iceberg(1.2, 10.0), octahedron_iceberg(1.01, 200.0),
             flat_tetrahedron(0.2), skew_tetrahedron(0.1),
             wd_tetrahedron(2.0, 2.0, 1.0), bevelled_cylinder(10.0, 16),
             families.seven_vertex_iceberg(1.38, 5.0)]
    cases = [(inst.body, axis) for inst in insts
             for axis in (np.asarray(inst.circle.normal), *np.eye(3))]
    for _ in range(100):
        K = build_hull(rng.standard_normal((int(rng.integers(5, 14)), 3))
                       * rng.uniform(0.3, 3.0, size=3))
        axis = rng.standard_normal(3)
        cases += [(K, a) for a in (*np.eye(3), axis / np.linalg.norm(axis))]
    return cases


@pytest.fixture
def diam_calls(monkeypatch):
    """A one-element list counting ``_SliceScanner.diam`` calls."""
    calls = [0]
    diam = _SliceScanner.diam

    def counted(self, t):
        calls[0] += 1
        return diam(self, t)
    monkeypatch.setattr(_SliceScanner, "diam", counted)
    return calls


def test_exact_waists_are_never_above_the_sampled_ones(diam_calls):
    sampled = pruned_calls = full_calls = 0
    for K, axis in _profile_cases():
        sc = _SliceScanner(K, axis)
        exact = [d for d, _ in holding._waists(sc, -np.inf)]
        step = (sc.h_max - sc.h_min) / 199
        for d, t in sampled_waists(sc):
            # a grid minimum at the end of a plateau, where the profile
            # stays level on one side, is no strict local minimum
            if min(sc.diam(t - step), sc.diam(t + step)) <= d + 1e-12:
                continue
            sampled += 1
            assert min(exact) <= d + 1e-12 * sc.scale
        # the polish objective: skipping intervals changes no value (the
        # same search on every interval, since golden-section and
        # _convex_min differ in the last bits)
        diam_calls[0] = 0
        holding._waists(sc, TOL_OPT)
        full_calls += diam_calls[0]
        diam_calls[0] = 0
        pruned = holding._waists(sc, TOL_OPT, smallest=True)
        pruned_calls += diam_calls[0]
        assert pruned == unpruned_smallest(sc, TOL_OPT)
    assert sampled > 100 and pruned_calls < full_calls


def test_convex_min_matches_golden_section_with_fewer_evaluations(diam_calls):
    # every inward interval of 60 random hulls along 20 random axes each:
    # the certified stop is never above the 60-step golden-section value by
    # more than Welzl's inclusion slack, at under 40 % of its evaluations
    # (the search starts from the ends and probes, which _waists has)
    rng = np.random.default_rng(42)
    n = calls = golden_calls = 0
    for _ in range(60):
        K = build_hull(rng.standard_normal((int(rng.integers(5, 14)), 3))
                       * rng.uniform(0.3, 3.0, size=3))
        for _ in range(20):
            axis = rng.standard_normal(3)
            sc = _SliceScanner(K, axis / np.linalg.norm(axis))
            for _, samples in inward_intervals(sc):
                diam_calls[0] = 0
                want = golden_refine(sc.diam, samples[0][0],
                                      samples[-1][0])[1]
                golden_calls += diam_calls[0]
                diam_calls[0] = 0
                got = holding._convex_min(sc.diam, samples, 1e-13 * sc.scale)
                calls += diam_calls[0]
                assert got <= want + 4e-12 * sc.scale
                n += 1
    assert n >= 300 and calls <= 0.4 * golden_calls


def test_waists_keep_exactly_the_blockable_minima():
    dropped = 0
    for K, axis in _profile_cases():
        sc = _SliceScanner(K, axis)
        levels = np.unique(sc.h)
        R = np.array([sc.diam(t) for t in levels])

        def blockable(d, t):
            return (R[levels < t].max(initial=0.0) > d + TOL_OPT
                    and R[levels > t].max(initial=0.0) > d + TOL_OPT)
        every = holding._waists(sc, -np.inf)
        kept = [m for m in every if blockable(*m)]
        assert holding._waists(sc, TOL_OPT) == kept
        dropped += len(every) - len(kept)
    assert dropped >= 10


def test_blocking_maximum_is_at_the_side_end_or_a_vertex_height():
    rng = np.random.default_rng(41)
    sides = 0
    for K, axis in _profile_cases():
        h = K.vertices @ axis
        lo, hi = h.min(), h.max()
        center = K.centroid + rng.uniform(-0.3, 0.3) * (hi - lo) * axis
        C = Circle3(tuple(center), 1.0, tuple(axis))
        tb = translation_block_certificate(K, C)
        sc = _SliceScanner(K, np.asarray(C.normal), origin=C.center_array)
        eps = 1e-9 * max(sc.h_max - sc.h_min, 1.0)
        for blk, a, b in ((tb.above, eps, sc.h_max),
                          (tb.below, sc.h_min, -eps)):
            if b <= a:
                assert not blk.blocked and blk.height is None
                continue
            sides += 1
            inner = [float(v) for v in np.unique(sc.h) if a < v < b]
            want = max(sc.diam(t) for t in [a, *inner, b])
            assert blk.circumdiameter == want
            assert sc.diam(blk.height) == want
            assert want >= sampled_side_max(sc, a, b)[1] - 1e-8 * sc.scale
    assert sides > 600


@pytest.mark.parametrize("a", [1.002, 1.005, 1.05, 1.2])
@pytest.mark.parametrize("h", [10.0, 50.0, 200.0, 500.0, 2000.0])
def test_min_holding_circle_certifies_long_spindles(a, h):
    inst = octahedron_iceberg(a, h)
    circ, rep = min_holding_circle(inst.body, escape_budget=200)
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
        circ, rep = min_holding_circle(K, escape_budget=200)
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
    res = escape_search(CUBE, Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1)), budget=20000)
    for pose in res.path:
        assert not circle_interior_intersects(CUBE, pose).intersects


def test_escape_requires_clean_start():
    with pytest.raises(InvalidStart):
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
    pairs = np.triu_indices(F, 1)
    for _ in range(400):
        beta, A, B = _random_gap_inputs(rng, F)
        assert (_support_gap_exact(beta, A, B, pairs)
                == _support_gap_by_face_loop(beta, A, B))


def test_support_gap_exact_is_the_dense_minimum():
    rng = np.random.default_rng(11)
    n = 2 ** 16
    for F in (3, 5, 8, 12):
        pairs = np.triu_indices(F, 1)
        for _ in range(5):
            beta, A, B = _random_gap_inputs(rng, F)
            exact = _support_gap_exact(beta, A, B, pairs)
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
    gap = _SupportGapBound(len(K.faces))
    assert len(K.faces) > gap.max_exact_faces
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
        slack = float(np.hypot(A, B).max()) * np.pi / 128
        coarse = _grid_gap(beta, A, B, 128) - slack
        if coarse > 0.0:
            assert gap(beta, A, B) == coarse
            continue
        fine += 1
        assert gap(beta, A, B) == _grid_gap(beta, A, B, 8192) - slack / 64
    assert fine >= 40


def _gap_screen_first(gap, beta, A, B):
    """The clearance bound at most 12 faces with the 128-angle screen
    tried before the exact value, as it was computed before the reorder."""
    g = beta + gap.cos_c * A + gap.sin_c * B
    slack = float(np.hypot(A, B).max(initial=0.0)) * (np.pi / gap.n_coarse)
    U = float(g.max(axis=1).min())
    if U - slack > 0.0:
        return U - slack
    return _support_gap_exact(beta, A, B, gap.pairs)


def test_exact_first_clearance_matches_screen_first():
    rng = np.random.default_rng(12)
    seen = {"touching": 0, "screened": 0, "exact": 0}
    insts = [octahedron_iceberg(1.2, 10.0), octahedron_iceberg(1.05, 50.0),
             flat_tetrahedron(0.2), skew_tetrahedron(0.1)]
    for inst in insts:
        K, C = inst.body, inst.circle
        gap = _SupportGapBound(len(K.faces))
        for _ in range(300):
            n = np.asarray(C.normal) + rng.uniform(0.0, 0.3) * rng.normal(
                size=3)
            r = C.radius * (1.0 + rng.choice([0.0, 1e-3, 1e-2, 0.1, 1.0]))
            c = C.center_array + rng.choice([0.0, 0.01, 0.3, 3.0]) * rng.normal(
                size=3)
            beta, A, B = _gap_inputs_for_pose(K, r, c, n / np.linalg.norm(n))
            got = gap(beta, A, B)
            assert got == _gap_screen_first(gap, beta, A, B)
            exact = _support_gap_exact(beta, A, B, gap.pairs)
            seen["touching" if exact <= 0.0 else
                 "exact" if got == exact else "screened"] += 1
    assert min(seen.values()) >= 50, seen


# escape searches on the inflated circles of the benchmark, at seed 7: the
# outcome, checks and nodes pin the whole trajectory
@pytest.mark.parametrize("inst, eps, budget, expected", [
    (bevelled_cylinder(10.0, 64), 1e-2, 150,
     ("not_found_within_budget", 150, 50)),
    (flat_tetrahedron(0.2), 5e-2, 1500, ("found", 206, 0)),
    (octahedron_iceberg(1.2, 10.0), 1e-2, 1500,
     ("not_found_within_budget", 1500, 281)),
])
def test_escape_trajectory_is_pinned(inst, eps, budget, expected):
    c = inst.circle
    start = Circle3(c.center, c.diameter * (1.0 + eps), c.normal)
    res = escape_search(inst.body, start, budget=budget, seed=7)
    assert (res.outcome, res.checks_used, res.nodes) == expected


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


def test_min_holding_circle_flat_tetrahedron():
    inst = flat_tetrahedron(0.2)
    circ, rep = min_holding_circle(inst.body, escape_budget=800)
    assert circ.diameter == pytest.approx(
        inst.predictions["diameter"].value, abs=1e-6)
    assert rep.verdict == VERDICT_EVIDENCE


def test_min_holding_circle_reports_with_the_gates_it_computed(monkeypatch):
    inst = flat_tetrahedron(0.2)
    blocked = []
    block = holding.translation_block_certificate
    monkeypatch.setattr(holding, "translation_block_certificate",
                        lambda K, C, *a: blocked.append(C) or block(K, C, *a))
    circ, rep = min_holding_circle(inst.body, escape_budget=800)
    # each candidate circle is blocked once, the reported one included
    assert circ in blocked and len(set(blocked)) == len(blocked)
    monkeypatch.undo()
    assert rep == holding_report(inst.body, circ, budget=800)


def test_min_holding_circle_matches_waist_in_equality_class():
    inst = wd_tetrahedron(1.0, 1.0, 1.0)
    circ, _ = min_holding_circle(inst.body, escape_budget=800)
    assert circ.diameter == pytest.approx(
        inst.predictions["waist_diameter"].value, abs=1e-6)


def test_min_holding_circle_rejects_cube():
    with pytest.raises(NotFound):
        min_holding_circle(CUBE, escape_budget=300)


def test_chain_certificate_octahedron():
    inst = octahedron_iceberg(1.2, 10.0)
    cert = chain_certificate(inst.body, inst.circle, theta_samples=240)
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
    cert = chain_certificate(inst.body, inst.circle, theta_samples=720)
    assert cert.values.keys() == want.keys()
    for k, v in want.items():
        assert abs(cert.values[k] - v) <= 1e-12
    assert all(cert.checks.values())


def _chain_parts(a, h):
    """The chain certificate of a spindle's waist circle, its frame, centre
    and working box, the boxed prism as the certificate clips it, and the
    projected widths of the prism and of the far half."""
    inst = octahedron_iceberg(a, h)
    C = inst.circle
    cert = chain_certificate(inst.body, C)
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

    return (cert, frame, c0, box, prism, widths(prism.vertices),
            widths(far.vertices))


CHAIN_SPINDLES = [(1.01, 200.0), (1.2, 10.0), (1.38, 5.0)]


@pytest.mark.parametrize("a, h", CHAIN_SPINDLES)
def test_periodic_min_matches_grid_golden_reference_in_the_chain(a, h):
    cert, *_, wh_prism, wh_far = _chain_parts(a, h)
    for f, key in ((wh_prism, "min_wh_region"), (wh_far, "min_wh_far_half")):
        got = periodic_min(f, np.pi, 720)
        assert got == grid_golden_min(f, 720)
        assert got[1] == cert.values[key]
    inst = octahedron_iceberg(a, h)
    diag = extremality_diagnostics(inst.body, inst.circle, chain=cert)
    q, d = cert.contacts2, inst.circle.diameter

    def cluster_cost(psi):
        ang = psi + np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        ideal = (d / 2.0) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dd = np.linalg.norm(q[:, None, :] - ideal[None, :, :], axis=2)
        return float(dd.min(axis=1).max())

    assert (diag.cluster_rotation, diag.cluster_distance) == grid_golden_min(
        cluster_cost, 360, 2.0 * np.pi / 3.0)


@pytest.mark.parametrize("a, h", CHAIN_SPINDLES + [(1.05, 50.0)])
def test_clipped_prism_matches_plane_triple_vertices(a, h):
    cert, frame, c0, box, prism, *_ = _chain_parts(a, h)
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
    inner = holding.periodic_min
    monkeypatch.setattr(holding, "periodic_min",
                        lambda *a, **k: calls.append(a) or inner(*a, **k))
    cert = chain_certificate(inst.body, inst.circle)
    # each side built runs two minimisations: the prism and the far half
    assert len(calls) == 2 * built
    assert cert.side == side and cert.holds == want.holds
    assert cert.values == want.values and cert.checks == want.checks
    assert np.array_equal(cert.contacts3, want.contacts3)


def test_chain_needs_a_blocking_slice():
    with pytest.raises(NoBlockingSlice):
        chain_certificate(CUBE, Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1)),
                          theta_samples=90)


def test_extremality_of_octahedron_waist():
    inst = octahedron_iceberg(1.2, 10.0)
    cert = chain_certificate(inst.body, inst.circle, theta_samples=240)
    diag = extremality_diagnostics(inst.body, inst.circle, chain=cert)
    # the waist region of this spindle is an exact equilateral triangle
    assert diag.hausdorff < 1e-9
    assert diag.slacks["region_vs_diameter_bound"] == pytest.approx(0.0, abs=1e-9)
    assert diag.slacks["width_vs_far_half"] > 0.0
