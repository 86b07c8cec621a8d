"""The section profile (:mod:`circlehold.sections`): sections against
their references, the exact waists and blocking maxima, and one profile
per pose in the certificates that read it."""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from profile_reference import (inward_intervals, sampled_grid,
                               sampled_side_max, sampled_waists,
                               unpruned_smallest)

from circlehold import (
    Circle3,
    bevelled_cylinder,
    build_hull,
    chain_certificate,
    escape_search,
    extremality_diagnostics,
    flat_tetrahedron,
    holding_report,
    min_holding_circle,
    octahedron_iceberg,
    skew_tetrahedron,
    translation_block_certificate,
    wd_tetrahedron,
)
from circlehold import families, holding, sections
from circlehold.planar import golden_refine, min_enclosing_circle
from circlehold.polytope import plane_frame
from circlehold.sections import _SliceScanner
from circlehold.tolerances import TOL_OPT

CUBE = build_hull(np.array([
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
], dtype=float))


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
                c, w = sc.circum(t), min_enclosing_circle(want)
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
        exact = [d for d, _ in sections._waists(sc, -np.inf)]
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
        sections._waists(sc, TOL_OPT)
        full_calls += diam_calls[0]
        diam_calls[0] = 0
        pruned = sections._waists(sc, TOL_OPT, smallest=True)
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
                got = sections._convex_min(sc.diam, samples, 1e-13 * sc.scale)
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
        every = sections._waists(sc, -np.inf)
        kept = [m for m in every if blockable(*m)]
        assert sections._waists(sc, TOL_OPT) == kept
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


# --- one profile per pose ----------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Records ``(id(body), axis, origin)`` of every profile built outside
    the polish objective of :func:`min_holding_circle`, whose Nelder-Mead
    steps may revisit an axis, and counts ``_edge_pair_distances`` calls."""
    log = SimpleNamespace(keys=[], pairs=0, polishing=False)
    init, polish = _SliceScanner.__init__, holding._polish_axis
    pairs = holding._edge_pair_distances

    def counted_init(self, K, axis, origin=None):
        if not log.polishing:
            o = np.zeros(3) if origin is None else np.asarray(origin, float)
            log.keys.append((id(K), np.asarray(axis, float).tobytes(),
                             o.tobytes()))
        init(self, K, axis, origin)

    def unlogged_polish(f, *args):
        def objective(axis):
            log.polishing = True
            try:
                return f(axis)
            finally:
                log.polishing = False
        return polish(objective, *args)

    def counted_pairs(K):
        log.pairs += 1
        return pairs(K)
    monkeypatch.setattr(_SliceScanner, "__init__", counted_init)
    monkeypatch.setattr(holding, "_polish_axis", unlogged_polish)
    monkeypatch.setattr(holding, "_edge_pair_distances", counted_pairs)
    return log


def test_no_pose_builds_its_profile_twice(builds):
    def run(f, *args):
        builds.keys, builds.pairs = [], 0
        f(*args)
        assert builds.keys and len(set(builds.keys)) == len(builds.keys)
        return len(builds.keys)

    bev = bevelled_cylinder(10.0, 64)
    assert run(holding_report, bev.body, bev.circle) == 1
    # a loose circle: no blocking section, so the escape search runs too
    oct10 = octahedron_iceberg(1.2, 10.0)
    C = oct10.circle
    loose = Circle3(C.center, 1.5 * C.diameter, C.normal)
    rep = holding_report(oct10.body, loose)
    assert not (rep.blocked_above and rep.blocked_below) and rep.escape.found
    # the gates profile the start; validation, each later pose of the path
    assert run(holding_report, oct10.body, loose) == len(rep.escape.path)
    # an escape that succeeds: the start is checked once, then every later
    # pose of the path once
    ring = Circle3((0.5, 0.5, 0.5), 1.8, (0.0, 0.0, 1.0))
    esc = escape_search(CUBE, ring, budget=20_000)
    assert esc.found and len(esc.path) > 2
    assert run(escape_search, CUBE, ring, 20_000) == len(esc.path)
    spindle = octahedron_iceberg(1.01, 200.0)
    assert run(chain_certificate, spindle.body, spindle.circle) == 1
    assert run(extremality_diagnostics, spindle.body, spindle.circle) == 1
    for inst in (oct10, flat_tetrahedron(0.2), wd_tetrahedron(2.0, 2.0, 1.0)):
        run(min_holding_circle, inst.body)
        assert builds.pairs == 1
