import tracemalloc
from functools import cache

import numpy as np
import pytest
import width_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_cases import oracle_agreement_cases
from scipy.spatial import ConvexHull

from circlehold import (
    FAMILIES,
    DegenerateInput,
    HalfSpace,
    InvalidInput,
    Polytope3,
    bevelled_cylinder,
    build_hull,
    clip_halfspace,
    five_vertex_flat,
    flat_tetrahedron,
    min_cylinder,
    min_enclosing_circle,
    octahedron_iceberg,
    plane_frame,
    point_location,
    segment_distance,
    skew_tetrahedron,
    slice_plane,
    wd_tetrahedron,
    width3,
)

CUBE = np.array([
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
], dtype=float)


def unit_tetrahedron():
    # regular tetrahedron with unit edges
    s = 1.0 / np.sqrt(8.0)
    return build_hull(s * np.array([
        [1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
    ], dtype=float))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def test_hull_of_cube():
    K = build_hull(np.vstack([CUBE, [[0.5, 0.5, 0.5]]]))
    assert len(K.vertices) == 8
    assert len(K.faces) == 6
    normals, offsets = K.face_planes()
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    # interior point strictly inside every face plane
    assert np.all(normals @ np.full(3, 0.5) < offsets)


def _merge_coplanar_by_np_cross(points, hull, angle_tol=1e-7):
    """Facet cycles from one ``np.cross`` per triangle pair, triangle and
    cycle vertex: the reference for the batched merge in ``build_hull``."""
    from circlehold.polytope import _chain_cycle
    eq = hull.equations
    simplices = hull.simplices
    nf = len(simplices)
    scale = max(1.0, float(np.abs(points).max()))
    edge_owner = {}
    for fi, tri in enumerate(simplices):
        for i in range(3):
            e = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
            edge_owner.setdefault(e, []).append(fi)

    def coplanar(i, j):
        if np.linalg.norm(np.cross(eq[i, :3], eq[j, :3])) > angle_tol:
            return False
        return abs(eq[i, 3] - eq[j, 3]) <= 1e-7 * scale

    group = [-1] * nf
    g = 0
    for fi in range(nf):
        if group[fi] != -1:
            continue
        stack = [fi]
        group[fi] = g
        while stack:
            cur = stack.pop()
            for i in range(3):
                tri = simplices[cur]
                e = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
                for nb in edge_owner[e]:
                    if group[nb] == -1 and coplanar(cur, nb):
                        group[nb] = g
                        stack.append(nb)
        g += 1
    faces = []
    for gi in range(g):
        tris = [simplices[i] for i in range(nf) if group[i] == gi]
        nrm = eq[[i for i in range(nf) if group[i] == gi][0], :3]
        count, directed = {}, []
        for tri in tris:
            a, b, c = points[tri[0]], points[tri[1]], points[tri[2]]
            if np.cross(b - a, c - a) @ nrm < 0:
                tri = tri[[0, 2, 1]]
            for i in range(3):
                de = (int(tri[i]), int(tri[(i + 1) % 3]))
                count[de] = count.get(de, 0) + 1
                directed.append(de)
        boundary = [de for de in directed
                    if count[de] == 1 and count.get((de[1], de[0]), 0) == 0]
        cyc = _chain_cycle(boundary)
        pts = points[cyc]
        m = len(cyc)
        keep = [cyc[i] for i in range(m)
                if np.linalg.norm(np.cross(pts[i] - pts[i - 1],
                                           pts[(i + 1) % m] - pts[i]))
                > 1e-9 * scale * scale]
        faces.append(keep if len(keep) >= 3 else cyc)
    return faces


def _hull_clouds():
    rng = np.random.default_rng(12)
    clouds = [rng.standard_normal((rng.integers(5, 16), 3)) for _ in range(60)]
    # lattice points: coplanar triangles to merge, collinear cycle vertices
    clouds += [rng.integers(0, 3, size=(rng.integers(8, 20), 3)).astype(float)
               for _ in range(40)]
    clouds += [CUBE, 1e-6 * CUBE, 1e6 * CUBE + 3.0]
    clouds += [inst.body.vertices for inst in (
        bevelled_cylinder(10.0, 64), octahedron_iceberg(1.2, 10.0),
        flat_tetrahedron(0.2))]
    return clouds


def test_merge_coplanar_matches_np_cross_formulation():
    from circlehold.polytope import _merge_coplanar
    merged = 0
    clouds = _hull_clouds() + [c for c, _, _ in oracle_agreement_cases(7)]
    for cloud in clouds:
        pts = np.unique(cloud, axis=0)
        if len(pts) < 4 or np.linalg.matrix_rank(pts - pts.mean(axis=0)) < 3:
            continue
        hull = ConvexHull(pts)
        faces = _merge_coplanar(pts, hull)
        want = _merge_coplanar_by_np_cross(pts, hull)
        assert faces == want
        merged += len(faces) < len(hull.simplices)
        K = build_hull(cloud)
        used = sorted({i for f in want for i in f})
        remap = {old: new for new, old in enumerate(used)}
        assert K.vertices.tobytes() == pts[used].tobytes()
        assert K.faces == [[remap[i] for i in f] for f in want]
        n, b = K.face_planes()
        n_ref, b_ref = _face_planes_by_numpy_newell(K)
        assert n.tobytes() == n_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()
    assert merged >= 30


def _face_planes_by_numpy_newell(K):
    """Newell normals accumulated in a numpy array, then the same offsets
    and orientation: the face planes before the float sums, kept as their
    reference."""
    normals, offsets = [], []
    centroid = K.vertices.mean(axis=0)
    for f in K.faces:
        pts = K.vertices[f]
        nrm = np.zeros(3)
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            nrm[0] += (a[1] - b[1]) * (a[2] + b[2])
            nrm[1] += (a[2] - b[2]) * (a[0] + b[0])
            nrm[2] += (a[0] - b[0]) * (a[1] + b[1])
        nrm = nrm / np.linalg.norm(nrm)
        off = float(nrm @ pts.mean(axis=0))
        if nrm @ centroid > off:
            nrm, off = -nrm, -off
        normals.append(nrm)
        offsets.append(off)
    return np.array(normals), np.array(offsets)


def test_face_planes_match_numpy_newell_sums():
    rng = np.random.default_rng(31)
    bodies = [build_hull(c) for c in _hull_clouds()]
    bodies += [build_hull(rng.standard_normal((int(rng.integers(8, 15)), 3)))
               for _ in range(300)]
    bodies += [inst.body for inst in (
        octahedron_iceberg(1.01, 200.0), octahedron_iceberg(1.38, 5.0),
        skew_tetrahedron(0.1), wd_tetrahedron(2.0, 2.0, 1.0),
        five_vertex_flat(0.2))]
    for K in bodies:
        n, b = K.face_planes()
        n_ref, b_ref = _face_planes_by_numpy_newell(K)
        assert n.tobytes() == n_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()


def test_hull_rejects_flat_input():
    with pytest.raises(DegenerateInput):
        build_hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float))


def test_width_of_cube_and_tetrahedron():
    assert width3(build_hull(CUBE)).width == pytest.approx(1.0, abs=1e-9)
    # the width of a unit-edge regular tetrahedron is 1/sqrt(2)
    assert width3(unit_tetrahedron()).width == pytest.approx(
        np.sqrt(2.0) / 2.0, abs=1e-9)


def test_width_rotation_invariant():
    rng = np.random.default_rng(12)
    K = unit_tetrahedron()
    w0 = width3(K).width
    for _ in range(20):
        R = random_rotation(rng)
        w = width3(build_hull(K.vertices @ R.T)).width
        assert w == pytest.approx(w0, abs=1e-7)


def test_width_result_is_a_certificate():
    K = build_hull(CUBE)
    res = width3(K)
    u = np.asarray(res.direction)
    assert K.breadth(u) == pytest.approx(res.width, abs=1e-9)


#: one instance of every named family, for the width tests
FAMILY_ARGS = {
    "octahedron-iceberg": (1.2, 10.0),
    "seven-vertex": (1.2, 10.0),
    "rectangle-circle": (1.38, 5.0),
    "flat-tetra": (0.2,),
    "five-vertex-flat": (0.2,),
    "skew-tetra": (0.1,),
    "bevelled-cylinder": (10.0, 16),
    "wd-tetra": (1.0, 2.0, 0.5),
    "simplex-hull": (3, 1.2, 10.0),
}


@cache
def family_body(name):
    body = FAMILIES[name][0](*FAMILY_ARGS[name]).body
    return body if isinstance(body, Polytope3) else build_hull(body.vertices)


@cache
def random_hull(seed):
    """A hull of 5-40 random points; odd seeds snap them to a coarse
    lattice, so edge directions repeat and widths tie."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((int(rng.integers(5, 41)), 3))
    pts *= rng.uniform(0.2, 3.0, 3)
    if seed % 2:
        pts = np.round(2.0 * pts) / 2.0
    try:
        return build_hull(pts)
    except (DegenerateInput, InvalidInput):
        return None


def _width_bodies():
    assert FAMILY_ARGS.keys() == FAMILIES.keys()
    yield from (family_body(name) for name in FAMILIES)
    yield bevelled_cylinder(10.0, 64).body
    hulls = [random_hull(seed) for seed in range(200)]
    assert sum(K is not None for K in hulls) >= 190
    yield from (K for K in hulls if K is not None)


def test_width3_matches_reference_loop():
    from circlehold.polytope import _candidate_width_directions
    for K in _width_bodies():
        cands = width_reference.candidate_width_directions(K)
        assert _candidate_width_directions(K).tobytes() == cands.tobytes()
        got = width3(K)
        want = width_reference.width_over(K.vertices, cands)
        assert got.width == want.width
        assert got.direction.tobytes() == want.direction.tobytes()
        assert (got.lower_vertex, got.upper_vertex) == (want.lower_vertex,
                                                        want.upper_vertex)


def test_width_directions_dedupe_greedily_in_edge_order():
    from circlehold.polytope import _candidate_width_directions

    class Body:
        # three edge directions 0.8e-12 apart in the xy-plane, and z: the
        # middle one is within 1e-12 of the first and is dropped; the third
        # is 1.6e-12 from the first and kept, so their cross, the z-axis,
        # is a candidate
        def face_planes(self):
            return np.array([[1.0, 0.0, 0.0]]), np.ones(1)

        def edge_segments(self):
            ang = np.array([0.0, 0.8e-12, 1.6e-12])
            ends = np.vstack([np.stack([np.cos(ang), np.sin(ang),
                                        np.zeros(3)], axis=1), [0, 0, 1]])
            return np.stack([np.zeros((4, 3)), ends], axis=1)

    got = _candidate_width_directions(Body())
    assert got.tobytes() == width_reference.candidate_width_directions(
        Body()).tobytes()
    assert [0.0, 0.0, 1.0] in got.tolist()


def test_width3_memory_is_bounded():
    K = bevelled_cylinder(10.0, 64).body
    width3(K)  # warm the face planes
    tracemalloc.start()
    try:
        width3(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(body=st.one_of(st.sampled_from(sorted(FAMILY_ARGS)),
                      st.integers(0, 10_000)),
       motion=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0))
def test_width3_is_invariant_under_motion_scaling_and_order(body, motion,
                                                            log_scale):
    K = family_body(body) if isinstance(body, str) else random_hull(body)
    if K is None:
        return
    rng = np.random.default_rng(motion)
    s = 10.0 ** log_scale
    R = random_rotation(rng)
    shift = rng.uniform(-5.0, 5.0, 3) * K.circumradius
    w0 = width3(K).width
    V = K.vertices[rng.permutation(len(K.vertices))]
    for pts, want in ((V @ R.T + shift, w0), (s * V, s * w0)):
        assert abs(width3(build_hull(pts)).width - want) <= 1e-12 * want


def test_min_cylinder_cube():
    res = min_cylinder(build_hull(CUBE))
    assert res.diameter == pytest.approx(np.sqrt(2.0), abs=1e-4)


def test_min_cylinder_long_box():
    verts = CUBE.copy()
    verts[:, 2] *= 10.0
    res = min_cylinder(build_hull(verts))
    assert res.diameter == pytest.approx(np.sqrt(2.0), abs=1e-4)
    # the optimal axis runs along the long direction
    assert abs(np.asarray(res.axis_direction)[2]) > 0.999


def _cylinder_radii(V, axes):
    """Cylinder radius for every row of ``axes``: the all-axes grid search
    that ``_best_grid_axes`` replaced, kept as its reference."""
    N = axes / np.linalg.norm(axes, axis=1)[:, None]
    k = np.argmin(np.abs(N), axis=1)
    E1 = -N[np.arange(len(N)), k][:, None] * N
    E1[np.arange(len(N)), k] += 1.0
    E1 /= np.linalg.norm(E1, axis=1)[:, None]
    E2 = np.cross(N, E1)
    radii = np.empty(len(N))
    for lo in range(0, len(N), 256):
        P = np.stack([E1[lo:lo + 256] @ V.T, E2[lo:lo + 256] @ V.T],
                     axis=2)  # (chunk, V, 2)
        for i, pts in enumerate(P):
            radii[lo + i] = min_enclosing_circle(pts, seed=1).radius
    return radii


def _best_grid_axes_by_all_radii(V, axes, keep, radii=None):
    radii = _cylinder_radii(V, axes) if radii is None else radii
    return [(float(radii[i]), int(i))
            for i in np.argsort(radii, kind="stable")[:keep]]


def test_batched_cylinder_radii_match_scalar_path():
    from circlehold.polytope import (_cylinder_radius_for_axis,
                                     _icosphere_directions)
    rng = np.random.default_rng(4)
    for K in (build_hull(CUBE), build_hull(3.0 * rng.standard_normal((40, 3)))):
        V = K.vertices
        axes = np.vstack([_icosphere_directions(3), np.eye(3),
                          rng.standard_normal((20, 3))])
        assert len(axes) > 256  # a full and a partial chunk
        batched = _cylinder_radii(V, axes)
        scalar = [_cylinder_radius_for_axis(V, a)[0] for a in axes]
        scale = max(1.0, float(np.abs(V).max()))
        assert np.allclose(batched, scalar, rtol=0, atol=1e-12 * scale)


def _cylinder_bodies():
    rng = np.random.default_rng(21)
    bodies = [build_hull(CUBE), bevelled_cylinder(10.0, 64).body,
              flat_tetrahedron(0.2).body, octahedron_iceberg(1.2, 10.0).body]
    for _ in range(20):
        stretch = rng.uniform(0.2, 4.0, size=3)
        pts = rng.standard_normal((int(rng.integers(6, 30)), 3)) * stretch
        bodies.append(build_hull(pts @ random_rotation(rng).T))
    return bodies


def test_bounded_axis_search_matches_all_axes():
    from circlehold.polytope import _best_grid_axes, _icosphere_directions
    for j, K in enumerate(_cylinder_bodies()):
        # the families on the full grid that min_cylinder uses by default
        axes = np.vstack([_icosphere_directions(5 if j < 4 else 3),
                          np.eye(3)])
        radii = _cylinder_radii(K.vertices, axes)
        for k in (1, 5):
            assert _best_grid_axes(K.vertices, axes, k) == \
                _best_grid_axes_by_all_radii(K.vertices, axes, k, radii)


@pytest.mark.parametrize("refine", [True, False])
def test_min_cylinder_matches_all_axes_search(refine, monkeypatch):
    from circlehold import polytope
    bodies = _cylinder_bodies()
    if refine:  # each of the five polishes costs hundreds of circles
        bodies = bodies[:4] + bodies[4::4]
    got = [min_cylinder(K, refine, grid_level=3) for K in bodies]
    monkeypatch.setattr(polytope, "_best_grid_axes",
                        _best_grid_axes_by_all_radii)
    want = [min_cylinder(K, refine, grid_level=3) for K in bodies]
    for g, w in zip(got, want):
        assert g.diameter == w.diameter
        assert g.axis_direction.tobytes() == w.axis_direction.tobytes()


def _min_cylinder_every_start(K):
    """``min_cylinder`` polishing all five best grid axes, repeated ones
    included: the loop that skipping repeated starts replaced."""
    from circlehold.polytope import (CylinderResult, _best_grid_axes,
                                     _cylinder_radius_for_axis,
                                     _icosphere_directions, _unit, minimize)
    V = K.vertices
    segs = K.edge_segments()
    ed = segs[:, 1] - segs[:, 0]
    ed /= np.linalg.norm(ed, axis=1)[:, None]
    cands = np.vstack([_icosphere_directions(5), K.face_planes()[0], ed,
                       np.eye(3)])
    cands[cands[:, 2] < 0] *= -1

    def spherical(a):
        return np.array([np.sin(a[0]) * np.cos(a[1]),
                         np.sin(a[0]) * np.sin(a[1]), np.cos(a[0])])

    best = _best_grid_axes(V, cands, 5)
    best_r, best_axis = best[0][0], cands[best[0][1]]
    for _, idx in best:
        a0 = cands[idx]
        x0 = [float(np.arccos(np.clip(a0[2], -1, 1))),
              float(np.arctan2(a0[1], a0[0]))]
        res = minimize(lambda x: _cylinder_radius_for_axis(V, spherical(x))[0],
                       np.array(x0), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13,
                                "maxiter": 400})
        if res.fun < best_r:
            best_r, best_axis = float(res.fun), spherical(res.x)
    best_axis = _unit(best_axis)
    r, circ = _cylinder_radius_for_axis(V, best_axis)
    e1, e2, _ = plane_frame(best_axis)
    return CylinderResult(2.0 * r, circ.center[0] * e1 + circ.center[1] * e2,
                          best_axis)


def test_min_cylinder_polishes_each_start_once(monkeypatch):
    from circlehold import polytope
    bodies = [*_cylinder_bodies(), skew_tetrahedron(0.1).body,
              wd_tetrahedron(2.0, 2.0, 1.0).body]
    want = [repr(_min_cylinder_every_start(K)) for K in bodies]
    runs = []
    minimize = polytope.minimize
    monkeypatch.setattr(polytope, "minimize", lambda f, x0, **kw:
                        runs.append(1) or minimize(f, x0, **kw))
    got = []
    for K in bodies:
        runs.clear()
        got.append(repr(min_cylinder(K)))
        assert 1 <= len(runs) <= 5
        if K is bodies[1]:      # the bevelled cylinder: 4 of 5 starts repeat
            assert len(runs) == 2
    assert got == want


def test_icosphere_directions_are_cached_read_only():
    from circlehold.polytope import _icosphere_directions
    dirs = _icosphere_directions(3)
    assert _icosphere_directions(3) is dirs
    assert not dirs.flags.writeable
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def _icosphere_by_midpoint_cache(level):
    """The icosphere directions built one triangle and one midpoint at a
    time, with a dictionary of edge midpoints, as before the index-array
    construction."""
    from scipy.spatial import ConvexHull
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            verts += [(0.0, s1, s2 * phi), (s1, s2 * phi, 0.0),
                      (s2 * phi, 0.0, s1)]
    verts = np.array(verts)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    tris = [tuple(t) for t in ConvexHull(verts).simplices]
    cache = {}
    pts = list(verts)

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = pts[i] + pts[j]
            pts.append(m / np.linalg.norm(m))
            cache[key] = len(pts) - 1
        return cache[key]

    for _ in range(level):
        new = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        tris = new
    dirs = np.array(pts)
    return dirs[dirs[:, 2] > -1e-12]


@pytest.mark.parametrize("level", range(6))
def test_icosphere_matches_midpoint_cache_construction(level):
    from circlehold.polytope import _icosphere_directions
    want = _icosphere_by_midpoint_cache(level)
    got = _icosphere_directions(level)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _plane_frame_by_np_cross(normal):
    n = np.asarray(normal, float)
    n = n / np.linalg.norm(n)
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    e1 = e - n[k] * n
    e1 = e1 / np.linalg.norm(e1)
    return e1, np.cross(n, e1), n


def test_plane_frame_matches_np_cross_construction():
    rng = np.random.default_rng(9)
    normals = [s * v for v in np.vstack([np.eye(3), -np.eye(3)])
               for s in (1.0, 1e-6, 1e6)]
    for _ in range(300):
        v = rng.standard_normal(3)
        v[rng.random(3) < 0.3] = 0.0  # zero components, some signed
        v[rng.random(3) < 0.1] = -0.0
        if not v.any():
            continue
        normals += [v, 1e-6 * v, 1e6 * v, np.round(v)]
    normals += [(1.0, 1.0, 1.0), (0.0, -0.0, 2.0), (-0.0, 3.0, 0.0), [1, 2, 2]]
    checked = 0
    for v in normals:
        if not np.any(v):
            continue
        got, want = plane_frame(v), _plane_frame_by_np_cross(v)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        checked += 1
    assert checked > 1000
    with pytest.raises(InvalidInput):
        plane_frame((0.0, 0.0, 0.0))
    with pytest.raises(InvalidInput):
        plane_frame((-0.0, 0.0, -0.0))


def test_point_location():
    K = build_hull(CUBE)
    assert point_location(K, (0.5, 0.5, 0.5)) == "interior"
    assert point_location(K, (1.0, 0.5, 0.5)) == "boundary"
    assert point_location(K, (2.0, 0.0, 0.0)) == "exterior"


def test_contains_agrees_with_location():
    rng = np.random.default_rng(13)
    K = build_hull(CUBE)
    pts = rng.uniform(-0.5, 1.5, size=(500, 3))
    for p in pts:
        inside = bool(np.all((p >= 0) & (p <= 1)))
        assert K.contains(p) == inside


def test_clip_halfspace_cube():
    K = build_hull(CUBE)
    out = clip_halfspace(K, HalfSpace((1.0, 0.0, 0.0), 0.5))
    assert out.vertices[:, 0].max() <= 0.5 + 1e-12
    assert len(out.vertices) == 8


def test_clip_through_vertex():
    out = clip_halfspace(unit_tetrahedron(), HalfSpace((0.0, 0.0, 1.0), 0.0))
    assert out.vertices[:, 2].max() <= 1e-9


def test_slice_cube():
    sec = slice_plane(build_hull(CUBE), (0.0, 0.0, 1.0), 0.5)
    assert sec.kind == "polygon"
    assert len(sec.points2) == 4
    c = sec.circumcircle()
    assert c.radius == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)


def test_slice_misses_body():
    sec = slice_plane(build_hull(CUBE), (0.0, 0.0, 1.0), 2.0)
    assert sec.kind == "empty"


def test_segment_distance_cases():
    # crossing segments
    assert segment_distance((0, 0, 0), (1, 0, 0), (0.5, -1, 0), (0.5, 1, 0)) == 0.0
    # parallel offset
    assert segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)) == \
        pytest.approx(np.sqrt(2.0))
    # skew: closest at an endpoint
    assert segment_distance((0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 0, 1)) == \
        pytest.approx(np.sqrt(2.0))


def test_transformed_preserves_breadth():
    rng = np.random.default_rng(14)
    K = build_hull(CUBE)
    R = random_rotation(rng)
    t = rng.standard_normal(3)
    K2 = K.transformed(R, t)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    assert K2.breadth(R @ u) == pytest.approx(K.breadth(u), abs=1e-9)
