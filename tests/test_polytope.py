import tracemalloc
from functools import cache

import hull_reference
import numpy as np
import pytest
import width_reference
from chain_reference import grid_golden_min
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_cases import oracle_agreement_cases
from planar_reference import projected_width
from scipy.spatial import ConvexHull

from circlehold import (
    FAMILIES,
    DegenerateInput,
    HalfSpace,
    InvalidInput,
    Polytope3,
    PolytopeND,
    bevelled_cylinder,
    build_hull,
    five_vertex_flat,
    flat_tetrahedron,
    min_cylinder,
    min_enclosing_circle,
    octahedron_iceberg,
    plane_frame,
    point_location,
    segment_distance,
    skew_tetrahedron,
    wd_tetrahedron,
    width3,
    width_nd,
)
from circlehold.holding import _SliceScanner
from circlehold.polytope import (_chain_cycle, _merge_coplanar,
                                 _min_shadow_width)

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


def _hull_clouds():
    rng = np.random.default_rng(12)
    clouds = [rng.standard_normal((rng.integers(5, 16), 3)) for _ in range(60)]
    # lattice points: coplanar triangles to merge, collinear cycle vertices
    clouds += [rng.integers(0, 3, size=(rng.integers(8, 20), 3)).astype(float)
               for _ in range(40)]
    clouds += [CUBE, 1e-6 * CUBE, 1e6 * CUBE + 3.0]
    clouds += [inst.body.vertices for inst in (
        bevelled_cylinder(10.0, 64), octahedron_iceberg(1.2, 10.0),
        flat_tetrahedron(0.2), flat_tetrahedron(1e-9),
        skew_tetrahedron(1e-8))]
    return clouds


def test_merge_coplanar_matches_np_cross_formulation():
    merged = 0
    clouds = _hull_clouds() + [c for c, _, _ in oracle_agreement_cases(7)]
    for cloud in clouds:
        pts = np.unique(cloud, axis=0)
        if len(pts) < 4 or np.linalg.matrix_rank(pts - pts.mean(axis=0)) < 3:
            continue
        hull = ConvexHull(pts)
        faces = _merge_coplanar(pts, hull)
        want = hull_reference.merge_coplanar_by_np_cross(pts, hull)
        assert faces == want
        merged += len(faces) < len(hull.simplices)
        K = build_hull(cloud)
        used = sorted({i for f in want for i in f})
        remap = {old: new for new, old in enumerate(used)}
        assert K.vertices.tobytes() == pts[used].tobytes()
        assert K.faces == [[remap[i] for i in f] for f in want]
        n, b = K.face_planes()
        n_ref, b_ref = hull_reference.face_planes_by_numpy_newell(K)
        assert n.tobytes() == n_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()
    assert merged >= 30


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
        n_ref, b_ref = hull_reference.face_planes_by_numpy_newell(K)
        assert n.tobytes() == n_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()


def _merged_or_error(merge, pts, hull):
    try:
        return merge(pts, hull)
    except DegenerateInput as exc:
        return str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cloud=st.integers(0, 2**32 - 1), motion=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0))
def test_merge_coplanar_matches_reference_on_moved_lattice_clouds(
        cloud, motion, log_scale):
    # lattice points have coplanar triangles and collinear boundary points;
    # a rotation, shift and scale leave them so only to rounding
    rng = np.random.default_rng(cloud)
    lattice = rng.integers(0, 3, size=(int(rng.integers(8, 20)), 3))
    try:
        K = build_hull(lattice.astype(float))
    except DegenerateInput:
        return
    rng = np.random.default_rng(motion)
    moved = 10.0 ** log_scale * (lattice @ random_rotation(rng).T
                                 + rng.uniform(-5.0, 5.0, 3))
    pts = np.unique(moved, axis=0)
    hull = ConvexHull(pts)
    assert (_merged_or_error(_merge_coplanar, pts, hull)
            == _merged_or_error(hull_reference.merge_coplanar_by_np_cross,
                                pts, hull))
    assert len(build_hull(moved).faces) == len(K.faces)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (0, 2), (1, 0), (2, 0)], "not a simple cycle"),
    ([(0, 1), (1, 2)], "does not close"),
    ([(0, 1), (1, 0), (2, 3), (3, 2)], "multiple loops"),
])
def test_chain_cycle_rejects_boundaries_that_are_not_one_cycle(edges,
                                                               message):
    with pytest.raises(DegenerateInput, match=message):
        _chain_cycle(edges)


@pytest.mark.parametrize("cloud", [
    np.vstack([CUBE, [[0.5, 0.5, 0.5], [0.5, 0.5, 0.0]]]),
    np.random.default_rng(8).standard_normal((12, 3)),
    bevelled_cylinder(10.0, 64).body.vertices,
    # a point on an edge is a vertex of the joggled hull, and its triangles
    # with the edge's ends are collinear on the original coordinates
    np.vstack([CUBE, [[0.5, 0.0, 0.0]]]),
    np.random.default_rng(4).integers(0, 3, (30, 3)).astype(float),
], ids=["cube-centres", "gaussian", "bevelled", "cube-edge-midpoint",
        "lattice"])
def test_build_hull_jitter_fallback_keeps_the_vertices(cloud, monkeypatch):
    want = build_hull(cloud)
    calls = []

    def fail_first(points, hull):
        calls.append(len(points))
        if len(calls) == 1:
            raise DegenerateInput("facet boundary is not a simple cycle")
        return _merge_coplanar(points, hull)

    monkeypatch.setattr("circlehold.polytope._merge_coplanar", fail_first)
    K = build_hull(cloud)
    assert len(calls) == 2
    K.validate()
    assert (sorted(map(tuple, K.vertices.tolist()))
            == sorted(map(tuple, want.vertices.tolist())))
    assert len(K.faces) == len(want.faces)


def test_hull_rejects_flat_input():
    with pytest.raises(DegenerateInput):
        build_hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float))


def _assert_hull_matches_reference(cloud):
    """``build_hull`` equals the construction with ``np.unique`` and
    ``matrix_rank`` bit for bit: vertices, faces and face planes, signs of
    zeros included.  Of rows equal up to the sign of a zero, the two may
    keep different ones, so there only the values must agree."""
    want = hull_reference.build_hull_by_np_unique(cloud)
    got = build_hull(cloud)
    signed_zero_twins = (len({r.tobytes() for r in cloud})
                         > len({r.tobytes() for r in cloud + 0.0}))
    assert got.faces == want.faces
    for a, b in ((got.vertices, want.vertices), *zip(got.face_planes(),
                                                     want.face_planes())):
        assert np.array_equal(a, b)
        assert signed_zero_twins or (np.signbit(a) == np.signbit(b)).all()


@pytest.mark.parametrize("seed", [7, 3, 11])
def test_build_hull_matches_reference_on_the_oracle_clouds(seed):
    for cloud, body, _ in oracle_agreement_cases(seed):
        assert body is not None
        _assert_hull_matches_reference(cloud)


@st.composite
def _clouds_with_twins(draw):
    """Gaussian clouds or integer grids, some rows repeated, some repeats
    with their zeros negated, in a drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 24))
    if draw(st.booleans()):
        # coplanar triangles to merge, collinear boundary points
        pts = rng.integers(-2, 3, (n, 3)) * draw(st.sampled_from([1.0, 0.1,
                                                                  1e3]))
    else:
        pts = rng.standard_normal((n, 3))
    twins = pts[rng.integers(0, n, draw(st.integers(0, 8)))]
    flip = rng.random(len(twins)) < 0.5
    twins[flip] = np.where(twins[flip] == 0.0, -0.0, twins[flip])
    pts = np.vstack([pts, twins])
    return pts[rng.permutation(len(pts))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cloud=_clouds_with_twins())
def test_build_hull_matches_reference_on_clouds_with_twins(cloud):
    try:
        hull_reference.build_hull_by_np_unique(cloud)
    except DegenerateInput as exc:
        with pytest.raises(DegenerateInput) as got:
            build_hull(cloud)
        assert str(got.value) == str(exc)
        return
    _assert_hull_matches_reference(cloud)


@pytest.mark.parametrize("cloud", [
    CUBE[:3], np.vstack([CUBE[:3], CUBE[:3]]), CUBE[[0, 1, 2, 4]],
    np.vstack([CUBE[[0, 1, 2, 4]], -0.0 * CUBE[[0, 1]]]),
    np.outer(np.arange(6.0), [1.0, 2.0, 3.0]),
    np.vstack([CUBE[[0, 1, 2, 4]], [[0.5, 0.5, 1e-12]]]),
    np.zeros((0, 3)),
], ids=["three", "three-twice", "square", "square-signed-zeros", "collinear",
        "square-and-a-hair", "empty"])
def test_build_hull_rejects_flat_input_as_before(cloud):
    with pytest.raises(DegenerateInput) as want:
        hull_reference.build_hull_by_np_unique(cloud)
    with pytest.raises(DegenerateInput) as got:
        build_hull(cloud)
    assert str(got.value) == str(want.value)


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
    proj = K.vertices @ u
    assert proj.max() - proj.min() == pytest.approx(res.width, abs=1e-9)


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
    # the difference body's facet normals are not the reference's edge-pair
    # crosses, so the widths agree to rounding, not bit for bit
    for K in _width_bodies():
        got = width3(K)
        want = width_reference.width_over(
            K.vertices, width_reference.candidate_width_directions(K))
        assert abs(got.width - want.width) <= 1e-13 * want.width
        # the returned direction attains the returned width
        proj = K.vertices @ got.direction
        for span in (proj[got.upper_vertex] - proj[got.lower_vertex],
                     proj.max() - proj.min()):
            assert abs(span - got.width) <= 1e-13 * got.width


SLIVERS = [(f, eps) for f in (flat_tetrahedron, five_vertex_flat,
                              skew_tetrahedron) for eps in (1e-8, 1e-9)]


@pytest.mark.parametrize("family,eps", SLIVERS,
                         ids=[f"{f.__name__}-{eps:g}" for f, eps in SLIVERS])
def test_slivers_build_and_have_their_width(family, eps):
    # a sliver's two sides are adjacent, antiparallel and at one offset:
    # they must not merge into one facet
    K = family(eps).body
    w = width3(K).width
    if family is flat_tetrahedron:
        want = 2.0 * eps / np.sqrt(1.0 + eps * eps)
        assert abs(w - want) <= 1e-12 * want
    assert abs(w - width_nd(PolytopeND(K.vertices))) <= 1e-12 * w


@pytest.mark.parametrize("name", sorted(FAMILY_ARGS))
def test_width_nd_is_width3_on_family_bodies(name):
    K = family_body(name)
    w = width3(K).width
    assert abs(width_nd(PolytopeND(K.vertices)) - w) <= 1e-13 * w


def test_width3_memory_is_bounded():
    # the 300-point sphere hull has about 900 edge directions, so about
    # 400,000 crosses, and 90,000 vertex differences
    pts = np.random.default_rng(0).standard_normal((300, 3))
    sphere = build_hull(pts / np.linalg.norm(pts, axis=1)[:, None])
    for K, bound in ((bevelled_cylinder(10.0, 64).body, 3e6), (sphere, 10e6)):
        width3(K)  # warm the face planes
        tracemalloc.start()
        try:
            width3(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


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


def _moved_copy(K, rng, log_scale=None):
    """The vertices of ``K`` rotated, shifted, scaled by ``10**log_scale``
    (drawn from -6 to 6 when not given) and renumbered, with the rotation,
    shift and scale."""
    R = random_rotation(rng)
    shift = rng.uniform(-5.0, 5.0, 3) * K.circumradius
    s = 10.0 ** (rng.uniform(-6.0, 6.0) if log_scale is None else log_scale)
    V = ((K.vertices @ R.T + shift) * s)[rng.permutation(len(K.vertices))]
    return V, R, shift, s


def _assert_same_hull(K, V, R, shift, s):
    """``build_hull(V)`` is ``K`` moved by ``s * (R x + shift)``: the same
    vertex and face counts, and every face plane on a moved face plane of
    ``K`` to 1e-9 relative to the body's scale."""
    H = build_hull(V)
    assert (len(H.vertices), len(H.faces)) == (len(K.vertices), len(K.faces))
    n0, b0 = K.face_planes()
    n_want = n0 @ R.T
    b_want = s * (b0 + n_want @ shift)
    n, b = H.face_planes()
    scale = float(np.abs(V).max())
    dn = np.abs(n[:, None, :] - n_want[None, :, :]).max(axis=2)
    db = np.abs(b[:, None] - b_want[None, :])
    assert ((dn <= 1e-9) & (db <= 1e-9 * scale)).any(axis=1).all()


#: (seed, draw) of the moved copies on which the merge's bend test, with its
#: scale floored at 1, dropped real corners of bodies about 1e-5 across
SMALL_BODY_DRAWS = [(89, 1), (91, 0), (187, 2), (209, 2), (381, 1), (411, 2),
                    (565, 0), (569, 0)]


@pytest.mark.parametrize("seed, draw", SMALL_BODY_DRAWS)
def test_build_hull_keeps_the_corners_of_small_bodies(seed, draw):
    K = random_hull(seed)
    rng = np.random.default_rng(10_000 + seed)
    for _ in range(draw + 1):
        moved = _moved_copy(K, rng)
    _assert_same_hull(K, *moved)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(body=st.one_of(st.sampled_from(sorted(FAMILY_ARGS)),
                      st.integers(0, 10_000)),
       motion=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0))
def test_build_hull_is_invariant_under_motion_scaling_and_order(body, motion,
                                                                log_scale):
    K = family_body(body) if isinstance(body, str) else random_hull(body)
    if K is None:
        return
    _assert_same_hull(K, *_moved_copy(K, np.random.default_rng(motion),
                                      log_scale))


def _grid_shadow_width(K, n):
    """The sampled minimum the chain used before: the shadow's horizontal
    width at 720 angles in the frame of ``n``, golden-refined.  It is at
    most every sample it takes."""
    pts = [(K.vertices @ ax).tolist() for ax in plane_frame(n)]
    return grid_golden_min(lambda th: projected_width(*pts, th), 720)[1]


def _assert_exact_shadow_min(K, n):
    got = _min_shadow_width(K.vertices, n)
    want = _grid_shadow_width(K, n)
    # at most every sample, up to the candidates' rounding to 14 decimals,
    # and no further below the sampled minimum than that
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("name", sorted(FAMILY_ARGS))
def test_min_shadow_width_matches_the_sampled_minimum_on_families(name):
    K = family_body(name)
    rng = np.random.default_rng(3)
    for _ in range(3):
        R = random_rotation(rng)
        _assert_exact_shadow_min(build_hull(K.vertices @ R.T), R[:, 2])


def test_min_shadow_width_matches_the_sampled_minimum_on_random_hulls():
    rng = np.random.default_rng(5)
    hulls = [K for K in map(random_hull, range(24)) if K is not None]
    assert len(hulls) >= 20
    for K in hulls:
        n = rng.standard_normal(3)
        _assert_exact_shadow_min(K, n / np.linalg.norm(n))


def test_min_shadow_width_closed_forms():
    # the unit cube seen along z: every shadow is at least 1 wide
    assert _min_shadow_width(build_hull(CUBE).vertices,
                             np.array([0.0, 0.0, 1.0])) == 1.0
    # below its waist a spindle keeps its bottom triangle (circumradius 2),
    # whose breadth is at least its altitude 3 in every shadow; a strip
    # sheared along a side edge attains 3
    for a, h in ((1.01, 200.0), (1.2, 10.0), (1.38, 5.0)):
        inst = octahedron_iceberg(a, h)
        zc = inst.circle.center[2]
        far = hull_reference.clip_halfspace(
            inst.body, HalfSpace((0.0, 0.0, 1.0), zc))
        got = _min_shadow_width(far.vertices, np.array([0.0, 0.0, 1.0]))
        assert abs(got - 3.0) <= 1e-12 * 3.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(body=st.one_of(st.sampled_from(sorted(FAMILY_ARGS)),
                      st.integers(0, 10_000)),
       motion=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0))
def test_min_shadow_width_is_invariant_under_motion_scaling_and_order(
        body, motion, log_scale):
    K = family_body(body) if isinstance(body, str) else random_hull(body)
    if K is None:
        return
    rng = np.random.default_rng(motion)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    s = 10.0 ** log_scale
    R = random_rotation(rng)
    shift = rng.uniform(-5.0, 5.0, 3) * K.circumradius
    w0 = _min_shadow_width(K.vertices, n)
    # the same vertices renumbered, moved and scaled (not re-hulled: the
    # property is of the minimum, not of build_hull)
    V = K.vertices[rng.permutation(len(K.vertices))]
    for pts, m, want in ((V @ R.T + shift, R @ n, w0), (s * V, n, s * w0)):
        assert abs(_min_shadow_width(pts, m) - want) <= 1e-12 * want


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
            radii[lo + i] = min_enclosing_circle(pts).radius
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


def test_min_cylinder_contains_the_body():
    # the radius is the farthest projected vertex, not the enclosing
    # circle's, which counts points within 1e-12 * scale of it as inside
    bodies = [*_cylinder_bodies(), skew_tetrahedron(0.1).body,
              wd_tetrahedron(2.0, 2.0, 1.0).body]
    for K in bodies:
        res = min_cylinder(K)
        a = res.axis_direction
        rel = K.vertices - res.axis_point
        dist = np.linalg.norm(rel - np.outer(rel @ a, a), axis=1)
        assert dist.max() <= (1.0 + 1e-15) * res.diameter / 2.0


def test_min_cylinder_is_invariant_under_rigid_motion():
    # the cube, wd(2, 2, 1) and oct(1.2, 10) have several minimal axes
    # (3, 2 and 3), and a moved copy may find another of them: so the
    # moved cylinder, moved back, must be a minimal cylinder of the body
    # (same diameter, containing it), not the same axis line
    rng = np.random.default_rng(5)
    bodies = [build_hull(CUBE), flat_tetrahedron(0.2).body,
              octahedron_iceberg(1.2, 10.0).body, skew_tetrahedron(0.1).body,
              wd_tetrahedron(2.0, 2.0, 1.0).body]
    bodies += [build_hull(rng.standard_normal((int(rng.integers(5, 14)), 3)))
               for _ in range(4)]
    for K in bodies:
        d = min_cylinder(K).diameter
        for _ in range(2):
            R, shift = random_rotation(rng), rng.uniform(-5.0, 5.0, 3)
            res = min_cylinder(build_hull(K.vertices @ R.T + shift))
            assert abs(res.diameter - d) <= 1e-9 * d
            a = R.T @ res.axis_direction
            rel = K.vertices - R.T @ (res.axis_point - shift)
            dist = np.linalg.norm(rel - np.outer(rel @ a, a), axis=1)
            assert abs(dist.max() - d / 2.0) <= 1e-9 * d


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
        assert (point_location(K, p) != "exterior") == inside


def test_clip_halfspace_cube():
    K = build_hull(CUBE)
    out = hull_reference.clip_halfspace(K, HalfSpace((1.0, 0.0, 0.0), 0.5))
    assert out.vertices[:, 0].max() <= 0.5 + 1e-12
    assert len(out.vertices) == 8


def test_clip_through_vertex():
    out = hull_reference.clip_halfspace(unit_tetrahedron(),
                                        HalfSpace((0.0, 0.0, 1.0), 0.0))
    assert out.vertices[:, 2].max() <= 1e-9


def test_slice_cube():
    sc = _SliceScanner(build_hull(CUBE), (0.0, 0.0, 1.0))
    assert len(sc.points2(0.5)) == 4
    c = sc.circum(0.5)
    assert c.radius == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)


def test_slice_misses_body():
    sc = _SliceScanner(build_hull(CUBE), (0.0, 0.0, 1.0))
    assert len(sc.points2(2.0)) == 0
    assert sc.circum(2.0) is None


def test_segment_distance_cases():
    # crossing segments
    assert segment_distance((0, 0, 0), (1, 0, 0), (0.5, -1, 0), (0.5, 1, 0)) == 0.0
    # parallel offset
    assert segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)) == \
        pytest.approx(np.sqrt(2.0))
    # skew: closest at an endpoint
    assert segment_distance((0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 0, 1)) == \
        pytest.approx(np.sqrt(2.0))
