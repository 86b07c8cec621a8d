from itertools import combinations

import numpy as np
import pytest

from circlehold import (
    DegenerateInput,
    InvalidInput,
    Polygon2,
    best_fit_equilateral,
    breadth2,
    chebyshev_inscribed,
    circle_support_points,
    clip_halfplane_2d,
    convex_hull_2d,
    equilateral_triangle,
    hausdorff_distance,
    horizontal_width,
    min_enclosing_circle,
    point_polygon_distance,
    random_axis_crossing_polygon,
    random_convex_polygon,
    split_width_identities,
    width2,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_hull_drops_interior_points():
    pts = np.vstack([SQUARE, [[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]])
    hull = convex_hull_2d(pts)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == set(map(tuple, SQUARE))


def test_collinear_points_are_degenerate():
    # the raw hull collapses to a segment; polygon construction refuses it
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert len(convex_hull_2d(pts)) == 2
    with pytest.raises(DegenerateInput):
        Polygon2.from_points(pts)


def test_width_of_square_and_triangle():
    w, u = width2(Polygon2.from_points(SQUARE))
    assert w == pytest.approx(1.0, abs=1e-12)
    tri = equilateral_triangle(3.0)
    w, _ = width2(tri)
    # the width of an equilateral triangle is its height
    assert w == pytest.approx(3.0, abs=1e-9)


def test_breadth_matches_support_gap():
    P = Polygon2.from_points(SQUARE)
    assert breadth2(P, (1.0, 0.0)) == pytest.approx(1.0)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert breadth2(P, d) == pytest.approx(np.sqrt(2.0))


# --- horizontal width -------------------------------------------------------

def test_horizontal_width_thin_triangle():
    # sheared triangle: the minimizing strip is not axis-aligned
    P = Polygon2.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 1.0]]))
    w, strip = horizontal_width(P)
    assert w == pytest.approx(1.0, abs=1e-12)


def test_horizontal_width_parallelogram():
    P = Polygon2.from_points(np.array([[0.0, 0.0], [1.0, 0.0],
                                       [3.0, 1.0], [2.0, 1.0]]))
    w, strip = horizontal_width(P)
    assert w == pytest.approx(1.0, abs=1e-12)
    assert strip.slope == pytest.approx(2.0, abs=1e-9)


def test_horizontal_width_shear_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        P = random_convex_polygon(rng)
        w0, _ = horizontal_width(P)
        lam = rng.uniform(-3.0, 3.0)
        sheared = P.vertices.copy()
        sheared[:, 0] += lam * sheared[:, 1]
        w1, _ = horizontal_width(Polygon2.from_points(sheared))
        assert w1 == pytest.approx(w0, rel=1e-9, abs=1e-12)


def test_horizontal_width_dominates_ordinary_width():
    rng = np.random.default_rng(4)
    for _ in range(200):
        P = random_convex_polygon(rng)
        wh, _ = horizontal_width(P)
        w, _ = width2(P)
        assert wh >= w - 1e-12


# --- split identities -------------------------------------------------------

def test_split_identities_triangle():
    P = Polygon2.from_points(np.array([[0.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    sw = split_width_identities(P, 0.0)
    assert sw.upper == pytest.approx(1.0, abs=1e-12)
    assert sw.lower == pytest.approx(2.0, abs=1e-12)
    assert sw.chord == pytest.approx(1.0, abs=1e-12)
    assert sw.union == pytest.approx(2.0, abs=1e-12)
    assert sw.residual_min < 1e-12 and sw.residual_max < 1e-12


def test_split_identities_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        P = random_axis_crossing_polygon(rng)
        sw = split_width_identities(P, 0.0)
        assert sw.residual_min < 1e-9
        assert sw.residual_max < 1e-9


# --- enclosing / inscribed circles -----------------------------------------

def test_min_enclosing_circle_known():
    c = min_enclosing_circle(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
    assert c.center == pytest.approx((1.0, 0.0), abs=1e-9)
    assert c.radius == pytest.approx(1.0, abs=1e-9)


def test_min_enclosing_circle_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pts = rng.standard_normal((int(rng.integers(3, 40)), 2))
        c = min_enclosing_circle(pts)
        d = np.linalg.norm(pts - np.asarray(c.center), axis=1)
        assert d.max() <= c.radius + 1e-9
        # minimality: at least two points on the boundary
        assert len(circle_support_points(c, pts)) >= 2


def _brute_force_circle(pts):
    """Smallest of all 2-point and 3-point candidate circles containing every
    point.  The support points of that circle are hull vertices, so for
    larger sets the candidates are drawn from the hull only."""
    P = np.unique(pts, axis=0)
    if len(P) == 1:
        return P[0], 0.0
    S = P if len(P) <= 30 else convex_hull_2d(P)
    pairs = np.array(list(combinations(range(len(S)), 2)))
    centers = [(S[pairs[:, 0]] + S[pairs[:, 1]]) / 2.0]
    radii = [np.linalg.norm(S[pairs[:, 0]] - S[pairs[:, 1]], axis=1) / 2.0]
    if len(S) >= 3:
        a, b, c = (S[list(t)] for t in zip(*combinations(range(len(S)), 3)))
        b, c = b - a, c - a
        d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        ok = np.abs(d) > 1e-9 * np.einsum("ij,ij->i", b, b)
        bb = np.einsum("ij,ij->i", b, b)[ok]
        cc = np.einsum("ij,ij->i", c, c)[ok]
        b, c, d = b[ok], c[ok], d[ok]
        u = np.stack([(c[:, 1] * bb - b[:, 1] * cc) / d,
                      (b[:, 0] * cc - c[:, 0] * bb) / d], axis=1)
        centers.append(a[ok] + u)
        radii.append(np.linalg.norm(u, axis=1))
    centers, radii = np.vstack(centers), np.concatenate(radii)
    reach = np.linalg.norm(P[None] - centers[:, None], axis=2).max(axis=1)
    scale = max(1.0, float(np.abs(P).max()))
    ok = reach <= radii + 1e-9 * scale
    k = np.flatnonzero(ok)[np.argmin(radii[ok])]
    return centers[k], float(radii[k])


def _oracle_cases():
    rng = np.random.default_rng(21)
    cases = [np.array([[0.3, -0.7]]),                     # single point
             np.array([[1.0, 2.0]] * 5),                  # one point, repeated
             np.linspace([0.0, 0.0], [3.0, 1.0], 7),      # collinear
             rng.permutation(np.linspace([-1.0, 2.0], [4.0, -3.0], 12))]
    for _ in range(40):
        cases.append(rng.standard_normal((int(rng.integers(1, 201)), 2)))
    for _ in range(10):  # duplicated points
        base = rng.random((int(rng.integers(2, 12)), 2))
        cases.append(base[rng.integers(0, len(base), 3 * len(base))])
    cases += [c * f for c in cases[4:14] for f in (1e-6, 1e6)]
    return cases


def test_min_enclosing_circle_matches_brute_force():
    for pts in _oracle_cases():
        c = min_enclosing_circle(pts)
        center, radius = _brute_force_circle(pts)
        scale = max(1.0, float(np.abs(pts).max()))
        assert abs(c.radius - radius) <= 1e-11 * scale
        assert np.allclose(c.center, center, rtol=0, atol=1e-9 * scale)
        reach = np.linalg.norm(pts - np.asarray(c.center), axis=1).max()
        assert reach <= c.radius + 1e-11 * scale


def test_min_enclosing_circle_same_for_every_seed():
    for pts in _oracle_cases():
        c1 = min_enclosing_circle(pts, seed=1)
        scale = max(1.0, float(np.abs(pts).max()))
        for seed in (0, 2, 7, 12345):
            c = min_enclosing_circle(pts, seed=seed)
            assert abs(c.radius - c1.radius) <= 1e-11 * scale
            assert np.allclose(c.center, c1.center, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("bad", [[], np.empty((0, 2)), [[0.0, np.nan]],
                                 [[np.inf, 1.0], [0.0, 0.0]]])
def test_min_enclosing_circle_rejects_bad_input(bad):
    with pytest.raises(InvalidInput):
        min_enclosing_circle(bad)


def test_slice_circle_equals_circle_of_hull():
    from circlehold import families
    from circlehold.holding import _SliceScanner
    bodies = [families.octahedron_iceberg(1.2, 10).body,
              families.bevelled_cylinder(10, 16).body,
              families.skew_tetrahedron(0.1).body,
              families.wd_tetrahedron(2.0, 2.0, 1.0).body]
    axes = np.vstack([np.eye(3)[[2, 0]],
                      np.random.default_rng(3).standard_normal((3, 3))])
    for K in bodies:
        scale = max(1.0, float(np.abs(K.vertices).max()))
        for axis in axes:
            sc = _SliceScanner(K, axis)
            for t in np.linspace(sc.h_min, sc.h_max, 23):
                P = sc.points2(t)
                old = min_enclosing_circle(convex_hull_2d(P), seed=1)
                assert abs(sc.circum(t).radius - old.radius) <= 1e-12 * scale


def _chebyshev_by_linprog(P):
    """Inscribed radius as the linear program ``max r  s.t.  n_i . c + r
    <= b_i``, polished over near-active edge triples: the formulation the
    wavefront replaced, kept as its reference."""
    from scipy.optimize import linprog
    n, b = P.edge_lines()
    m = len(b)
    A = np.column_stack([n, np.ones(m)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.success

    def true_radius(center):
        return float(np.min(b - n @ center))

    best_r = true_radius(res.x[:2])
    slack = b - n @ res.x[:2] - best_r
    active = np.flatnonzero(slack <= 1e-6 * max(1.0, abs(best_r)))
    for trip in combinations(active.tolist(), 3):
        try:
            sol = np.linalg.solve(A[list(trip)], b[list(trip)])
        except np.linalg.LinAlgError:
            continue
        best_r = max(best_r, true_radius(sol[:2]))
    return best_r


def _inscribed_shapes():
    shapes = []
    for k in range(3, 25):  # every edge vanishes at once
        a = 2.0 * np.pi * np.arange(k) / k + 0.3
        shapes.append(np.stack([np.cos(a), np.sin(a)], axis=1))
    for w, h in [(1.0, 1.0), (2.0, 1.0), (10.0, 1.0), (1e3, 1.0), (1.0, 1e-3)]:
        shapes.append([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])  # strips
    shapes += [[[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]],
               [[0.0, 0.0], [4.0, 1.0], [-1.0, 2.0]],
               [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-7]]]  # a sliver
    return [np.asarray(s, float) for s in shapes]


def test_chebyshev_matches_linprog_formulation():
    rng = np.random.default_rng(17)
    randoms = [random_convex_polygon(rng).vertices for _ in range(1000)]
    cases = [(v, 1.0) for v in randoms[20:]]
    cases += [(v, s) for v in _inscribed_shapes() + randoms[:20]
              for s in (1.0, 1e-6, 1e6)]
    for verts, scale in cases:
        P = Polygon2(scale * verts + 0.25 * scale, validate=False)
        r = chebyshev_inscribed(P).radius
        tol = 1e-12 * max(1.0, float(np.abs(P.vertices).max()))
        assert abs(r - _chebyshev_by_linprog(P)) <= tol


@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-14, 1e-12, 1e-9, 1e-6])
def test_chebyshev_with_collinear_vertices(eps):
    x = np.array([0.0, 3.0, 6.0, 9.0])
    for verts in ([[0, 0], [1, -3 * eps], [2, -4 * eps], [3, -3 * eps],
                   [4, 0], [4, 1], [0, 1]],
                  np.vstack([np.stack([x, x / 3 - eps * x * (9 - x)], 1),
                             [[5, 7], [0, 4]]])):
        P = Polygon2(np.asarray(verts, float), validate=False)
        assert abs(chebyshev_inscribed(P).radius
                   - _chebyshev_by_linprog(P)) <= 1e-12 * 9
    # all vertices on one line: the segment's inscribed radius is 0
    for verts in ([[0, 0], [1, 0], [2, 0]], [[0, 0], [1, 1], [2, 2], [1, 1]]):
        P = Polygon2(np.asarray(verts, float), validate=False)
        assert chebyshev_inscribed(P).radius == _chebyshev_by_linprog(P) == 0.0


def test_horizontal_width_needs_no_hull():
    rng = np.random.default_rng(8)
    for _ in range(200):
        pts = rng.standard_normal((int(rng.integers(3, 40)), 2))
        pts *= rng.uniform(1e-3, 1e3, size=2)
        w_raw, _ = horizontal_width(pts)
        w_hull, _ = horizontal_width(convex_hull_2d(pts))
        assert abs(w_raw - w_hull) <= 1e-12 * max(1.0, float(np.abs(pts).max()))


def test_chebyshev_square():
    c = chebyshev_inscribed(Polygon2.from_points(SQUARE))
    assert c.radius == pytest.approx(0.5, abs=1e-9)
    assert c.center == pytest.approx((0.5, 0.5), abs=1e-9)


def test_chebyshev_equilateral():
    # inradius of an equilateral triangle is a third of its height
    c = chebyshev_inscribed(equilateral_triangle(3.0))
    assert c.radius == pytest.approx(1.0, abs=1e-9)


def test_width_at_most_three_inradii():
    rng = np.random.default_rng(6)
    for _ in range(300):
        P = random_convex_polygon(rng)
        w, _ = width2(P)
        r = chebyshev_inscribed(P).radius
        assert w <= 3.0 * r + 1e-9


# --- distances and fitting --------------------------------------------------

def test_point_polygon_distance():
    P = Polygon2.from_points(SQUARE)
    assert point_polygon_distance((0.5, 0.5), P) == 0.0
    assert point_polygon_distance((2.0, 0.5), P) == pytest.approx(1.0)
    assert point_polygon_distance((2.0, 2.0), P) == pytest.approx(np.sqrt(2.0))


def test_hausdorff_between_squares():
    Q = Polygon2.from_points(SQUARE + np.array([0.25, 0.0]))
    assert hausdorff_distance(Polygon2.from_points(SQUARE), Q) == \
        pytest.approx(0.25, abs=1e-9)


def test_best_fit_equilateral_recovers_exact():
    tri = equilateral_triangle(2.5, angle=0.7, center=(0.3, -0.2))
    fit, haus, theta, center = best_fit_equilateral(tri, height=2.5)
    assert haus < 1e-7


def test_clip_halfplane():
    out = clip_halfplane_2d(SQUARE, (1.0, 0.0), 0.5)
    assert out[:, 0].max() <= 0.5 + 1e-12
    assert out[:, 0].min() == pytest.approx(0.0)
    assert len(out) == 4
