import numpy as np
import pytest
from chain_reference import grid_golden_min
from hull_reference import (build_hull_by_np_unique, clip_halfspace,
                            plane_cut_points)
from planar_reference import pairwise_width, qhull_hull

from circlehold import (
    HalfSpace,
    build_hull,
    families,
    five_vertex_flat,
    flat_tetrahedron,
    horizontal_width,
    iceberg_profile,
    octahedron_iceberg,
    polytope,
    split_project,
)
from circlehold.errors import DegenerateInput, InvalidInput
from circlehold.planar import projected_width
from circlehold.projection import _halves


def clipped_halves(K, level):
    """The upper and the lower part of ``K`` as two plane cuts, each hulled
    (``clip_halfspace``, which counts a vertex within ``TOL_GEOM * scale``
    of the plane as on it), in ``(x, y, z - level)``: the construction the
    profile's halves replaced, kept as their reference."""
    return tuple(clip_halfspace(K, HalfSpace(n, level * n[2])).vertices
                 - (0.0, 0.0, level)
                 for n in ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)))


CUBE = build_hull(np.array([
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
], dtype=float))


def test_halves_of_the_cube():
    upper, lower = _halves(CUBE, 0.5)
    # four vertices beyond the plane, then the four edge crossings in it
    assert len(upper) == len(lower) == 8
    assert sorted(upper[:, 2]) == [0.0] * 4 + [0.5] * 4
    assert sorted(lower[:, 2]) == [-0.5] * 4 + [0.0] * 4
    for level in (0.0, 1.0, 2.0):
        with pytest.raises(InvalidInput, match="does not cut"):
            iceberg_profile(CUBE, level=level)


def test_profile_and_projection_build_no_hull(monkeypatch):
    inst = octahedron_iceberg(1.38, 5.0)
    level = inst.circle.center[2]
    hulls = []
    inner = polytope.build_hull
    monkeypatch.setattr(polytope, "build_hull",
                        lambda pts: hulls.append(len(pts)) or inner(pts))
    iceberg_profile(inst.body, level=level)
    split_project(inst.body, 0.3, level)
    assert hulls == []


def test_split_project_cube():
    pair = split_project(CUBE, 0.0, 0.5)
    # both halves project to 1 x 0.5 rectangles
    assert horizontal_width(pair.upper)[0] == pytest.approx(1.0, abs=1e-9)
    assert horizontal_width(pair.lower)[0] == pytest.approx(1.0, abs=1e-9)
    # a turned shadow of the unit footprint spans cos(t) + sin(t)
    pair = split_project(CUBE, 0.3, 0.5)
    want = np.cos(0.3) + np.sin(0.3)
    assert horizontal_width(pair.upper)[0] == pytest.approx(want, abs=1e-9)


def test_profile_of_balanced_body_is_indeterminate():
    prof = iceberg_profile(CUBE, level=0.5)
    assert prof.orientation == "indeterminate"
    assert abs(prof.margin) < 1e-9


def test_profile_of_spindle():
    inst = octahedron_iceberg(1.38, 5.0)
    level = inst.circle.center[2]
    prof = iceberg_profile(inst.body, level=level)
    assert prof.orientation == "as_given"
    assert prof.margin > 0.5
    assert prof.level == level
    # margin must match a direct two-projection measurement at its theta
    pair = split_project(inst.body, prof.margin_theta, level)
    gap = horizontal_width(pair.lower)[0] - horizontal_width(pair.upper)[0]
    assert gap == pytest.approx(prof.margin, abs=1e-9)


def test_profile_detects_flipped_body():
    inst = octahedron_iceberg(1.38, 5.0)
    level = inst.circle.center[2]
    flipped = build_hull(inst.body.vertices * np.array([1.0, 1.0, -1.0]))
    prof = iceberg_profile(flipped, level=-level)
    assert prof.orientation == "flipped"
    assert prof.margin < 0.0
    assert prof.margin_flipped > 0.5


def test_profile_of_flat_body_is_neither():
    inst = flat_tetrahedron(0.2)
    prof = iceberg_profile(inst.body, level=inst.circle.center[2])
    assert prof.orientation == "neither"
    assert prof.margin < 0.0 and prof.margin_flipped < 0.0


def test_profile_arrays_are_consistent():
    inst = octahedron_iceberg(1.2, 10.0)
    prof = iceberg_profile(inst.body, level=inst.circle.center[2])
    assert len(prof.thetas) == 720
    assert len(prof.thetas) == len(prof.width_upper) == len(prof.width_lower)
    diffs = prof.width_lower - prof.width_upper
    assert prof.margin == pytest.approx(diffs.min(), abs=1e-12)


@pytest.mark.parametrize("make, margin, flipped", [
    # the margins before the float hull and hull-edge slopes
    (lambda: octahedron_iceberg(1.38, 5.0), 0.774901412034092,
     -0.8947790776666094),
    (lambda: flat_tetrahedron(0.2), -1.9230769230769231,
     -0.015384615384615385),
    (lambda: five_vertex_flat(0.2), -1.849112426035503,
     -0.015384615384615385)])
def test_verify_paper_profiles_match_qhull_and_pairwise_slopes(make, margin,
                                                               flipped):
    inst = make()
    level = inst.circle.center[2]
    prof = iceberg_profile(inst.body, level=level)
    assert abs(prof.margin - margin) <= 1e-12
    assert abs(prof.margin_flipped - flipped) <= 1e-12
    halves = clipped_halves(inst.body, level)
    for k in range(0, 720, 8):
        th = prof.thetas[k]
        for v, w in zip(halves, (prof.width_upper[k], prof.width_lower[k])):
            st = np.stack([v[:, 0] * np.cos(th) + v[:, 1] * np.sin(th),
                           v[:, 2]], axis=1)
            assert abs(w - pairwise_width(qhull_hull(st))) <= 1e-12


@pytest.mark.parametrize("make", [lambda: octahedron_iceberg(1.38, 5.0),
                                  lambda: flat_tetrahedron(0.2),
                                  lambda: five_vertex_flat(0.2)])
def test_profile_margins_match_grid_golden_reference(make):
    inst = make()
    level = inst.circle.center[2]
    prof = iceberg_profile(inst.body, level=level)
    upper, lower = (v.T.tolist() for v in clipped_halves(inst.body, level))

    def margin(th):
        return projected_width(*lower, th) - projected_width(*upper, th)

    assert (prof.margin_theta, prof.margin) == grid_golden_min(margin, 720)
    assert (prof.margin_flipped_theta, prof.margin_flipped) == \
        grid_golden_min(lambda th: -margin(th), 720)


def _shadows_agree(K, level, thetas):
    """Assert that the profile's halves of ``K`` at ``level`` and the two
    plane cuts cast shadows of equal horizontal width at ``thetas``, up to
    what moving their points allows, and return how far apart the two
    point sets are, relative to the scale.

    If every point of each set lies within ``r`` of a point of the other,
    each shadow's ``max(s - a*t)`` moves by at most ``r * sqrt(1 + a^2)``,
    so the widths differ by at most ``2 r sqrt(1 + a^2)`` at the larger of
    the two optimal slopes ``a``.  ``r`` is 0 up to rounding unless a
    vertex lies within ``TOL_GEOM * scale`` of the plane, where the plane
    cut keeps it in both halves and the profile in its own half with the
    crossings of its edges."""
    scale = max(1.0, float(np.abs(K.vertices).max()))
    r = 0.0
    for new, old in zip(_halves(K, level), clipped_halves(K, level)):
        dist = np.linalg.norm(new[:, None, :] - old[None, :, :], axis=2)
        r = max(r, dist.min(axis=0).max(), dist.min(axis=1).max())
        for th in thetas:
            ws = []
            for V in (new, old):
                w, strip = horizontal_width(np.stack(
                    [V[:, 0] * np.cos(th) + V[:, 1] * np.sin(th), V[:, 2]],
                    axis=1))
                assert w == projected_width(*V.T.tolist(), th)
                ws.append((w, strip.slope))
            (w_new, a_new), (w_old, a_old) = ws
            bound = 2.0 * r * np.hypot(1.0, max(abs(a_new), abs(a_old)))
            assert abs(w_new - w_old) <= bound + 1e-12 * scale
    return r / scale


SPINDLE_AND_FLAT = [
    *(lambda a=a, h=h: octahedron_iceberg(a, h)
      for a, h in ((1.38, 5.0), (1.01, 200.0), (1.2, 10.0), (1.05, 50.0))),
    lambda: families.seven_vertex_iceberg(1.2, 10.0),
    lambda: families.rectangle_circle(1.2, 3.0), lambda: flat_tetrahedron(0.2),
    lambda: five_vertex_flat(0.2), lambda: families.skew_tetrahedron(0.1),
    lambda: families.wd_tetrahedron(2.0, 2.0, 1.0)]


@pytest.mark.parametrize("make", SPINDLE_AND_FLAT)
def test_halves_match_the_plane_cuts_on_family_bodies(make):
    inst = make()
    thetas = np.linspace(0.0, np.pi, 90, endpoint=False)
    assert _shadows_agree(inst.body, inst.circle.center[2], thetas) <= 1e-15


def _random_cuts(seed):
    """A random hull and two levels: one drawn uniformly between its
    lowest and highest vertex, one ``1e-13`` to ``1e-8`` of the scale
    above or below the height of a vertex that is neither."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((int(rng.integers(5, 30)), 3))
    K = build_hull(pts * rng.uniform(0.2, 3.0, 3))
    z = np.sort(K.vertices[:, 2])
    scale = max(1.0, float(np.abs(K.vertices).max()))
    near = (rng.choice(z[1:-1]) + rng.choice([-1.0, 1.0])
            * 10.0 ** rng.uniform(-13.0, -8.0) * scale)
    return K, float(rng.uniform(z[0], z[-1])), float(near)


def test_halves_match_the_plane_cuts_on_random_hulls():
    thetas = np.linspace(0.0, np.pi, 24, endpoint=False)
    apart = []
    for seed in range(120):
        K, level, near = _random_cuts(seed)
        # away from the vertex heights both hold the same points
        assert _shadows_agree(K, level, thetas) <= 1e-15
        apart.append(_shadows_agree(K, near, thetas))
    # near a vertex height the two windows put points apart
    assert 0.0 < max(apart) < 1e-7


#: (seed, side) of the cuts of ``_random_cuts`` near a vertex height whose
#: hull the facet merge broke: an edge crossing lands 2e-9 to 4e-8 of the
#: scale from a vertex, and the bend test dropped one of the two from some
#: of their facets only
CROSSING_NEXT_TO_A_VERTEX = [(3, -1.0), (46, 1.0), (47, 1.0), (73, -1.0),
                             (73, 1.0), (91, -1.0), (91, 1.0)]


@pytest.mark.parametrize("seed, side", CROSSING_NEXT_TO_A_VERTEX)
@pytest.mark.parametrize("fallback", [False, True], ids=["merge", "jitter"])
def test_build_hull_takes_a_cut_with_a_crossing_next_to_a_vertex(
        seed, side, fallback, monkeypatch):
    K, _, near = _random_cuts(seed)
    pts = plane_cut_points(K, HalfSpace((0.0, 0.0, side), near * side))
    with pytest.raises(InvalidInput, match="V - E \\+ F = 1 != 2"):
        build_hull_by_np_unique(pts)
    if fallback:
        # the first merge fails, so the joggled hull's candidates are merged
        merge = polytope._merge_coplanar
        calls = []

        def fail_first(points, hull):
            calls.append(len(points))
            if len(calls) == 1:
                raise DegenerateInput("facet boundary is not a simple cycle")
            return merge(points, hull)
        monkeypatch.setattr(polytope, "_merge_coplanar", fail_first)
    hull = build_hull(pts)
    assert not fallback or len(calls) == 2
    n, b = hull.face_planes()
    scale = max(1.0, float(np.abs(pts).max()))
    assert (pts @ n.T - b).max() <= 1e-7 * scale
