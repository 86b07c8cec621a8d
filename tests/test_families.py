import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlehold import (
    Circle3,
    FAMILIES,
    InvalidParam,
    PolytopeND,
    bevelled_cylinder,
    circle_interior_intersects,
    five_vertex_flat,
    flat_tetrahedron,
    min_cylinder,
    octahedron_iceberg,
    point_location,
    rectangle_circle,
    seven_vertex_iceberg,
    simplex_holding_sphere_diameter,
    simplex_hull_nd,
    simplex_waist_minimum,
    skew_tetrahedron,
    steinhagen_constant,
    wd_tetrahedron,
    width3,
    width_nd,
)
from circlehold.holding import _SliceScanner


def test_registry_names():
    assert "octahedron-iceberg" in FAMILIES
    assert "skew-tetra" in FAMILIES
    assert len(FAMILIES) == 9


@pytest.mark.parametrize("bad", [
    lambda: octahedron_iceberg(1.0, 5.0),
    lambda: octahedron_iceberg(1.2, 0.0),
    lambda: bevelled_cylinder(2.0, 64),
    lambda: bevelled_cylinder(10.0, 8),
    lambda: flat_tetrahedron(0.0),
    lambda: wd_tetrahedron(1.0, 1.0, 0.0),
])
def test_parameter_validation(bad):
    with pytest.raises(InvalidParam):
        bad()


#: a valid value of every family parameter
VALID_PARAMS = {"a": 1.2, "h": 10.0, "apex_height": 1.0, "eps": 0.2,
                "R": 10.0, "m": 64, "p": 2.0, "q": 2.0, "s": 1.0, "n": 4}


def _family_params(family):
    params = FAMILIES[family][1]
    return params + ("apex_height",) if family == "seven-vertex" else params


@pytest.mark.parametrize("family, param, bad", [
    (family, param, bad) for family in FAMILIES
    for param in _family_params(family)
    for bad in (float("nan"), float("inf"), float("-inf"))])
def test_non_finite_parameters_are_rejected_by_name(family, param, bad):
    kwargs = {p: VALID_PARAMS[p] for p in _family_params(family)}
    kwargs[param] = bad
    with pytest.raises(InvalidParam, match=rf"\b{param}\b"):
        FAMILIES[family][0](**kwargs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [simplex_holding_sphere_diameter,
                               simplex_waist_minimum])
@pytest.mark.parametrize("param, bad", [
    (param, bad) for param in ("n", "a")
    for bad in (float("nan"), float("inf"), float("-inf"))])
def test_simplex_closed_forms_reject_non_finite_parameters(f, param, bad):
    # inf passes `a > 1`; without the finite check numpy warns instead
    kwargs = {"n": 3, "a": 1.2, param: bad}
    with pytest.raises(InvalidParam, match=rf"\b{param}\b"):
        f(**kwargs)


# --- spindle octahedra -------------------------------------------------------

def test_octahedron_predictions_match_geometry():
    inst = octahedron_iceberg(1.38, 5.0)
    assert len(inst.body.vertices) == 6
    assert width3(inst.body).width == pytest.approx(
        inst.predictions["width"].value, abs=1e-9)
    # the announced circle sits at the waist and circumscribes that slice
    waist = _SliceScanner(inst.body, (0.0, 0.0, 1.0)).circum(
        inst.predictions["center_z"].value)
    assert 2.0 * waist.radius == pytest.approx(
        inst.predictions["diameter"].value, abs=1e-9)
    assert inst.circle.diameter == pytest.approx(
        inst.predictions["diameter"].value, abs=1e-12)


def test_octahedron_ratio_marches_to_two_thirds():
    ratios = [octahedron_iceberg(a, h).predictions["ratio"].value
              for a, h in [(1.2, 10.0), (1.05, 50.0), (1.01, 200.0)]]
    assert ratios[0] > ratios[1] > ratios[2] > 2.0 / 3.0
    assert ratios[2] < 0.675


def test_seven_vertex_kills_large_circle():
    # adding one apex vertex makes the big two-corner circle unusable
    rect = rectangle_circle(1.38, 5.0)
    plain = octahedron_iceberg(1.38, 5.0)
    spiked = seven_vertex_iceberg(1.38, 5.0)
    assert len(spiked.body.vertices) == 7
    assert not circle_interior_intersects(plain.body, rect.circle).intersects
    assert circle_interior_intersects(spiked.body, rect.circle).intersects


def test_rectangle_circle_construction():
    inst = rectangle_circle(1.38, 5.0)
    p = inst.predictions
    assert max(p["residuals"].value) < 1e-9
    A = np.array(p["corner_A"].value)
    B = np.array(p["corner_B"].value)
    assert np.linalg.norm(A - B) == pytest.approx(p["diameter"].value, abs=1e-9)
    assert point_location(inst.body, A, tol=1e-7) == "boundary"
    assert point_location(inst.body, B, tol=1e-7) == "boundary"
    # this circle is much bigger than the waist circle of the same spindle
    assert p["exceeds_top_diameter"].value is True
    assert p["small_diameter"].value == pytest.approx(
        octahedron_iceberg(1.38, 5.0).predictions["diameter"].value, abs=1e-12)


# --- flat tetrahedra ---------------------------------------------------------

def test_flat_tetrahedron_predictions():
    inst = flat_tetrahedron(0.2)
    p = inst.predictions
    assert p["edge_bound"].value == pytest.approx(p["diameter"].value, abs=1e-12)
    res = min_cylinder(inst.body)
    assert res.diameter == pytest.approx(p["cylinder_diameter"].value, abs=1e-6)
    assert inst.circle.diameter == pytest.approx(p["diameter"].value, abs=1e-12)


def test_five_vertex_flat_kills_tilted_circle():
    flat = flat_tetrahedron(0.2)
    five = five_vertex_flat(0.2)
    assert len(five.body.vertices) == 5
    assert five.predictions["fifth_vertex"].value[2] < 0.0
    tilted = Circle3((0.0, 0.0, 0.5), 1.0, (1.0, -1.0, 0.0))
    assert not circle_interior_intersects(flat.body, tilted).intersects
    assert circle_interior_intersects(five.body, tilted).intersects


# --- skew tetrahedron --------------------------------------------------------

def test_skew_crossings_sit_inside_the_circle():
    inst = skew_tetrahedron(0.05)
    center = np.array(inst.circle.center)
    r = inst.circle.diameter / 2.0
    for key in ["crossing_v1v4", "crossing_v2v3"]:
        q = np.array(inst.predictions[key].value)
        assert abs(q[0]) < 1e-12               # both crossings lie in x = 0
        assert np.linalg.norm(q - center) < r  # strictly inside the circle
        assert point_location(inst.body, q, tol=1e-9) == "boundary"


# --- bevelled cylinder -------------------------------------------------------

def test_bevelled_cylinder_shape():
    inst = bevelled_cylinder(10.0, 64)
    p = inst.predictions
    assert len(inst.body.vertices) == p["vertex_count"].value == 128
    assert p["circle_diameter"].value == pytest.approx(2.0 * 10.0)
    assert p["ratio"].value == pytest.approx(10.0)
    res = min_cylinder(inst.body)
    assert res.diameter == pytest.approx(p["cylinder_diameter"].value, abs=1e-6)


def test_bevelled_cylinder_odd_m():
    inst = bevelled_cylinder(10.0, 18)
    assert len(inst.body.vertices) == inst.predictions["vertex_count"].value


# --- width-equals-diameter tetrahedra ---------------------------------------

def test_wd_equality_class_predicate():
    assert wd_tetrahedron(1.0, 1.0, 1.0).predictions["in_equality_class"].value
    assert not wd_tetrahedron(2.0, 2.0, 1.0).predictions["in_equality_class"].value


def test_wd_waist_equals_width_inside_class():
    inst = wd_tetrahedron(1.0, 1.0, 1.0)
    w = width3(inst.body).width
    assert w == pytest.approx(inst.predictions["waist_diameter"].value, abs=1e-9)
    assert w == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)


# --- higher dimensions -------------------------------------------------------

def test_steinhagen_values():
    want = {3: 2.0 / 3.0, 4: 1.0 / np.sqrt(3.0), 5: np.sqrt(6.0) / 5.0,
            6: 1.0 / np.sqrt(5.0), 7: np.sqrt(8.0) / 7.0, 8: 1.0 / np.sqrt(7.0)}
    for n, v in want.items():
        assert steinhagen_constant(n) == pytest.approx(v, abs=1e-15)


def test_simplex_hull_reduces_to_octahedron():
    s3 = simplex_hull_nd(3, 1.2, 10.0)
    o3 = octahedron_iceberg(1.2, 10.0)
    a = np.sort(np.asarray(s3.body.vertices), axis=0)
    b = np.sort(o3.body.vertices, axis=0)
    assert np.allclose(a, b, atol=1e-12)


def test_simplex_waist_matches_holding_sphere():
    t_star, val = simplex_waist_minimum(4, 1.001)
    assert 0.0 < t_star < 0.5
    assert val == pytest.approx(simplex_holding_sphere_diameter(4, 1.001), abs=1e-6)


def test_width_nd_hypercube():
    cube4 = PolytopeND(np.array(list(itertools.product([0.0, 1.0], repeat=4))))
    assert width_nd(cube4) == 1.0


def regular_simplex(n):
    """A regular simplex with unit edges in R^n: the scaled unit vectors of
    R^(n+1), centred and written in a basis of their hyperplane."""
    E = np.eye(n + 1) / np.sqrt(2.0)
    C = E - E.mean(axis=0)
    return C @ np.linalg.svd(C)[2][:n].T


@pytest.mark.parametrize("n", range(3, 8))
def test_width_nd_regular_simplex(n):
    # Steinhagen: sqrt(2/(n+1)) for odd n, sqrt(2(n+1)/(n(n+2))) for even n
    want = (np.sqrt(2.0 / (n + 1)) if n % 2
            else np.sqrt(2.0 * (n + 1) / (n * (n + 2))))
    assert abs(width_nd(PolytopeND(regular_simplex(n))) - want) <= 1e-15 * want


@pytest.mark.parametrize("n,want", [(4, 3.464099308048), (5, 4.082474402894)])
def test_width_nd_simplex_hull(n, want):
    got = width_nd(simplex_hull_nd(n, 1.001, 1000.0).body)
    assert abs(got - want) <= 1e-12 * want


def _nd_body(n, kind, seed):
    if kind == "simplex":
        return regular_simplex(n)
    if kind == "cube":
        return np.array(list(itertools.product([0.0, 1.0], repeat=n)))
    if kind == "simplex-hull":
        return simplex_hull_nd(n, 1.2, 10.0).body.vertices
    rng = np.random.default_rng(seed)
    return rng.standard_normal((int(rng.integers(n + 2, n + 12)), n))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 6),
       kind=st.sampled_from(["simplex", "cube", "simplex-hull", "random"]),
       seed=st.integers(0, 10_000),
       motion=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0))
def test_width_nd_is_invariant_under_motion_scaling_and_order(
        n, kind, seed, motion, log_scale):
    V = _nd_body(n, kind, seed)
    w0 = width_nd(PolytopeND(V))
    rng = np.random.default_rng(motion)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    shift = rng.uniform(-5.0, 5.0, n) * np.abs(V).max()
    s = 10.0 ** log_scale
    moved = (s * (V @ Q.T + shift))[rng.permutation(len(V))]
    assert abs(width_nd(PolytopeND(moved)) - s * w0) <= 1e-12 * s * w0
