"""The circle-interior test read off the section in the circle's plane,
against the face-arc test it replaced (``penetration_reference``): equal
decisions, witnesses inside the body, no penetration where the plane only
touches the body, and decisions that do not depend on the body's pose or
vertex order."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle_cases import oracle_agreement_cases
from penetration_reference import circle_interior_intersects as face_arcs

from circlehold import (
    Circle3,
    CircleHoldError,
    InvalidInput,
    bevelled_cylinder,
    build_hull,
    circle_interior_intersects,
    five_vertex_flat,
    flat_tetrahedron,
    octahedron_iceberg,
    point_location,
    rectangle_circle,
    sampled_penetration,
    seven_vertex_iceberg,
    skew_tetrahedron,
    wd_tetrahedron,
)
from circlehold.tolerances import TOL_OPT

CUBE = build_hull(np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                            for z in (0.0, 1.0)]))
TOLS = (1e-9, TOL_OPT)


def _agrees(K, C, tol):
    """The decision equals the reference's, and a witness is interior."""
    got = circle_interior_intersects(K, C, tol)
    assert got.intersects == face_arcs(K, C, tol).intersects
    if got.intersects:
        assert got.penetration > tol
        assert point_location(K, got.point, tol=1e-12) == "interior"
        assert np.array_equal(got.point, C.points(got.angle)[0])
    else:
        assert got.penetration <= tol and got.point is None
    return got.intersects


@pytest.mark.parametrize("seed", [7, 3, 11])
def test_decisions_match_the_face_arc_test_on_the_oracle_cases(seed):
    hits = 0
    for _, K, C in oracle_agreement_cases(seed):
        if K is not None:
            hits += sum(_agrees(K, C, tol) for tol in TOLS)
    assert hits > 600


@pytest.mark.parametrize("inst", [
    octahedron_iceberg(1.2, 10.0), seven_vertex_iceberg(1.38, 5.0),
    rectangle_circle(1.2, 3.0), flat_tetrahedron(0.2),
    skew_tetrahedron(0.1), bevelled_cylinder(10.0, 64),
    wd_tetrahedron(2.0, 2.0, 1.0), five_vertex_flat(0.2)],
    ids=lambda inst: inst.name)
def test_decisions_match_the_face_arc_test_about_the_family_waists(inst):
    # each family circle touches its section: shrunk it penetrates, grown
    # it does not, and within 1e-6 the two tests still agree
    C = inst.circle
    hits = [_agrees(inst.body, Circle3(C.center, f * C.diameter, C.normal),
                    tol)
            for f in (0.5, 1 - 1e-3, 1 - 1e-6, 1.0, 1 + 1e-6, 1 + 1e-3, 1.5)
            for tol in TOLS]
    assert hits[:4] == [True] * 4 and not any(hits[6:])


def test_the_margin_at_a_touching_waist_is_rounding():
    for inst in (octahedron_iceberg(1.2, 10.0), bevelled_cylinder(10.0, 64),
                 wd_tetrahedron(2.0, 2.0, 1.0)):
        pen = circle_interior_intersects(inst.body, inst.circle, 0.0)
        assert abs(pen.penetration) <= 1e-15 * inst.circle.diameter


@pytest.mark.parametrize("center, normal", [
    ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),      # through a vertex only
    ((1.0, 0.5, 1.0), (1.0, 0.0, 1.0)),      # through an edge only
    ((1.0, 0.0, 0.0), (-1.0, 1.0, 1.0)),     # through a vertex only
    ((0.5, 0.5, 1.0), (0.0, 0.0, 1.0)),      # in a face
    ((0.5, 0.5, 0.0), (0.0, 0.0, -1.0)),     # in a face, normal outward
    ((1.0, 0.5, 0.5), (1.0, 0.0, 0.0)),      # in a face
])
@pytest.mark.parametrize("diameter", [0.3, 1.0, 1.5, 4.0])
def test_a_plane_touching_the_body_is_never_pierced(center, normal,
                                                    diameter):
    C = Circle3(center, diameter, normal)
    for tol in (0.0, *TOLS):
        pen = circle_interior_intersects(CUBE, C, tol)
        assert not pen.intersects and pen.penetration <= 0.0
        assert not face_arcs(CUBE, C, tol).intersects


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cloud=st.integers(0, 2**32 - 1), motion=st.integers(0, 2**32 - 1))
def test_decision_is_invariant_under_rigid_motion_and_vertex_order(cloud,
                                                                   motion):
    rng = np.random.default_rng(cloud)
    pts = rng.standard_normal((int(rng.integers(5, 15)), 3))
    try:
        K = build_hull(pts)
    except CircleHoldError:
        return
    C = Circle3(tuple(0.8 * rng.standard_normal(3)),
                0.3 + 2.5 * rng.random(), tuple(rng.standard_normal(3)))
    pen = circle_interior_intersects(K, C, 1e-9)
    # within 1e-6 of the threshold rounding may decide
    assume(abs(pen.penetration - 1e-9) > 1e-6)
    rng = np.random.default_rng(motion)
    # an orthogonal map, a reflection at times: an isometry all the same
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    shift = rng.uniform(-5.0, 5.0, 3)
    moved = build_hull(rng.permutation(pts @ R.T + shift))
    C2 = Circle3(tuple(R @ C.center_array + shift), C.diameter,
                 tuple(R @ np.asarray(C.normal)))
    assert circle_interior_intersects(moved, C2, 1e-9).intersects \
        == pen.intersects


@pytest.mark.parametrize("samples", [0, -3, 1.5, True])
def test_sampled_penetration_takes_only_a_positive_integer_count(samples):
    with pytest.raises(InvalidInput, match="samples must be a positive "
                                           "integer"):
        sampled_penetration(CUBE, Circle3((0.5, 0.5, 0.5), 1.0,
                                          (0.0, 0.0, 1.0)), samples=samples)
