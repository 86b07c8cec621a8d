import numpy as np
import pytest
from chain_reference import grid_golden_min
from planar_reference import pairwise_width, qhull_hull

from circlehold import (
    build_hull,
    five_vertex_flat,
    flat_tetrahedron,
    horizontal_width,
    iceberg_profile,
    octahedron_iceberg,
    split_body,
    split_project,
)
from circlehold.planar import projected_width

CUBE = build_hull(np.array([
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
], dtype=float))


def test_split_body_cube():
    upper, lower = split_body(CUBE, 0.5)
    assert upper.vertices[:, 2].min() == pytest.approx(0.5)
    assert lower.vertices[:, 2].max() == pytest.approx(0.5)
    assert upper.vertices[:, 2].max() == pytest.approx(1.0)


def test_split_project_cube():
    pair = split_project(CUBE, 0.0, 0.5)
    # both halves project to 1 x 0.5 rectangles
    assert horizontal_width(pair.upper)[0] == pytest.approx(1.0, abs=1e-9)
    assert horizontal_width(pair.lower)[0] == pytest.approx(1.0, abs=1e-9)
    # a turned shadow of the unit footprint spans cos(t) + sin(t)
    pair = split_project(CUBE, 0.3, 0.5)
    want = np.cos(0.3) + np.sin(0.3)
    assert horizontal_width(pair.upper)[0] == pytest.approx(want, abs=1e-9)


def test_split_project_reuses_halves():
    halves = split_body(CUBE, 0.5)
    a = split_project(CUBE, 1.1, 0.5, halves=halves)
    b = split_project(CUBE, 1.1, 0.5)
    assert np.allclose(np.sort(a.upper, axis=0), np.sort(b.upper, axis=0))


def test_profile_of_balanced_body_is_indeterminate():
    prof = iceberg_profile(CUBE, level=0.5, theta_samples=120)
    assert prof.orientation == "indeterminate"
    assert abs(prof.margin) < 1e-9


def test_profile_of_spindle():
    inst = octahedron_iceberg(1.38, 5.0)
    level = inst.circle.center[2]
    prof = iceberg_profile(inst.body, level=level, theta_samples=240)
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
    prof = iceberg_profile(flipped, level=-level, theta_samples=240)
    assert prof.orientation == "flipped"
    assert prof.margin < 0.0
    assert prof.margin_flipped > 0.5


def test_profile_of_flat_body_is_neither():
    inst = flat_tetrahedron(0.2)
    prof = iceberg_profile(inst.body, level=inst.circle.center[2],
                           theta_samples=240)
    assert prof.orientation == "neither"
    assert prof.margin < 0.0 and prof.margin_flipped < 0.0


def test_profile_arrays_are_consistent():
    inst = octahedron_iceberg(1.2, 10.0)
    prof = iceberg_profile(inst.body, level=inst.circle.center[2],
                           theta_samples=90)
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
    prof = iceberg_profile(inst.body, level=level, theta_samples=720)
    assert abs(prof.margin - margin) <= 1e-12
    assert abs(prof.margin_flipped - flipped) <= 1e-12
    halves = split_body(inst.body, level)
    for k in range(0, 720, 8):
        th = prof.thetas[k]
        for part, w in zip(halves, (prof.width_upper[k], prof.width_lower[k])):
            v = part.vertices
            st = np.stack([v[:, 0] * np.cos(th) + v[:, 1] * np.sin(th),
                           v[:, 2] - level], axis=1)
            assert abs(w - pairwise_width(qhull_hull(st))) <= 1e-12


@pytest.mark.parametrize("make", [lambda: octahedron_iceberg(1.38, 5.0),
                                  lambda: flat_tetrahedron(0.2),
                                  lambda: five_vertex_flat(0.2)])
def test_profile_margins_match_grid_golden_reference(make):
    inst = make()
    level = inst.circle.center[2]
    prof = iceberg_profile(inst.body, level=level, theta_samples=720)
    upper, lower = ([p.vertices[:, 0].tolist(), p.vertices[:, 1].tolist(),
                     (p.vertices[:, 2] - level).tolist()]
                    for p in split_body(inst.body, level))

    def margin(th):
        return projected_width(*lower, th) - projected_width(*upper, th)

    assert (prof.margin_theta, prof.margin) == grid_golden_min(margin, 720)
    assert (prof.margin_flipped_theta, prof.margin_flipped) == \
        grid_golden_min(lambda th: -margin(th), 720)
