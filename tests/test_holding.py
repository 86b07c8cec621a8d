from itertools import combinations

import numpy as np
import pytest

from circlehold import (
    Circle3,
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
from circlehold.holding import _edge_pair_distances

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


def test_translation_block_waist_vs_prism():
    wd = wd_tetrahedron(1.0, 1.0, 1.0)
    tb = translation_block_certificate(wd.body, wd.circle)
    assert tb.above.blocked and tb.below.blocked
    assert tb.above.circumdiameter > wd.circle.diameter
    # constant cross-sections never block
    tb2 = translation_block_certificate(CUBE, Circle3((0.5, 0.5, 0.5), 1.8, (0, 0, 1)))
    assert not tb2.above.blocked and not tb2.below.blocked


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
