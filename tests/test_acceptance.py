"""Acceptance gate: every headline claim is recomputed and compared against
independently derived numbers.

Each test prints one PASS/FAIL line per check.  Two tests fail by design
and stay red until the underlying geometry changes:

* ``test_criterion_02_diameter_limit``: the waist diameter of the thin
  spindle approaches 2 only to first order in (a - 1); at a = 1.001 the
  residual is about 2e-3, which misses the 1e-3 target.
* ``test_criterion_10_equality_instance``: the (2, 2, 1) tetrahedron lies
  outside the equality class pq/sqrt(p^2 + q^2) <= s, so its waist
  diameter genuinely exceeds its width by ~0.414.

They document real limits of the stated tolerances and must not be
silenced; the companion tests cover the parts that do hold.
"""

import functools
import time

from circlehold import verification


# criteria 02 and 10 each split one suite into two tests; run each suite once
@functools.cache
def _timed(check):
    t0 = time.perf_counter()
    results = check()
    return results, time.perf_counter() - t0


def _report(check, prefix=""):
    """Print and assert the checks of ``check`` whose names start with
    ``prefix``; the time printed is that of the whole suite."""
    results, seconds = _timed(check)
    results = [r for r in results if r.name.startswith(prefix)]
    print()
    print(verification.format_results(
        [verification.SuiteRun(check.__name__, seconds, results)]))
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed checks: {failed}"


def test_criterion_01_ratio_exceeds_two_thirds():
    _report(verification.check_ratio_bound)


def test_criterion_02_diameter_limit():
    # expected RED: 2e-3 residual at a = 1.001 vs a 1e-3 target
    _report(verification.check_limits, "diameter")


def test_criterion_02_width_limit():
    _report(verification.check_limits, "width")


def test_criterion_03_iceberg_orientation():
    _report(verification.check_iceberg)


def test_criterion_04_split_width_identities():
    _report(verification.check_split_identities)


def test_criterion_05_inscribed_circle_bound():
    _report(verification.check_inscribed_circle)


def test_criterion_06_projection_chain():
    _report(verification.check_projection_chain)


def test_criterion_07_flat_tetrahedron():
    _report(verification.check_flat_tetra)


def test_criterion_08_skew_tetrahedron():
    _report(verification.check_skew_tetra)


def test_criterion_09_non_iceberg_bodies():
    _report(verification.check_non_iceberg)


def test_criterion_10_equality_instance():
    # expected RED: (2, 2, 1) lies outside the equality class
    _report(verification.check_width_equals_diameter, "equality")


def test_criterion_10_perturbed_instance():
    _report(verification.check_width_equals_diameter, "perturbed")


def test_criterion_11_higher_dimensions():
    _report(verification.check_higher_dim)


def test_criterion_12_bevelled_cylinder():
    _report(verification.check_bevelled)


def test_criterion_13_tetrahedron_width():
    _report(verification.check_tetra_width)


def test_criterion_14_oracle_agreement():
    _report(verification.check_oracle_agreement)
