"""The inputs of verify-paper's oracle-agreement check, drawn exactly as
``verification.check_oracle_agreement`` draws them."""

import functools

import numpy as np

from circlehold import Circle3, CircleHoldError, build_hull


@functools.cache
def oracle_agreement_cases(seed=7):
    """``(cloud, body, circle)`` for each of the 1000 cases; ``body`` and
    ``circle`` are None where the hull fails, as the check skips them.
    Built once per seed and shared: do not modify."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(1000):
        pts = rng.standard_normal((rng.integers(8, 15), 3))
        try:
            body = build_hull(pts)
        except CircleHoldError:
            out.append((pts, None, None))
            continue
        center = rng.standard_normal(3) * 1.2
        normal = rng.standard_normal(3)
        diameter = float(0.3 + 2.5 * rng.random())
        out.append((pts, body, Circle3(tuple(center), diameter,
                                       tuple(normal))))
    return out
