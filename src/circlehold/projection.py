"""Projection of a split body into rotating vertical planes.

Separate a convex body ``K`` by a horizontal plane ``z = level`` into an
upper part and a lower part, then project both into the vertical plane
through direction ``theta``.  The projection coordinates are

    ``s = x*cos(theta) + y*sin(theta)``,  ``t = z - level``,

so the splitting plane becomes the horizontal axis ``t = 0`` of every
projected picture and :func:`~circlehold.planar.horizontal_width` applies
directly.  Scanning ``theta`` over ``[0, pi)`` covers all vertical planes —
``theta`` and ``theta + pi`` give mirror images with equal widths.

The upper part *hangs strictly inside* the lower part when the projected
upper width is strictly below the projected lower width for **every**
``theta``.  That is the key premise certified by :func:`iceberg_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .planar import convex_hull_2d, periodic_min, projected_width
# the width of a projected pair; bench/tracing.py wraps it under this
# module's name
from .planar import horizontal_width  # noqa: F401
from .polytope import Polytope3
from .sections import _SliceScanner


@dataclass
class ProjectedPair:
    """Projections of the two halves of a split body for one ``theta``."""

    theta: float
    upper: np.ndarray  # hull vertices in (s, t), t >= 0
    lower: np.ndarray  # hull vertices in (s, t), t <= 0


def _halves(K: Polytope3, level: float) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of one section profile at the plane ``z = level``,
    which must cut the interior (:meth:`_SliceScanner.half`), in
    coordinates ``(x, y, z - level)``."""
    sc = _SliceScanner(K, (0.0, 0.0, 1.0), (0.0, 0.0, level))
    if sc.h_max <= 0.0 or sc.h_min >= 0.0:
        raise InvalidInput(f"plane z = {level} does not cut the body interior")
    return sc.half(1.0) - sc.origin, sc.half(-1.0) - sc.origin


def split_project(K: Polytope3, theta: float,
                  level: float = 0.0) -> ProjectedPair:
    """Project the two halves of a body split by the plane ``z = level``
    into the vertical plane through direction ``theta``."""
    c, s = np.cos(theta), np.sin(theta)

    def project(v: np.ndarray) -> np.ndarray:
        return convex_hull_2d(np.stack([v[:, 0] * c + v[:, 1] * s, v[:, 2]],
                                       axis=1))

    return ProjectedPair(float(theta), *map(project, _halves(K, level)))


@dataclass
class IcebergProfile:
    """Result of sweeping the projected widths over all vertical planes.

    ``margin`` is ``min over theta of (lower width - upper width)``: positive
    means the upper part hangs strictly inside the lower part at every
    sampled angle.  ``margin_flipped`` is the same quantity with the roles
    swapped.  ``orientation`` summarizes which part (if either) hangs inside
    the other:

    - ``"as_given"``      — upper part strictly narrower at every angle,
    - ``"flipped"``       — the body would qualify after turning it upside
      down: the lower part is strictly narrower at every angle,
    - ``"neither"``       — each part is strictly wider somewhere,
    - ``"indeterminate"`` — some margin vanishes to working precision, so
      sampling cannot decide strictness.
    """

    thetas: np.ndarray
    width_upper: np.ndarray
    width_lower: np.ndarray
    level: float
    margin: float
    margin_theta: float
    margin_flipped: float
    margin_flipped_theta: float
    orientation: str


def iceberg_profile(K: Polytope3, level: float = 0.0) -> IcebergProfile:
    """Sweep all vertical projection planes and compare the horizontal
    widths of the upper and lower parts of the body split by the plane
    ``z = level``.

    Widths are computed exactly per angle, on a grid of 720 angles over
    ``[0, pi)``.  The reported margins are grid minima refined by a
    golden-section search around the worst grid cell
    (:func:`~circlehold.planar.periodic_min`), so a strictly positive
    reported margin is a reliable certificate for bodies whose width
    functions vary smoothly between samples.  The orientation counts a
    margin as strict beyond ``1e-7``.
    """
    upper, lower = (v.T.tolist() for v in _halves(K, level))
    thetas = np.linspace(0.0, np.pi, 720, endpoint=False)
    wa = np.array([projected_width(*upper, th) for th in thetas])
    wb = np.array([projected_width(*lower, th) for th in thetas])

    def margin_at(th: float) -> float:
        return projected_width(*lower, th) - projected_width(*upper, th)

    m_theta, m_given = periodic_min(margin_at, np.pi, wb - wa)
    mf_theta, m_flip = periodic_min(lambda th: -margin_at(th), np.pi, wa - wb)

    if m_given > 1e-7:
        orientation = "as_given"
    elif m_flip > 1e-7:
        orientation = "flipped"
    elif max(m_given, m_flip) >= -1e-7:
        orientation = "indeterminate"
    else:
        orientation = "neither"

    return IcebergProfile(
        thetas=thetas, width_upper=wa, width_lower=wb, level=float(level),
        margin=float(m_given), margin_theta=m_theta,
        margin_flipped=float(m_flip), margin_flipped_theta=mf_theta,
        orientation=orientation,
    )
