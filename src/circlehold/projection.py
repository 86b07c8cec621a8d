"""Projection of a split body into rotating vertical planes.

Separate a convex body ``K`` by a horizontal plane ``z = level`` into an
upper part and a lower part, then project both into the vertical plane
through direction ``theta``.  The projection coordinates are

    ``s = x*cos(theta) + y*sin(theta)``,  ``t = z - level``,

so the splitting plane becomes the horizontal axis ``t = 0`` of every
projected picture and :func:`~circlehold.planar.horizontal_width` applies
directly.

The upper part *hangs strictly inside* the lower part when the projected
upper width is strictly below the projected lower width for **every**
``theta``: the premise that :func:`iceberg_profile` decides exactly.  A
part ``H``'s projected width at ``u = (cos(theta), sin(theta), 0)`` is
``min_a breadth(u - a e_z)``, which is the support function at ``u`` of
the section ``S`` of its difference body ``H - H`` by the plane ``z = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .planar import _hull, convex_hull_2d
# the width of a projected pair; bench/tracing.py wraps it under this
# module's name
from .planar import horizontal_width  # noqa: F401
from .polytope import Polytope3, _difference_hull
from .sections import _SliceScanner


@dataclass
class ProjectedPair:
    """Projections of the two halves of a split body for one ``theta``."""

    theta: float
    upper: np.ndarray  # hull vertices in (s, t), t >= 0
    lower: np.ndarray  # hull vertices in (s, t), t <= 0


def _halves(K: Polytope3, level: float) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of one section profile at the plane ``z = level``,
    which must have vertices more than ``1e-12 * scale`` on both sides
    (:meth:`_SliceScanner.half`), in coordinates ``(x, y, z - level)``."""
    sc = _SliceScanner(K, (0.0, 0.0, 1.0), (0.0, 0.0, level))
    eps = 1e-12 * sc.scale
    if sc.h_max <= eps or sc.h_min >= -eps:
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


def _difference_section(H: np.ndarray) -> np.ndarray:
    """Counterclockwise vertices ``(x, y)`` of the section ``z = 0`` of the
    difference body ``H - H`` of the points ``H``."""
    hull = _difference_hull(H)
    keep = hull.vertices
    index = np.zeros(len(hull.points), int)
    index[keep] = np.arange(len(keep))
    D = Polytope3(hull.points[keep], index[hull.simplices].tolist(),
                  validate=False)
    return np.array(_hull(_SliceScanner(D, (0.0, 0.0, 1.0))._section(0.0)[0]))


@dataclass
class IcebergProfile:
    """Projected widths of the two parts over all vertical planes.

    ``margin`` is the exact ``min over theta of (lower width - upper
    width)``: positive means the upper part hangs strictly inside the lower
    part at every angle.  ``margin_flipped`` is the same with the roles
    swapped.  ``thetas``, ``width_upper`` and ``width_lower`` are plot
    samples at 720 angles over ``[0, pi)`` and decide nothing.
    ``orientation`` summarizes which part (if either) hangs inside the
    other:

    - ``"as_given"``      — upper part strictly narrower at every angle,
    - ``"flipped"``       — the body would qualify after turning it upside
      down: the lower part is strictly narrower at every angle,
    - ``"neither"``       — each part is strictly wider somewhere,
    - ``"indeterminate"`` — some margin is within ``1e-7`` of 0, too close
      to call strict.
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
    """Compare the projected widths of the upper and lower parts of the
    body split by the plane ``z = level`` over all vertical planes.

    Each width is the support function of a section ``S`` (module
    docstring).  Between consecutive edge-normal angles of the two sections
    each support is attained at one vertex, ``a`` of the lower and ``b`` of
    the upper, so the margin is ``(a - b) . u``, extreme at those angles or
    at the angle of ``a - b`` (mod ``pi``).  Of the candidates within
    ``1e-12 * max(1, |margin|)`` of an extreme the largest angle is
    reported, one within ``1e-12`` of ``pi`` counting as 0.  A margin is
    strict beyond ``1e-7``.
    """
    S_up, S_lo = map(_difference_section, _halves(K, level))
    knots = np.sort(np.concatenate([  # edge-normal angles, mod pi
        np.arctan2(S[:, 0] - np.roll(S[:, 0], -1),
                   np.roll(S[:, 1], -1) - S[:, 1]) for S in (S_up, S_lo)])
        % np.pi)
    mid = (knots + np.append(knots[1:], knots[0] + np.pi)) / 2.0
    u = np.stack([np.cos(mid), np.sin(mid)])
    d = (S_lo[np.argmax(S_lo @ u, axis=0)]
         - S_up[np.argmax(S_up @ u, axis=0)])
    thetas = np.linspace(0.0, np.pi, 720, endpoint=False)
    # the candidates, then the plot samples
    cand = np.concatenate([knots, np.arctan2(d[:, 1], d[:, 0]) % np.pi])
    ang = np.append(cand, thetas)
    u = np.stack([np.cos(ang), np.sin(ang)])
    wa, wb = ((S @ u).max(axis=0) for S in (S_up, S_lo))
    m = (wb - wa)[:len(cand)] + 0.0     # + 0.0: no -0 margins

    def lowest(v: np.ndarray) -> tuple[float, float]:
        best = float(v.min())
        th = cand[v <= best + 1e-12 * max(1.0, abs(best))]
        return float(np.where(th > np.pi - 1e-12, 0.0, th).max()), best

    m_theta, m_given = lowest(m)
    mf_theta, m_flip = lowest(0.0 - m)

    orientation = ("as_given" if m_given > 1e-7
                   else "flipped" if m_flip > 1e-7
                   else "indeterminate" if max(m_given, m_flip) >= -1e-7
                   else "neither")
    return IcebergProfile(
        thetas=thetas, width_upper=wa[len(cand):],
        width_lower=wb[len(cand):], level=float(level),
        margin=m_given, margin_theta=m_theta, margin_flipped=m_flip,
        margin_flipped_theta=mf_theta, orientation=orientation)
