"""The sampled section profile that the exact piecewise-convex one replaced:
a height grid plus golden-section refinement, kept as the reference the
profile tests compare against; and the polish objective with no interval
skipped, the reference for its pruning."""

import math

import numpy as np

from circlehold.sections import _convex_min, _waists
from circlehold.planar import golden_refine


def sampled_grid(sc, lo, hi, n):
    """``n`` equally spaced heights on ``[lo, hi]``, both ends and the
    vertex heights inside, sorted, with near-duplicates dropped."""
    span = max(hi - lo, 1e-30)
    bp = sc.h[(sc.h > lo + 1e-12 * span) & (sc.h < hi - 1e-12 * span)]
    g = np.sort(np.concatenate([[lo, hi], bp, np.linspace(lo, hi, n)]))
    keep = np.concatenate([[True], np.diff(g) > 1e-12 * span])
    return g[keep]


def sampled_side_max(sc, lo, hi, n_heights=200):
    """Largest section circumdiameter on ``[lo, hi]``: the grid maximum,
    golden-refined between its two neighbours, as ``(height, value)``."""
    g = sampled_grid(sc, lo, hi, n_heights)
    vals = np.array([sc.diam(t) for t in g])
    k = int(np.argmax(vals))
    a, b = g[max(k - 1, 0)], g[min(k + 1, len(g) - 1)]
    t_ref, neg = golden_refine(lambda t: -sc.diam(t), a, b)
    if -neg > vals[k]:
        return float(t_ref), float(-neg)
    return float(g[k]), float(vals[k])


def sampled_waists(sc, n_heights=200):
    """Interior local minima ``(diameter, height)`` of the grid profile,
    each golden-refined between its two grid neighbours."""
    g = sampled_grid(sc, sc.h_min, sc.h_max, n_heights)
    vals = np.array([sc.diam(t) for t in g])
    out = []
    for i in range(1, len(g) - 1):
        if vals[i] <= vals[i - 1] + 1e-12 and vals[i] <= vals[i + 1] + 1e-12 \
                and (vals[i] < vals[i - 1] - 1e-12
                     or vals[i] < vals[i + 1] - 1e-12):
            t_ref, v_ref = golden_refine(sc.diam, g[i - 1], g[i + 1])
            if v_ref <= vals[i]:
                out.append((float(v_ref), float(t_ref)))
            else:
                out.append((float(vals[i]), float(g[i])))
    return out


def inward_intervals(sc):
    """``(k, samples)`` for each interval between vertex heights whose
    probes inside both ends fall inward: its ends and probes as ``_waists``
    places them, the samples its searches start from."""
    levels, eps = sc._levels, 1e-12 * sc.scale
    R = [sc.diam(t) for t in levels]
    for k, (a, b) in enumerate(zip(levels, levels[1:])):
        delta = max(4.0 * eps, 1e-6 * (b - a))
        if b - a > 2.0 * delta:
            pa, pb = sc.diam(a + delta), sc.diam(b - delta)
            if pa < R[k] and pb < R[k + 1]:
                yield k, [(a, R[k]), (a + delta, pa), (b - delta, pb),
                          (b, R[k + 1])]


def unpruned_smallest(sc, tol_opt):
    """The smallest waist of ``_waists(sc, tol_opt, smallest=True)`` with
    every inward interval searched by ``_convex_min``, none skipped: the
    vertex-height waists of ``_waists(sc, tol_opt)``, and each interval's
    value when some vertex height on each side exceeds it by ``tol_opt``."""
    levels = sc._levels
    R = [sc.diam(t) for t in levels]
    out = [d for d, t in _waists(sc, tol_opt) if t in levels]
    for k, samples in inward_intervals(sc):
        d = _convex_min(sc.diam, samples, 1e-13 * sc.scale)
        if max(R[:k + 1]) > d + tol_opt < max(R[k + 1:]):
            out.append(d)
    return min(out, default=math.inf)
