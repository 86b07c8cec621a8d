"""Cross-section profiles of a polytope along an axis: the section
circumdiameter, its blocking maxima and its waists, found exactly because
the profile is convex between consecutive vertex heights."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate

import numpy as np

from .errors import InvalidInput
from .planar import Circle2, _welzl, golden_refine
from .polytope import Polytope3, plane_frame


class _SliceScanner:
    """Cross-sections of a polytope perpendicular to a fixed axis.

    Works in the deterministic frame of :func:`plane_frame`; 2D coordinates
    are relative to ``origin`` so a circle centered there sits at the
    2D origin.  Vertex heights, 2D coordinates and edges are kept as
    Python floats: a section of a few dozen edges is one short loop, where
    numpy would spend most of its time on per-call overhead.

    Between two consecutive distinct vertex heights the same edges cross
    every plane.  The first section away from the vertex heights tests
    every edge; the second builds the table of each interval's crossing
    edges, in edge order, and from then on such a section loops over its
    interval's alone.  So a lone penetration test builds no table."""

    def __init__(self, K: Polytope3, axis, origin=None):
        axis = np.asarray(axis, float)
        self.origin = np.zeros(3) if origin is None else np.asarray(origin, float)
        if not (np.isfinite(K.vertices).all() and np.isfinite(axis).all()
                and np.isfinite(self.origin).all()):
            raise InvalidInput("vertices, axis and origin must be finite")
        e1, e2, n = plane_frame(axis)
        self.frame = (e1, e2, n)
        self.vertices = K.vertices
        rel = K.vertices - self.origin
        self.h = rel @ n
        self.scale = max(1.0, float(np.abs(K.vertices).max()))
        self.h_min = float(self.h.min())
        self.h_max = float(self.h.max())
        h = self.h.tolist()
        xy = np.stack([rel @ e1, rel @ e2], axis=1).tolist()
        self._vertices = [(hv, x, y) for hv, (x, y) in zip(h, xy)]
        self._edges = [(h[a], h[b], *xy[a], *xy[b]) for a, b in K.edges]
        self._levels = sorted(set(h))
        self._swept = False     # a section away from the heights was read
        self._spans: list[list[tuple]] | None = None

    def _span_table(self) -> list[list[tuple]]:
        """``[k]``: the edges spanning ``(levels[k - 1], levels[k])``, in
        edge order; the first and the last list are empty."""
        rank = {hv: k for k, hv in enumerate(self._levels)}
        spans: list[list[tuple]] = [[] for _ in range(len(rank) + 1)]
        for edge in self._edges:
            ka, kb = rank[edge[0]], rank[edge[1]]
            for k in range(min(ka, kb) + 1, max(ka, kb) + 1):
                spans[k].append(edge)
        return spans

    def _section(self, t: float) -> tuple[list[tuple[float, float]], float]:
        """Points of the section at height ``t`` and their largest
        ``|coordinate|`` (0 when there are none): the vertices within
        ``1e-12 * scale`` of the plane, then the crossings of the edges
        that cut it, in edge order.

        More than twice that tolerance away from every vertex height no
        vertex is on the plane and exactly the interval's spanning edges
        cut it, so once the span table is built only those are tested."""
        eps = 1e-12 * self.scale
        levels = self._levels
        k = bisect_right(levels, t)
        if ((k and t - levels[k - 1] <= 2.0 * eps)
                or (k < len(levels) and levels[k] - t <= 2.0 * eps)):
            pts = [(x, y) for hv, x, y in self._vertices if abs(hv - t) <= eps]
            big = max([abs(c) for p in pts for c in p], default=0.0)
            edges = self._edges
        else:
            pts = []
            big = 0.0
            if self._spans is None and self._swept:
                self._spans = self._span_table()
            self._swept = True
            edges = self._edges if self._spans is None else self._spans[k]
        for ha, hb, ax, ay, bx, by in edges:
            da = ha - t
            db = hb - t
            if (da < -eps and db > eps) or (da > eps and db < -eps):
                lam = da / (da - db)
                x = ax + lam * (bx - ax)
                y = ay + lam * (by - ay)
                pts.append((x, y))
                if x > big or -x > big:
                    big = abs(x)
                if y > big or -y > big:
                    big = abs(y)
        return pts, big

    def points2(self, t: float) -> np.ndarray:
        return np.array(self._section(float(t))[0]).reshape(-1, 2)

    def circum(self, t: float) -> Circle2 | None:
        """Smallest circle around the section (that of
        :func:`~circlehold.planar.min_enclosing_circle`)."""
        pts, big = self._section(float(t))
        if not pts:
            return None
        cx, cy, r = _welzl(pts, 1e-12 * max(1.0, big))
        return Circle2((cx, cy), r)

    def diam(self, t: float) -> float:
        pts, big = self._section(float(t))
        if not pts:
            return 0.0
        return 2.0 * _welzl(pts, 1e-12 * max(1.0, big))[2]

    def lift(self, p2, t: float) -> np.ndarray:
        e1, e2, n = self.frame
        return self.origin + p2[0] * e1 + p2[1] * e2 + t * n

    def half(self, sgn: float) -> np.ndarray:
        """Points spanning the body's part on side ``sgn`` (±1) of the
        plane: the vertices more than ``1e-12 * scale`` on that side, then
        the section at height 0, lifted."""
        return np.vstack([self.vertices[sgn * self.h > 1e-12 * self.scale],
                          *(self.lift(p, 0.0) for p in self.points2(0.0))])

    def side_max(self, lo: float, hi: float) -> tuple[float, float]:
        """Largest section circumdiameter on ``[lo, hi]`` and its height,
        the lowest on ties.  The circumradius is convex between consecutive
        vertex heights, so the maximum is at ``lo``, at ``hi`` or at a
        vertex height between them: no other height is evaluated."""
        levels = self._levels
        inner = levels[bisect_right(levels, lo):bisect_left(levels, hi)]
        best_t, best_d = lo, self.diam(lo)
        for t in (*inner, hi):
            d = self.diam(t)
            if d > best_d:
                best_t, best_d = t, d
        return best_t, best_d


def _secant_floor(P, j: int) -> tuple[float, float]:
    """Lower bound ``(value, height)`` on ``[P[j], P[j + 1]]`` of a convex
    function sampled at the sorted ``(t, f(t))`` pairs ``P``: outside its
    chord a convex function lies above the chord's line, so there it lies
    above the secants of the neighbouring pairs, lowest where they meet."""
    p, q = P[j][0], P[j + 1][0]
    lines = [(P[k][0], P[k][1],
              (P[k + 1][1] - P[k][1]) / (P[k + 1][0] - P[k][0]))
             for k in (j - 1, j + 1) if 0 <= k < len(P) - 1]
    xs = [p, q]
    if len(lines) == 2 and lines[0][2] != lines[1][2]:
        (xa, fa, sa), (xb, fb, sb) = lines
        x = (fb - fa + sa * xa - sb * xb) / (sa - sb)
        if p < x < q:
            xs.append(x)
    return min((max(f0 + s * (x - x0) for x0, f0, s in lines), x) for x in xs)


def _convex_min(f, P, tol: float) -> float:
    """Smallest value of ``f``, convex on the span of the sorted samples
    ``P`` (``(t, f(t))`` pairs whose best one is not at an end), to within
    ``tol`` and 60 more evaluations.

    The minimum lies next to the best sample, where the secants of the
    pairs beyond it (:func:`_secant_floor`) bound ``f`` from below; the
    search stops once that bound is within ``tol`` of the best value, and
    keeps only the best sample and two on each side.  Until then it steps
    to the vertex of the parabola through the best sample and its
    neighbours if that lands between them and moves less than half the
    step before last (Brent 1973), else to where the secants meet (exact at
    a kink, where parabolas creep), else a golden step into the larger
    side."""
    e = d = 0.0
    for _ in range(60):
        i = min(range(len(P)), key=lambda j: P[j][1])
        P = P[max(i - 2, 0):i + 3]
        i = min(i, 2)
        (lo, f0), (x, fx), (hi, f2) = P[i - 1:i + 2]
        lb, xl = min(_secant_floor(P, i - 1), _secant_floor(P, i))
        if fx - lb <= tol:
            break
        step = None
        if e:
            r = (x - lo) * (fx - f2)
            q = (x - hi) * (fx - f0)
            p = (x - lo) * r - (x - hi) * q
            q = 2.0 * (r - q)
            e, etemp = d, e
            if q and lo < x - p / q < hi and 0 < abs(p / q) < 0.5 * abs(etemp):
                step = -p / q
        if step is None:
            e = hi - x if hi - x > x - lo else lo - x
            step = (xl - x if lo < xl < hi and xl != x
                    else 0.3819660112501051 * e)
        d = step
        u = x + step
        if not lo < u < hi or u == x:
            break
        insort(P, (u, f(u)))
    return min(v for _, v in P)


def _waists(sc: _SliceScanner, tol_opt: float,
            smallest: bool = False) -> list[tuple[float, float]] | float:
    """Local minima ``(diameter, height)`` of the section circumdiameter
    along the scanner's axis that the blocking gate can accept, by height;
    with ``smallest``, only the smallest diameter (``inf`` if none).

    The circumdiameter is convex between consecutive vertex heights, so a
    local minimum sits at a vertex height where the profile rises on one
    side and does not fall on the other, or inside an interval whose ends
    both fall inward, found by one golden-section search over it.  Ends are
    probed ``max(4e-12 * scale, 1e-6 * (b - a))`` inside, clear of the
    vertex window of :meth:`_SliceScanner._section`; a shorter interval is
    one point.

    A minimum ``d`` is kept only when the profile exceeds ``d + tol_opt``
    on both sides; by convexity the vertex heights decide that.  An
    interval is not searched when the meeting point of its end secants, a
    lower bound, fails that test, or with ``smallest`` cannot beat the
    smallest minimum so far.  With ``smallest`` the search is
    :func:`_convex_min` from the ends and the probes, which stops once
    convexity bounds the value to ``1e-13 * scale``, not at a fixed
    bracket width.
    """
    levels = sc._levels
    R = [sc.diam(t) for t in levels]
    # below[k] / above[k]: the largest value at vertex heights k and lower /
    # k and higher
    below = list(accumulate(R, max))
    above = list(accumulate(reversed(R), max))[::-1]
    eps = 1e-12 * sc.scale
    probes = []                          # per interval: value inside each end
    for a, b, ra, rb in zip(levels, levels[1:], R, R[1:]):
        delta = max(4.0 * eps, 1e-6 * (b - a))
        if b - a > 2.0 * delta:
            probes.append((sc.diam(a + delta), sc.diam(b - delta), delta))
        else:                            # too short for probes: one point
            probes.append((rb, ra, 0.0))

    out = []
    for k in range(1, len(levels) - 1):
        left, right = probes[k - 1][1], probes[k][0]
        if (min(left, right) >= R[k] and max(left, right) > R[k]
                and below[k - 1] > R[k] + tol_opt < above[k + 1]):
            out.append((R[k], levels[k]))
    best = min(out)[0] if out else math.inf
    # the interval searches, by ascending secant bound
    todo = []
    for k, (pa, pb, delta) in enumerate(probes):
        if not (pa < R[k] and pb < R[k + 1]):
            continue
        sa = (pa - R[k]) / delta
        sb = (R[k + 1] - pb) / delta
        gap = levels[k + 1] - levels[k] - 2.0 * delta    # probe to probe
        x = min(max((pb - pa - sb * gap) / (sa - sb), 0.0), gap)
        # the margin covers rounding in the secant slopes
        lb = pa + sa * x - 1e-9 * sc.scale
        if below[k] > lb + tol_opt < above[k + 1]:
            todo.append((lb, k))
    todo.sort()
    for lb, k in todo:
        if smallest and lb >= best:
            break
        a, b = levels[k], levels[k + 1]
        if smallest:
            pa, pb, delta = probes[k]
            t, d = None, _convex_min(sc.diam, [(a, R[k]), (a + delta, pa),
                                               (b - delta, pb), (b, R[k + 1])],
                                     1e-13 * sc.scale)
        else:
            t, d = golden_refine(sc.diam, a, b)
        if below[k] > d + tol_opt < above[k + 1]:
            out.append((d, t))
            best = min(best, d)
    if smallest:
        return best
    out.sort(key=lambda m: m[1])
    return out
