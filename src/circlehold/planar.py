"""Planar convex machinery: widths, horizontal widths, enclosing and
inscribed circles, Hausdorff diagnostics.

Points are ``(s, t)`` pairs.  "Horizontal" always refers to the ``s``-axis.
A *strip* is the region between two parallel non-horizontal lines,

    ``{(s, t) : slope*t + b1 <= s <= slope*t + b2}``

and its *horizontal width* is ``b2 - b1``: the separation measured along the
``s``-axis.  The horizontal width of a convex set is the infimum of strip
widths over all such strips containing it.  It is invariant under the shear
``(s, t) -> (s + c*t, t)`` and never smaller than the ordinary planar width.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import hypot, inf
from random import Random

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .tolerances import TOL_GEOM


def as_points(points) -> np.ndarray:
    """Coerce input to an ``(m, 2)`` float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1 if pts.size == 0 else 1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInput(f"expected (m, 2) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidInput("points must be finite")
    return pts


def _hull(pts: list) -> list:
    """Counterclockwise hull of a list of finite ``(x, y)`` pairs, as a list
    of tuples from the lexicographically smallest: Andrew's monotone chain
    (Andrew 1979) on floats.

    Duplicates are dropped (``-0.0 == 0.0``).  The two chains keep every
    counterclockwise turn; then the flattest vertex is removed while it
    turns by at most ``1e-15·M²``, ``M`` the largest coordinate magnitude.
    So points off a hull edge only by rounding are not vertices, and no two
    vertices nearly coincide.  A set without such a turn gives its two
    extreme points, or one when they are within ``TOL_GEOM``.
    """
    P = sorted(set(map(tuple, pts)))
    hull = P
    if len(P) >= 3:
        hull = []
        for seq in (P, P[::-1]):
            chain: list = []
            for p in seq:
                cx, cy = p
                while len(chain) >= 2:
                    (ax, ay), (bx, by) = chain[-2], chain[-1]
                    if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0:
                        break
                    chain.pop()
                chain.append(p)
            hull += chain[:-1]
        M = max(-P[0][0], P[-1][0], max(map(abs, [y for _, y in P])))
        while len(hull) >= 3:
            turns = [(bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                     for (ax, ay), (bx, by), (cx, cy)
                     in zip(hull[-1:] + hull[:-1], hull, hull[1:] + hull[:1])]
            k = min(range(len(hull)), key=turns.__getitem__)
            if turns[k] > 1e-15 * M * M:
                return hull
            del hull[k]
        hull = [P[0], P[-1]]
    if len(hull) == 2 and hypot(hull[1][0] - hull[0][0],
                                hull[1][1] - hull[0][1]) <= TOL_GEOM:
        hull = hull[:1]
    return hull


def convex_hull_2d(points) -> np.ndarray:
    """Counterclockwise hull vertices of a 2D point set, starting at the
    lexicographically smallest.

    Collinear points and points off a hull edge only by rounding are not
    vertices.  Degenerate inputs (all points collinear or coincident) return
    the one or two extreme points instead of raising, so callers can flag
    thin slices.
    """
    return np.array(_hull(as_points(points).tolist()),
                    dtype=float).reshape(-1, 2)


class Polygon2:
    """Convex polygon given by counterclockwise vertices (a read-only
    copy, so the cached edge lines stay theirs)."""

    __slots__ = ("vertices", "_lines")

    def __init__(self, vertices, validate: bool = True):
        verts = as_points(vertices)
        if validate:
            if len(verts) < 3:
                raise DegenerateInput("polygon needs at least 3 vertices")
            e = np.roll(verts, -1, axis=0) - verts
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            scale = max(1.0, float(np.abs(verts).max()))
            if np.any(cross < -TOL_GEOM * scale * scale):
                raise InvalidInput("vertices are not in convex counterclockwise order")
        self.vertices = verts.copy()
        self.vertices.setflags(write=False)
        self._lines: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_points(cls, points) -> "Polygon2":
        verts = convex_hull_2d(points)
        if len(verts) < 3:
            raise DegenerateInput("points are collinear or coincident")
        return cls(verts, validate=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon2({len(self.vertices)} vertices)"

    def edge_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and offsets, read-only and computed once:
        interior is ``n.x <= b``."""
        if self._lines is None:
            v = self.vertices
            e = np.roll(v, -1, axis=0) - v
            n = np.stack([e[:, 1], -e[:, 0]], axis=1)
            ln = np.linalg.norm(n, axis=1)
            if np.any(ln <= 0):
                raise DegenerateInput("zero-length polygon edge")
            n = n / ln[:, None]
            b = np.einsum("ij,ij->i", n, v)
            n.setflags(write=False)
            b.setflags(write=False)
            self._lines = n, b
        return self._lines

    def contains(self, point) -> bool:
        n, b = self.edge_lines()
        p = np.asarray(point, float)
        return bool(np.all(n @ p <= b + TOL_GEOM))


@dataclass(frozen=True)
class Strip:
    """Region ``{(s, t) : slope*t + b1 <= s <= slope*t + b2}``."""

    slope: float
    b1: float
    b2: float

    @property
    def width(self) -> float:
        return self.b2 - self.b1

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        s, t = float(point[0]), float(point[1])
        x = s - self.slope * t
        return self.b1 - tol <= x <= self.b2 + tol


@dataclass(frozen=True)
class Circle2:
    center: tuple[float, float]
    radius: float


def _vertices_of(P) -> np.ndarray:
    if isinstance(P, Polygon2):
        return P.vertices
    return as_points(P)


def width2(P) -> tuple[float, np.ndarray]:
    """Ordinary planar width and a unit direction attaining it.

    Exact for convex polygons: the minimum breadth is attained along the
    outward normal of some edge, so it suffices to scan edges.  Degenerate
    inputs (segments) yield width ``0.0`` with a perpendicular direction.
    """
    verts = _vertices_of(P)
    if len(verts) < 2:
        raise DegenerateInput("width needs at least 2 points")
    if len(verts) == 2:
        e = verts[1] - verts[0]
        ln = np.linalg.norm(e)
        if ln == 0:
            raise DegenerateInput("coincident points have no width direction")
        return 0.0, np.array([e[1], -e[0]]) / ln
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(verts)
    n, b = poly.edge_lines()
    proj = poly.vertices @ n.T  # (m, edges)
    widths = b - proj.min(axis=0)
    k = int(np.argmin(widths))
    return float(widths[k]), n[k].copy()


def _narrowest_strip(h: list) -> tuple[float, float, float, float]:
    """``(width, slope, b1, b2)`` of the narrowest horizontal strip around
    the convex polygon ``h``, a non-empty list of ``(s, t)`` vertices in
    order.

    Over strips of slope ``a`` the width is ``f(a) = max_i(s_i - a*t_i) -
    min_i(s_i - a*t_i)``, convex and piecewise linear.  Its breakpoints,
    where an extreme vertex changes, are the slopes of the non-horizontal
    edges, and its minimum is at one of them: those slopes and ``0`` are
    the candidates, and the first narrowest wins.
    """
    ss, ts = [s for s, _ in h], [t for _, t in h]
    eps = 1e-14 * max(1.0, max(map(abs, ss)), max(map(abs, ts)))
    if max(ts) - min(ts) <= eps:
        # everything at one height: only vertical separation matters
        return max(ss) - min(ss), 0.0, min(ss), max(ss)
    slopes = [0.0] + [(s0 - s1) / (t0 - t1) for (s0, t0), (s1, t1)
                      in zip(h, h[1:] + h[:1]) if abs(t0 - t1) > eps]
    best = (inf, 0.0, 0.0, 0.0)
    for a in slopes:
        g = [s - a * t for s, t in h]
        lo, hi = min(g), max(g)
        if hi - lo < best[0]:
            best = (hi - lo, a, lo, hi)
    return best


def horizontal_width(P) -> tuple[float, Strip]:
    """Minimal horizontal width of a convex set and an optimal strip, from
    the O(m) edge slopes of its hull (see :func:`_narrowest_strip`).  Point
    sets are hulled once; a :class:`Polygon2` is taken as convex as it is.

    A horizontal segment has horizontal width equal to its length; a
    non-horizontal segment has horizontal width 0.
    """
    h = (P.vertices.tolist() if isinstance(P, Polygon2)
         else _hull(as_points(P).tolist()))
    if not h:
        raise DegenerateInput("empty point set")
    w, a, lo, hi = _narrowest_strip(h)
    return w, Strip(a, lo, hi)


def golden_refine(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimization (60 steps) of a scalar function on
    [lo, hi]: the final bracket's midpoint and its value."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = (a + b) / 2.0
    return xm, f(xm)


@dataclass(frozen=True)
class SplitWidths:
    """Horizontal widths of a convex set split by a horizontal line.

    ``upper``/``lower`` are the two halves, ``chord`` the common segment on
    the splitting line, ``union`` the whole set.  For a convex split the
    chord width equals the smaller half and the union width the larger one;
    the residuals measure how far the computed values are from that.
    """

    upper: float
    lower: float
    chord: float
    union: float
    residual_min: float
    residual_max: float


def clip_halfplane_2d(vertices: np.ndarray, normal, offset: float) -> np.ndarray:
    """Clip a convex polygon against ``normal . p <= offset``.

    The signed distances are one matrix product; the walk round the polygon
    runs on floats and drops each point within ``TOL_GEOM`` of the point
    kept before it, and the last point when it is within ``TOL_GEOM`` of
    the first."""
    verts = as_points(vertices)
    d = (verts @ np.asarray(normal, float) - offset).tolist()
    return np.array(_clip(verts.tolist(), d)).reshape(-1, 2)


def _clip(pts: list, d: list) -> list:
    """The walk of :func:`clip_halfplane_2d` round ``(x, y)`` pairs with
    signed distances ``d``: the points it keeps, as a list of tuples."""
    out: list[tuple[float, float]] = []

    def add(x: float, y: float) -> None:
        if not out or hypot(x - out[-1][0], y - out[-1][1]) > TOL_GEOM:
            out.append((x, y))

    for (px, py), (qx, qy), dp, dq in zip(pts, pts[1:] + pts[:1],
                                          d, d[1:] + d[:1]):
        if dp <= TOL_GEOM:
            add(px, py)
        if ((dp < -TOL_GEOM and dq > TOL_GEOM)
                or (dp > TOL_GEOM and dq < -TOL_GEOM)):
            lam = dp / (dp - dq)
            add(px + lam * (qx - px), py + lam * (qy - py))
    if len(out) > 1 and hypot(out[-1][0] - out[0][0],
                              out[-1][1] - out[0][1]) <= TOL_GEOM:
        out.pop()
    return out


def split_width_identities(P) -> SplitWidths:
    """Split a convex polygon by the horizontal line ``t = 0`` and
    report the four horizontal widths together with the identity residuals
    ``|w_h(chord) - min(upper, lower)|`` and ``|w_h(union) - max(...)|``.
    """
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    V = poly.vertices.tolist()
    t = [y for _, y in V]
    if max(t) <= TOL_GEOM or min(t) >= -TOL_GEOM:
        raise InvalidInput("polygon must have vertices strictly on both sides "
                           "of t = 0")
    upper = _clip(V, [-y for y in t])
    lower = _clip(V, t)
    chord = [p for p in upper if abs(p[1]) <= 10 * TOL_GEOM]
    wa = _narrowest_strip(_hull(upper))[0]
    wb = _narrowest_strip(_hull(lower))[0]
    wc = _narrowest_strip(_hull(chord))[0] if chord else 0.0
    wu = _narrowest_strip(V)[0]
    return SplitWidths(
        upper=wa, lower=wb, chord=wc, union=wu,
        residual_min=abs(wc - min(wa, wb)),
        residual_max=abs(wu - max(wa, wb)),
    )


# ---------------------------------------------------------------------------
# minimal enclosing circle (randomized incremental)
# ---------------------------------------------------------------------------

def _circum_3(ax, ay, bx, by, cx, cy) -> tuple[float, float, float] | None:
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    return ux, uy, hypot(ax - ux, ay - uy)


@lru_cache(maxsize=256)
def _shuffled_order(n: int) -> tuple[int, ...]:
    order = list(range(n))
    Random(1).shuffle(order)
    return tuple(order)


def _welzl(pts: list, eps: float) -> tuple[float, float, float]:
    """Smallest circle ``(cx, cy, r)`` around a non-empty list of finite
    ``(x, y)`` pairs: Welzl's randomized incremental build on plain floats.

    The points are taken in a fixed pseudo-random order per ``len(pts)``
    (``random.Random(1)``); a point counts as inside when it is within
    ``eps`` of the circle.
    """
    n = len(pts)
    if n > 3:
        pts = [pts[i] for i in _shuffled_order(n)]
    cx, cy = pts[0]
    r = 0.0
    for i in range(1, n):
        px, py = pts[i]
        if hypot(px - cx, py - cy) <= r + eps:
            continue
        cx, cy, r = px, py, 0.0
        for j in range(i):
            qx, qy = pts[j]
            if hypot(qx - cx, qy - cy) <= r + eps:
                continue
            cx, cy = (px + qx) / 2.0, (py + qy) / 2.0
            r = 0.5 * hypot(px - qx, py - qy)
            for k in range(j):
                sx, sy = pts[k]
                if hypot(sx - cx, sy - cy) <= r + eps:
                    continue
                c3 = _circum_3(px, py, qx, qy, sx, sy)
                if c3 is None:
                    # collinear triple: fall back to the farthest pair
                    pairs = ((px, py, qx, qy), (px, py, sx, sy),
                             (qx, qy, sx, sy))
                    ax, ay, bx, by = max(
                        pairs, key=lambda e: hypot(e[0] - e[2], e[1] - e[3]))
                    c3 = ((ax + bx) / 2.0, (ay + by) / 2.0,
                          0.5 * hypot(ax - bx, ay - by))
                cx, cy, r = c3
    return cx, cy, r


def min_enclosing_circle(points) -> Circle2:
    """Smallest circle containing all points (randomized incremental build).

    Deterministic: the build order depends on the number of points alone.
    The circle touches at least two of the points; when it touches exactly
    two they are antipodal.  No hull is needed first: the smallest circle
    of a set is that of its hull.  Points within ``1e-12`` times the
    largest coordinate magnitude (at least 1) of the circle count as
    inside.
    """
    pts = as_points(points)
    if not len(pts):
        raise InvalidInput("need at least one point")
    eps = 1e-12 * max(1.0, float(np.abs(pts).max()))
    cx, cy, r = _welzl(pts.tolist(), eps)
    return Circle2((cx, cy), r)


# ---------------------------------------------------------------------------
# largest inscribed circle (Chebyshev center)
# ---------------------------------------------------------------------------

def _offset_apex(n: list, b: list, i: int, j: int,
                 k: int) -> tuple[float, float, float] | None:
    """The point ``c`` and distance ``r`` with ``n_l . c + r = b_l`` for
    ``l = i, j, k``: where the three edge lines, moved inward by ``r``,
    meet.  Closed form on floats; ``None`` when two of the normals agree."""
    (xi, yi), (xj, yj), (xk, yk) = n[i], n[j], n[k]
    a1, a2, a3 = xi - xj, yi - yj, b[i] - b[j]
    c1, c2, c3 = xj - xk, yj - yk, b[j] - b[k]
    det = a1 * c2 - a2 * c1
    if det == 0.0:
        return None
    cx = (a3 * c2 - a2 * c3) / det
    cy = (a1 * c3 - a3 * c1) / det
    return cx, cy, b[j] - (xj * cx + yj * cy)


def chebyshev_inscribed(P) -> Circle2:
    """Largest circle inscribed in a convex polygon.

    Found by the wavefront of the polygon's straight skeleton (Aichholzer,
    Aurenhammer, Alberts & Gärtner, 1995): all edges move inward at unit
    speed, and an edge vanishes at the offset ``r`` where its line and its
    two current neighbours' lines meet.  Edges vanish in order of ``r``,
    each linking its two neighbours; the last three lines meet at the
    center of a largest inscribed circle.  An edge that continues its
    predecessor's line (a straight angle) is merged into it first.  The
    radius is ``min_i(b_i - n_i . c)`` over all edges, so it never
    overstates the circle; it is unique, and the returned center is one
    optimizer.  A polygon with a clockwise turn (clockwise order, or a
    reflex vertex) raises :class:`InvalidInput`.
    """
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    n, b = poly.edge_lines()
    nl, bl = n.tolist(), b.tolist()
    turns = [nl[i - 1][0] * nl[i][1] - nl[i - 1][1] * nl[i][0]
             for i in range(len(bl))]
    if min(turns) < -1e-14:
        raise InvalidInput("polygon is not convex and counterclockwise")
    live = [i for i in range(len(bl)) if turns[i] > 1e-14
            or nl[i - 1][0] * nl[i][0] + nl[i - 1][1] * nl[i][1] < 0.0]
    nl, bl = [nl[i] for i in live], [bl[i] for i in live]
    m = len(bl)
    prv = [(p - 1) % m for p in range(m)]
    nxt = [(p + 1) % m for p in range(m)]

    def vanish(p: int) -> float:
        apex = _offset_apex(nl, bl, prv[p], p, nxt[p])
        return inf if apex is None else apex[2]

    when: list[float | None] = [vanish(p) for p in range(m)]
    heap = [(r, p) for p, r in enumerate(when)]
    heapq.heapify(heap)
    last = 0
    for _ in range(m - 3):
        r, p = heapq.heappop(heap)
        while r != when[p]:  # superseded by a later event time
            r, p = heapq.heappop(heap)
        when[p] = None
        a, c = prv[p], nxt[p]
        nxt[a], prv[c] = c, a
        for q in (a, c):
            when[q] = vanish(q)
            heapq.heappush(heap, (when[q], q))
        last = a
    apex = _offset_apex(nl, bl, prv[last], last, nxt[last]) if m >= 3 else None
    # fewer than three distinct lines: the polygon is a segment
    center = poly.vertices.mean(axis=0) if apex is None else np.array(apex[:2])
    return Circle2((float(center[0]), float(center[1])),
                   float(np.min(b - n @ center)))


# ---------------------------------------------------------------------------
# Hausdorff distance and shape fitting
# ---------------------------------------------------------------------------

def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    L2 = float(ab @ ab)
    if L2 == 0.0:
        return float(np.linalg.norm(p - a))
    lam = float(np.clip((p - a) @ ab / L2, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + lam * ab)))


def point_polygon_distance(point, P) -> float:
    """Euclidean distance from a point to a convex polygon (0 if inside)."""
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    p = np.asarray(point, float)
    if poly.contains(p):
        return 0.0
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    return min(_point_segment_distance(p, v[i], w[i]) for i in range(len(v)))


def hausdorff_distance(P, Q) -> float:
    """Symmetric Hausdorff distance between convex polygons.

    Exact: on a convex set the distance-to-the-other-set function is convex,
    so each directed supremum is attained at a vertex.
    """
    pp = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    qq = Q if isinstance(Q, Polygon2) else Polygon2.from_points(Q)
    d1 = max(point_polygon_distance(v, qq) for v in pp.vertices)
    d2 = max(point_polygon_distance(v, pp) for v in qq.vertices)
    return max(d1, d2)


def equilateral_triangle(height: float, angle: float = 0.0,
                         center=(0.0, 0.0)) -> Polygon2:
    """Equilateral triangle of given height, circumcenter ``center``, one
    vertex in direction ``angle``."""
    rc = 2.0 * height / 3.0
    c = np.asarray(center, float)
    ang = angle + np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    verts = c + rc * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Polygon2(verts, validate=False)


# ---------------------------------------------------------------------------
# random polygon generators (for property-style tests)
# ---------------------------------------------------------------------------

def random_convex_polygon(rng: np.random.Generator) -> Polygon2:
    """Convex hull of ``k`` uniform points in the unit disk, ``k`` in
    [5, 30]."""
    while True:
        k = int(rng.integers(5, 31))
        r = np.sqrt(rng.random(k))
        ang = rng.random(k) * 2.0 * np.pi
        pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        hull = convex_hull_2d(pts)
        if len(hull) >= 3:
            return Polygon2(hull, validate=False)


def random_axis_crossing_polygon(rng: np.random.Generator) -> Polygon2:
    """Random convex polygon with vertices strictly on both sides of t = 0."""
    poly = random_convex_polygon(rng)
    t = poly.vertices[:, 1]
    lo, hi = float(t.min()), float(t.max())
    # place the axis strictly inside the vertical extent
    u = 0.2 + 0.6 * rng.random()
    shift = lo + u * (hi - lo)
    verts = poly.vertices.copy()
    verts[:, 1] -= shift
    return Polygon2(verts, validate=False)
