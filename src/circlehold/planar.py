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

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import hypot
from random import Random

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, InvalidInput
from .tolerances import TOL_GEOM


def as_points(points) -> np.ndarray:
    """Coerce input to an ``(m, 2)`` float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1 if pts.size == 0 else 1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInput(f"expected (m, 2) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("points must be finite")
    return pts


def convex_hull_2d(points, tol: float = TOL_GEOM) -> np.ndarray:
    """Counterclockwise hull vertices of a 2D point set.

    Degenerate inputs (all points collinear or coincident) return the one or
    two extreme points instead of raising, so callers can flag thin slices.
    """
    pts = as_points(points)
    pts = np.unique(pts, axis=0)
    if len(pts) < 3:
        return pts
    try:
        hull = ConvexHull(pts)
    except QhullError:
        # collinear: order along the longest spread direction
        d = pts - pts.mean(axis=0)
        u = d[np.argmax(np.einsum("ij,ij->i", d, d))]
        n = np.linalg.norm(u)
        if n <= tol:
            return pts[:1]
        proj = d @ (u / n)
        return pts[[np.argmin(proj), np.argmax(proj)]]
    verts = pts[hull.vertices]  # Qhull returns CCW order in 2D
    return verts


def _poly_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class Polygon2:
    """Convex polygon given by counterclockwise vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices, validate: bool = True, tol: float = TOL_GEOM):
        verts = as_points(vertices)
        if validate:
            if len(verts) < 3:
                raise DegenerateInput("polygon needs at least 3 vertices")
            e = np.roll(verts, -1, axis=0) - verts
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            scale = max(1.0, float(np.abs(verts).max()))
            if np.any(cross < -tol * scale * scale):
                raise InvalidInput("vertices are not in convex counterclockwise order")
        self.vertices = verts

    @classmethod
    def from_points(cls, points, tol: float = TOL_GEOM) -> "Polygon2":
        verts = convex_hull_2d(points, tol)
        if len(verts) < 3:
            raise DegenerateInput("points are collinear or coincident")
        return cls(verts, validate=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon2({len(self.vertices)} vertices)"

    @property
    def area(self) -> float:
        return _poly_area(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        a = cr.sum() / 2.0
        if abs(a) < 1e-300:
            return v.mean(axis=0)
        return (v + w).T @ cr / (6.0 * a)

    def support(self, u) -> float:
        return float((self.vertices @ np.asarray(u, float)).max())

    def breadth(self, u) -> float:
        proj = self.vertices @ np.asarray(u, float)
        return float(proj.max() - proj.min())

    def edge_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and offsets: interior is ``n.x <= b``."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        ln = np.linalg.norm(n, axis=1)
        if np.any(ln <= 0):
            raise DegenerateInput("zero-length polygon edge")
        n = n / ln[:, None]
        b = np.einsum("ij,ij->i", n, v)
        return n, b

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        n, b = self.edge_lines()
        p = np.asarray(point, float)
        return bool(np.all(n @ p <= b + tol))


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

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        d = np.hypot(point[0] - self.center[0], point[1] - self.center[1])
        return d <= self.radius + tol


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
    return float(widths[k]), n[k]


def breadth2(P, u) -> float:
    verts = _vertices_of(P)
    proj = verts @ np.asarray(u, float)
    return float(proj.max() - proj.min())


def horizontal_width(P) -> tuple[float, Strip]:
    """Minimal horizontal width of a convex set and an optimal strip.

    Over strips of slope ``a`` the needed width is
    ``f(a) = max_i(s_i - a*t_i) - min_i(s_i - a*t_i)``,
    a convex piecewise-linear function of ``a`` whose minimum sits at a
    breakpoint where two points tie, i.e. at a pairwise slope
    ``(s_i - s_j)/(t_i - t_j)``.  Enumerating those slopes is exact.

    A horizontal segment has horizontal width equal to its length; a
    non-horizontal segment has horizontal width 0.
    """
    verts = _vertices_of(P)
    if len(verts) == 0:
        raise DegenerateInput("empty point set")
    s, t = verts[:, 0], verts[:, 1]
    t_span = float(t.max() - t.min())
    scale = max(1.0, float(np.abs(verts).max()))
    if t_span <= 1e-14 * scale:
        # everything at one height: only vertical separation matters
        return float(s.max() - s.min()), Strip(0.0, float(s.min()), float(s.max()))

    slopes = [0.0]
    for i, j in combinations(range(len(verts)), 2):
        dt = t[i] - t[j]
        if abs(dt) > 1e-14 * scale:
            slopes.append((s[i] - s[j]) / dt)

    best_w = np.inf
    best: Strip | None = None
    for a in slopes:
        g = s - a * t
        lo, hi = float(g.min()), float(g.max())
        if hi - lo < best_w:
            best_w = hi - lo
            best = Strip(float(a), lo, hi)
    assert best is not None
    return float(best_w), best


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


def clip_halfplane_2d(vertices: np.ndarray, normal, offset: float,
                      tol: float = TOL_GEOM) -> np.ndarray:
    """Clip a convex polygon against ``normal . p <= offset``."""
    n = np.asarray(normal, float)
    verts = as_points(vertices)
    d = verts @ n - offset
    out = []
    m = len(verts)
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        dp, dq = d[i], d[(i + 1) % m]
        if dp <= tol:
            out.append(p)
        if (dp < -tol and dq > tol) or (dp > tol and dq < -tol):
            lam = dp / (dp - dq)
            out.append(p + lam * (q - p))
    if not out:
        return np.empty((0, 2))
    res = np.array(out)
    keep = [0]
    for i in range(1, len(res)):
        if np.linalg.norm(res[i] - res[keep[-1]]) > tol:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(res[keep[-1]] - res[keep[0]]) <= tol:
        keep.pop()
    return res[keep]


def split_width_identities(P, level: float = 0.0, tol: float = TOL_GEOM) -> SplitWidths:
    """Split a convex polygon by the horizontal line ``t = level`` and
    report the four horizontal widths together with the identity residuals
    ``|w_h(chord) - min(upper, lower)|`` and ``|w_h(union) - max(...)|``.
    """
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    t = poly.vertices[:, 1]
    if t.max() <= level + tol or t.min() >= level - tol:
        raise InvalidInput("polygon must have vertices strictly on both sides "
                           f"of t = {level}")
    upper = clip_halfplane_2d(poly.vertices, (0.0, -1.0), -level, tol)
    lower = clip_halfplane_2d(poly.vertices, (0.0, 1.0), level, tol)
    chord = upper[np.abs(upper[:, 1] - level) <= 10 * tol]
    wa, _ = horizontal_width(upper)
    wb, _ = horizontal_width(lower)
    wc, _ = horizontal_width(chord) if len(chord) else (0.0, None)
    wu, _ = horizontal_width(poly.vertices)
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
def _shuffled_order(n: int, seed: int) -> tuple[int, ...]:
    order = list(range(n))
    Random(seed).shuffle(order)
    return tuple(order)


def _welzl(pts: list, eps: float, seed: int) -> tuple[float, float, float]:
    """Smallest circle ``(cx, cy, r)`` around a non-empty list of finite
    ``(x, y)`` pairs: Welzl's randomized incremental build on plain floats.

    The points are taken in a fixed pseudo-random order per ``(len(pts),
    seed)``; a point counts as inside when it is within ``eps`` of the
    circle.
    """
    n = len(pts)
    if n > 3:
        pts = [pts[i] for i in _shuffled_order(n, seed)]
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


def min_enclosing_circle(points, seed: int = 1) -> Circle2:
    """Smallest circle containing all points (randomized incremental build).

    Deterministic for a given ``seed``.  The circle touches at least two of
    the points; when it touches exactly two they are antipodal.  No hull is
    needed first: the smallest circle of a set is that of its hull.  Points
    within ``1e-12`` times the largest coordinate magnitude (at least 1) of
    the circle count as inside.
    """
    pts = as_points(points)
    if not len(pts):
        raise InvalidInput("need at least one point")
    eps = 1e-12 * max(1.0, float(np.abs(pts).max()))
    cx, cy, r = _welzl(pts.tolist(), eps, seed)
    return Circle2((cx, cy), r)


def circle_support_points(circle: Circle2, points, rtol: float = 1e-7) -> np.ndarray:
    """Points lying on the circle boundary (within ``rtol`` relative slack)."""
    pts = as_points(points)
    d = np.hypot(pts[:, 0] - circle.center[0], pts[:, 1] - circle.center[1])
    tol = rtol * max(circle.radius, 1e-30)
    return pts[np.abs(d - circle.radius) <= tol]


# ---------------------------------------------------------------------------
# largest inscribed circle (Chebyshev center)
# ---------------------------------------------------------------------------

def chebyshev_inscribed(P, tol: float = TOL_GEOM) -> Circle2:
    """Largest circle inscribed in a convex polygon.

    Solved as the linear program ``max r  s.t.  n_i . c + r <= b_i`` and then
    polished by solving the 3x3 systems of near-active edge triples exactly,
    which recovers the optimum to machine precision (the LP solver alone
    stops around 1e-9).  The radius is unique; the returned center is one
    optimizer.
    """
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    n, b = poly.edge_lines()
    m = len(b)
    A = np.column_stack([n, np.ones(m)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        raise DegenerateInput(f"inscribed-circle LP failed: {res.message}")
    c = np.array(res.x[:2])

    def true_radius(center):
        return float(np.min(b - n @ center))

    best_c, best_r = c, true_radius(c)
    slack = b - n @ c - best_r
    active = np.flatnonzero(slack <= 1e-6 * max(1.0, abs(best_r)))
    for trip in combinations(active.tolist(), 3):
        M = A[list(trip)]
        try:
            sol = np.linalg.solve(M, b[list(trip)])
        except np.linalg.LinAlgError:
            continue
        r = true_radius(sol[:2])
        if r > best_r:
            best_c, best_r = sol[:2], r
    return Circle2((float(best_c[0]), float(best_c[1])), best_r)


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


def best_fit_equilateral(P, height: float | None = None):
    """Best rotation+translation fit of an equilateral triangle to a polygon.

    The triangle height is fixed (default: the polygon's planar width, which
    is the height the triangle would have if the fit were perfect).  Returns
    ``(triangle, hausdorff_distance, angle, center)``.  Deterministic:
    coarse angle grid followed by a Nelder-Mead polish.
    """
    poly = P if isinstance(P, Polygon2) else Polygon2.from_points(P)
    if height is None:
        height, _ = width2(poly)
    cen = poly.centroid

    def cost(x):
        ang, cx, cy = x
        return hausdorff_distance(poly, equilateral_triangle(height, ang, (cx, cy)))

    best = None
    for ang in np.linspace(0.0, 2.0 * np.pi / 3.0, 48, endpoint=False):
        c = cost((ang, cen[0], cen[1]))
        if best is None or c < best[1]:
            best = ((ang, cen[0], cen[1]), c)
    x0 = np.array(best[0])
    res = minimize(cost, x0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 600})
    x = res.x if res.fun <= best[1] else x0
    d = min(float(res.fun), best[1])
    tri = equilateral_triangle(height, float(x[0]), (float(x[1]), float(x[2])))
    return tri, d, float(x[0]), (float(x[1]), float(x[2]))


# ---------------------------------------------------------------------------
# random polygon generators (for property-style tests)
# ---------------------------------------------------------------------------

def random_convex_polygon(rng: np.random.Generator, k_min: int = 5,
                          k_max: int = 30, radius: float = 1.0) -> Polygon2:
    """Convex hull of ``k`` uniform points in a disk, ``k`` in [k_min, k_max]."""
    while True:
        k = int(rng.integers(k_min, k_max + 1))
        r = radius * np.sqrt(rng.random(k))
        ang = rng.random(k) * 2.0 * np.pi
        pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        hull = convex_hull_2d(pts)
        if len(hull) >= 3:
            return Polygon2(hull, validate=False)


def random_axis_crossing_polygon(rng: np.random.Generator, **kw) -> Polygon2:
    """Random convex polygon with vertices strictly on both sides of t = 0."""
    poly = random_convex_polygon(rng, **kw)
    t = poly.vertices[:, 1]
    lo, hi = float(t.min()), float(t.max())
    # place the axis strictly inside the vertical extent
    u = 0.2 + 0.6 * rng.random()
    shift = lo + u * (hi - lo)
    verts = poly.vertices.copy()
    verts[:, 1] -= shift
    return Polygon2(verts, validate=False)
