"""Convex polytopes in 3-space: hull construction, width and
circumscribing cylinders.

A :class:`Polytope3` stores hull vertices together with its facets as vertex
index cycles (coplanar triangles merged into one facet).  Edges are derived
from the facet cycles.  All polytopes here are full-dimensional; degenerate
inputs raise :class:`~circlehold.errors.DegenerateInput`.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, InvalidInput
from .planar import min_enclosing_circle
# the planar hull, as this module imported it; bench/tracing.py wraps it
# under this module's name
from .planar import convex_hull_2d  # noqa: F401
from .tolerances import TOL_GEOM


@dataclass(frozen=True)
class HalfSpace:
    """Region ``{x : normal . x <= offset}`` with unit outward normal."""

    normal: tuple[float, float, float]
    offset: float


@dataclass(frozen=True)
class WidthResult:
    width: float
    direction: np.ndarray
    lower_vertex: int
    upper_vertex: int


@dataclass(frozen=True)
class CylinderResult:
    """Circumscribing cylinder: all vertices within ``diameter/2`` of the
    axis line ``{axis_point + s * axis_direction}``."""

    diameter: float
    axis_point: np.ndarray
    axis_direction: np.ndarray


def _unit(v) -> np.ndarray:
    v = np.ascontiguousarray(v, float)
    # the dot product that np.linalg.norm takes, without its dispatch
    n = math.sqrt(v @ v)
    if n == 0:
        raise InvalidInput("zero vector has no direction")
    return v / n


def plane_frame(normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic right-handed frame ``(e1, e2, n)`` for a plane normal.

    ``e1`` is the unit vector along ``e_k - n_k n`` for the first ``k`` with
    the smallest ``|n_k|``, and ``e2 = n x e1``.  Written out on floats;
    the tests hold it to the ``np.cross`` construction bit for bit.
    """
    n = _unit(normal)
    nx, ny, nz = n.tolist()
    k, nk = 0, nx
    if abs(ny) < abs(nk):
        k, nk = 1, ny
    if abs(nz) < abs(nk):
        k, nk = 2, nz
    # 0.0 - t rather than -t, so that zeros keep the sign of e - n[k] * n
    e = [0.0 - nk * nx, 0.0 - nk * ny, 0.0 - nk * nz]
    e[k] = 1.0 - nk * nk
    e1 = _unit(e)
    ux, uy, uz = e1.tolist()
    e2 = np.array([ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux])
    return e1, e2, n


def _newell_sums(pts: list) -> tuple[float, float, float, float, float,
                                      float]:
    """Newell's sums of a (nearly) planar polygon, a list of ``(x, y, z)``
    floats, and the sums of its coordinates: the unnormalised normal, robust
    to noise, and ``len(pts)`` times the mean.  Both are accumulated in the
    order numpy's ``sum(axis=0)`` adds the rows."""
    nx = ny = nz = sx = sy = sz = 0.0
    for (ax, ay, az), (bx, by, bz) in zip(pts, pts[1:] + pts[:1]):
        nx += (ay - by) * (az + bz)
        ny += (az - bz) * (ax + bx)
        nz += (ax - bx) * (ay + by)
        sx += ax
        sy += ay
        sz += az
    return nx, ny, nz, sx, sy, sz


def _chain_cycle(edges: list[tuple[int, int]]) -> list[int]:
    """Order directed boundary edges into a single vertex cycle."""
    nxt = {}
    for a, b in edges:
        if a in nxt:
            raise DegenerateInput("facet boundary is not a simple cycle")
        nxt[a] = b
    start = edges[0][0]
    cyc = [start]
    cur = nxt[start]
    while cur != start:
        cyc.append(cur)
        if cur not in nxt or len(cyc) > len(edges):
            raise DegenerateInput("facet boundary does not close")
        cur = nxt[cur]
    if len(cyc) != len(edges):
        raise DegenerateInput("facet boundary has multiple loops")
    return cyc


class Polytope3:
    """Convex polytope: hull vertices plus facet cycles.

    ``faces[i]`` lists vertex indices counterclockwise as seen from outside.
    Construct through :func:`build_hull`, which removes non-extreme points
    and merges coplanar triangles, or pass prevalidated data directly.
    """

    def __init__(self, vertices: np.ndarray, faces: list[list[int]],
                 validate: bool = True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = [list(map(int, f)) for f in faces]
        edges: set[tuple[int, int]] = set()
        for f in self.faces:
            for a, b in zip(f, f[1:] + f[:1]):
                edges.add((a, b) if a < b else (b, a))
        self.edges: list[tuple[int, int]] = sorted(edges)
        self._normals: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        if validate:
            self.validate()

    # -- basic combinatorics -------------------------------------------------

    def validate(self) -> None:
        V, E, F = len(self.vertices), len(self.edges), len(self.faces)
        if V < 4:
            raise DegenerateInput(f"need at least 4 vertices, got {V}")
        if V - E + F != 2:
            raise InvalidInput(f"V - E + F = {V - E + F} != 2 "
                               f"(V={V}, E={E}, F={F})")
        n, b = self.face_planes()
        tol = 1e-7 * max(1.0, float(np.abs(self.vertices).max()))
        d = self.vertices @ n.T - b  # (V, F)
        if d.max() > tol:
            raise InvalidInput("a vertex lies outside a face plane; "
                               "faces are inconsistent with the hull")
        # every vertex extreme: each must attain the max in some face plane
        on_any = (np.abs(d) <= tol).any(axis=1)
        if not on_any.all():
            raise InvalidInput("vertex not on any face: input is not "
                               "a minimal hull description")

    def face_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and offsets; interior is ``n.x < b``.

        Newell's normal of each face, its offset at the face's mean vertex,
        flipped to point away from the vertex centroid.  The sums run on
        floats per face; norms, offsets and orientation tests are row dot
        products over all faces at once."""
        if self._normals is None:
            coords = self.vertices.tolist()
            sums = np.array([_newell_sums([coords[i] for i in f])
                             for f in self.faces])
            normals = sums[:, :3]
            ln = _row_norms(normals)
            if not ln.all():
                raise DegenerateInput("degenerate facet (collinear vertices)")
            normals = normals / ln[:, None]
            means = sums[:, 3:] / np.array([len(f) for f in self.faces],
                                           float)[:, None]
            offsets = _row_dots(normals, means)
            centroid = np.broadcast_to(self.vertices.mean(axis=0),
                                       normals.shape)
            flip = _row_dots(normals, centroid) > offsets
            normals[flip] = -normals[flip]
            offsets[flip] = -offsets[flip]
            self._normals = normals
            self._offsets = offsets
        return self._normals, self._offsets

    # -- metric queries -------------------------------------------------------

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @property
    def circumradius(self) -> float:
        c = self.centroid
        return float(np.linalg.norm(self.vertices - c, axis=1).max())

    def edge_segments(self) -> np.ndarray:
        """Edge endpoints as an ``(E, 2, 3)`` array."""
        idx = np.array(self.edges)
        return self.vertices[idx]

    def __repr__(self) -> str:
        return (f"Polytope3({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.faces)} faces)")


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------

def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[i] @ v[i]`` for each row, with the dot product of a 1-D ``@``."""
    return (u[:, None, :] @ v[:, :, None]).ravel()


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, with the same dot product per row."""
    return np.sqrt(_row_dots(v, v))


def _cross_norm(ux: float, uy: float, uz: float,
                vx: float, vy: float, vz: float) -> float:
    """``|u x v|`` on floats, with the component products of ``np.cross``."""
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return math.sqrt(cx * cx + cy * cy + cz * cz)


def _merge_coplanar(points: np.ndarray, hull: ConvexHull) -> list[list[int]]:
    """Group hull triangles into maximal coplanar facets and return ordered
    vertex cycles (counterclockwise from outside).

    The adjacency is Qhull's: ``hull.neighbors[f, k]`` is the triangle
    across the edge opposite ``hull.simplices[f, k]``.  One pass over
    Python floats: numpy's per-call overhead dominates at the few dozen
    triangles of a typical hull."""
    eq = hull.equations.tolist()  # n.x + d = 0, n outward
    tris = hull.simplices.tolist()
    nbrs = hull.neighbors.tolist()
    coords = points.tolist()
    nf = len(tris)
    # the body's own size: the offset and bend tests below are relative to
    # it at every scale
    scale = float(np.abs(points).max())

    # coplanarity, once for every two triangles that share an edge; the
    # offset test first, as it turns away most pairs
    linked: list[list[int]] = [[] for _ in range(nf)]
    for i, (ax, ay, az, ad) in enumerate(eq):
        for j in nbrs[i]:
            bx, by, bz, bd = eq[j]
            # parallel, not antiparallel: the two sides of a sliver are not
            # a facet
            if (i < j and abs(ad - bd) <= 1e-7 * scale
                    and ax * bx + ay * by + az * bz > 0
                    and _cross_norm(ax, ay, az, bx, by, bz) <= 1e-7):
                linked[i].append(j)
                linked[j].append(i)

    group = [-1] * nf
    members: list[list[int]] = []  # the triangles of each facet, in order
    for fi in range(nf):
        if group[fi] == -1:
            stack, facet = [fi], []
            group[fi] = len(members)
            while stack:
                facet.append(stack.pop())
                for nb in linked[facet[-1]]:
                    if group[nb] == -1:
                        group[nb] = len(members)
                        stack.append(nb)
            members.append(sorted(facet))

    cycles: list[list[int]] = []     # each facet's whole boundary cycle
    faces: list[list[int]] = []      # ... less its collinear vertices
    for gi, facet in enumerate(members):
        # each triangle wound to match the outward normal of the facet's
        # first triangle; the directed edges whose neighbour lies in another
        # facet (the facet boundary), in triangle order
        nx, ny, nz, _ = eq[facet[0]]
        boundary: list[tuple[int, int]] = []
        for fi in facet:
            t0, t1, t2 = tris[fi]
            n0, n1, n2 = nbrs[fi]
            (ax, ay, az), (bx, by, bz), (cx, cy, cz) = (
                coords[t0], coords[t1], coords[t2])
            ux, uy, uz = bx - ax, by - ay, bz - az
            vx, vy, vz = cx - ax, cy - ay, cz - az
            if ((uy * vz - uz * vy) * nx + (uz * vx - ux * vz) * ny
                    + (ux * vy - uy * vx) * nz < 0):
                t1, t2, n1, n2 = t2, t1, n2, n1
            boundary += [de for de, n in (((t0, t1), n2), ((t1, t2), n0),
                                          ((t2, t0), n1)) if group[n] != gi]
        if len(facet) == 1:
            # a lone triangle is its own boundary cycle, and the bend test
            # below keeps all three of its vertices or fewer than three
            cycles.append([t0, t1, t2])
            faces.append(cycles[-1])
            continue
        # drop vertices interior to a boundary edge (collinear chain points)
        cyc = _chain_cycle(boundary)
        cycles.append(cyc)
        pts = [coords[v] for v in cyc]
        keep = [v for v, (px, py, pz), (vx, vy, vz), (qx, qy, qz)
                in zip(cyc, pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])
                if _cross_norm(vx - px, vy - py, vz - pz, qx - vx, qy - vy,
                               qz - vz) > 1e-9 * scale * scale]
        faces.append(keep if len(keep) >= 3 else cyc)
    # a vertex kept by one facet stays in all: next to a very short edge it
    # may fail the bend test in some facets only
    kept = {v for f in faces for v in f}
    return [[v for v in cyc if v in kept] for cyc in cycles]


def build_hull(points) -> Polytope3:
    """Convex hull of a 3D point cloud as a :class:`Polytope3`.

    Coplanar hull triangles are merged into polygonal facets and points that
    are not hull vertices are discarded, so the result is a minimal
    description.  Repeated points go after a lexicographic sort, the row
    order of ``np.unique(axis=0)`` (of rows equal but for a zero's sign, the
    first given stays).  Raises :class:`DegenerateInput` when the points
    span fewer than 3 dimensions.  If Qhull or the merge fails, points
    joggled by ``1e-9`` of the scale are hulled, each candidate within
    ``1e-9`` in angle of a segment between two of its neighbours there is
    dropped, and the rest are merged on the original coordinates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInput(f"expected (m, 3) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidInput("points must be finite")
    pts = pts[np.lexsort(pts.T[::-1])]
    new = np.ones(len(pts), bool)
    new[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[new]
    if len(pts) < 4:
        raise DegenerateInput(f"need at least 4 distinct points, got {len(pts)}")
    d = pts - pts.mean(axis=0)
    sv = np.linalg.svd(d, compute_uv=False)  # what matrix_rank counts
    if (sv > 1e-10 * max(1.0, np.abs(pts).max())).sum() < 3:
        raise DegenerateInput("points are not full-dimensional")

    try:
        hull = ConvexHull(pts)
        faces = _merge_coplanar(pts, hull)
    except (QhullError, DegenerateInput):
        rng = np.random.default_rng(0)
        scale = max(1.0, float(np.abs(pts).max()))
        jit = pts + rng.normal(scale=1e-9 * scale, size=pts.shape)
        hull = ConvexHull(jit, qhull_options="QJ")
        nbrs: dict[int, set[int]] = {int(i): set() for i in hull.vertices}
        for tri in hull.simplices.tolist():
            for i in tri:
                nbrs[i].update(tri)
        keep = []
        for i, adj in nbrs.items():
            d = pts[sorted(adj - {i})] - pts[i]
            ln = _row_norms(d)
            # relative to the lengths: a neighbour a joggle away is no
            # evidence that the candidate lies on a segment
            crosses = np.linalg.norm(np.cross(d[:, None], d[None]), axis=2)
            if not ((crosses <= 1e-9 * np.outer(ln, ln))
                    & (d @ d.T < 0.0)).any():
                keep.append(i)
        hull_pts = pts[sorted(keep)]
        hull2 = ConvexHull(hull_pts, qhull_options="QJ")
        faces = _merge_coplanar(hull_pts, hull2)
        pts = hull_pts

    used = sorted({i for f in faces for i in f})
    remap = {old: new for new, old in enumerate(used)}
    verts = pts[used]
    faces = [[remap[i] for i in f] for f in faces]
    return Polytope3(verts, faces)


# ---------------------------------------------------------------------------
# width
# ---------------------------------------------------------------------------

def _sign_rounded(d: np.ndarray) -> np.ndarray:
    """Unit directions flipped in place so the largest component is
    positive, then rounded to 14 decimals: one representative per line
    (a zero's sign dropped)."""
    flip = d[np.arange(len(d)), np.argmax(np.abs(d), axis=1)] < 0
    d[flip] *= -1
    return np.round(d, 14) + 0.0


def _difference_hull(V: np.ndarray) -> ConvexHull:
    """Qhull's hull of the difference body ``K - K`` of ``K = conv(V)``,
    the hull of all vertex differences, in any dimension.

    The support function of ``K - K`` is ``K``'s breadth, so the width of
    ``K`` is the inradius of ``K - K``: its smallest facet offset, the
    breadth along that facet's normal (``equations[:, :-1]``).  The normal
    fan of ``K - K`` is the overlay of the Gauss maps of ``K`` and ``-K``,
    so these normals are that overlay's vertices (in 3-space: face normals,
    and the crosses of edge pairs whose Gauss arcs meet; Houle & Toussaint
    1988).  Both signs of each occur, and Qhull may split a facet into
    several that repeat or nearly repeat its normal; no direction's breadth
    is below the width, so the extras are harmless."""
    d = V.shape[1]
    return ConvexHull((V[:, None] - V[None]).reshape(-1, d))


def width3(K: Polytope3) -> WidthResult:
    """Exact width (minimal breadth) of a convex polytope.

    Breadth is the support function of the difference body ``K - K`` and
    the width its inradius, attained along one of its facet normals
    (:func:`_difference_hull`).  Those are made one per line and
    unique, and of the ones attaining the minimum the first in
    ``np.unique``'s lexicographic order wins.
    """
    V = K.vertices
    cands = np.unique(_sign_rounded(_difference_hull(V).equations[:, :-1]),
                      axis=0)
    proj = V @ cands.T  # (V, c)
    w = proj.max(axis=0) - proj.min(axis=0)
    k = int(np.argmin(w))
    return WidthResult(float(w[k]), cands[k], int(np.argmin(proj[:, k])),
                       int(np.argmax(proj[:, k])))


def _min_shadow_width(V: np.ndarray, n) -> float:
    """Exact minimum over ``theta`` of the horizontal width of the shadow
    of ``K = conv(V)`` on the plane spanned by ``u = cos(theta) e1 +
    sin(theta) e2`` and the unit vector ``n``.  That width is ``min_a
    breadth(u - a n)``, so the minimum is that of ``breadth(v) / |v x n|``
    over ``v`` not parallel to ``n``.  Points of ``V`` inside the hull do
    not change it.

    Breadth is the support function of ``K - K``, linear on each cell of
    its normal fan, the overlay of the Gauss maps of ``K`` and ``-K``.
    With ``v = u - a n`` the ratio is linear in ``a`` along a meridian
    through ``n``, and a positive sinusoid in ``theta``, hence concave,
    along any other great-circle arc.  So its minimum is at a cell vertex:
    a facet normal of ``K - K`` (:func:`_difference_hull`), rounded as
    in :func:`width3`.  For these unit candidates ``|v x n| =
    sqrt(1 - (v . n)^2)``."""
    cands = _sign_rounded(_difference_hull(V).equations[:, :-1])
    cos = cands @ np.asarray(n, float)
    sin = np.sqrt(1.0 - np.minimum(cos * cos, 1.0))
    ok = sin > 1e-12  # directions along n cast no finite ratio
    proj = V @ cands[ok].T
    ratio = (proj.max(axis=0) - proj.min(axis=0)) / sin[ok]
    return float(ratio.min(initial=math.inf))


# ---------------------------------------------------------------------------
# minimal circumscribing cylinder
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hemisphere_directions(level: int = 5) -> np.ndarray:
    """The Fibonacci lattice of ``n = 5 * 4**level`` unit directions on the
    upper hemisphere (González 2010), row ``i`` at ``z = (i + 1/2) / n`` and
    azimuth ``i * pi * (3 - sqrt(5))``: cached, so read-only."""
    n = 5 * 4 ** level
    i = np.arange(n)
    z = (i + 0.5) / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    s = np.sqrt(1.0 - z * z)
    out = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    out.setflags(write=False)
    return out


def _canonical_axes(axes) -> np.ndarray:
    """A copy of the rows of ``axes``, one sign per line: each is flipped
    when the first of its z, y, x beyond ``1e-12`` in size is negative."""
    A = np.array(axes, float)
    big = np.abs(A[:, ::-1]) > 1e-12
    lead = A[np.arange(len(A)), 2 - np.argmax(big, axis=1)]
    A[big.any(axis=1) & (lead < 0)] *= -1
    return A


def _cylinder_radius_for_axis(V: np.ndarray,
                              axis: np.ndarray) -> tuple[float, np.ndarray]:
    """Radius and a point of the axis line of the cylinder around ``V``
    along ``axis``: the enclosing circle's centre, in the frame of
    :func:`plane_frame`, and the farthest projected vertex, as that circle
    counts points within ``1e-12 * scale`` outside it as inside."""
    e1, e2, _ = plane_frame(axis)
    p2 = np.stack([V @ e1, V @ e2], axis=1)
    c = min_enclosing_circle(p2)
    r = float(np.hypot(p2[:, 0] - c.center[0], p2[:, 1] - c.center[1]).max())
    return r, c.center[0] * e1 + c.center[1] * e2


# in-plane directions of the radius lower bound: the half extent along any
# direction is at most the enclosing radius
_EXTENT_DIRECTIONS = [(math.cos(j * math.pi / 16), math.sin(j * math.pi / 16))
                      for j in range(16)]


def _best_grid_axes(V: np.ndarray, axes: np.ndarray,
                    keep: int) -> list[tuple[float, int]]:
    """The ``keep`` smallest cylinder radii over the rows of ``axes``, as
    ascending ``(radius, index)`` pairs; equal radii rank by index.

    The frames of all axes are built at once (the construction of
    :func:`plane_frame`) and the vertices are projected 256 axes at a time;
    an axis is always projected within its own chunk, so its coordinates do
    not depend on which other axes are evaluated.  Each axis gets a lower
    bound, half its largest projected extent over 16 in-plane directions,
    and exact radii (one enclosing circle each) are taken in order of
    increasing bound until the next bound exceeds the last kept radius by
    more than the enclosing circle's inclusion slack.
    """
    N = axes / np.linalg.norm(axes, axis=1)[:, None]
    k = np.argmin(np.abs(N), axis=1)
    E1 = -N[np.arange(len(N)), k][:, None] * N
    E1[np.arange(len(N)), k] += 1.0
    E1 /= np.linalg.norm(E1, axis=1)[:, None]
    E2 = np.cross(N, E1)

    def projections(lo: int) -> tuple[np.ndarray, np.ndarray]:
        return E1[lo:lo + 256] @ V.T, E2[lo:lo + 256] @ V.T

    bounds = np.empty(len(N))
    for lo in range(0, len(N), 256):
        X, Y = projections(lo)
        extent = np.zeros(len(X))
        for c, s in _EXTENT_DIRECTIONS:
            proj = c * X + s * Y
            np.maximum(extent, proj.max(axis=1) - proj.min(axis=1), out=extent)
        bounds[lo:lo + 256] = 0.5 * extent

    # points up to 1e-12 * max|coordinate| outside the enclosing circle
    # count as inside, so a radius can sit that far below its bound
    slack = 4e-12 * max(1.0, float(np.abs(V).max()))
    best: list[tuple[float, int]] = []
    for i in np.argsort(bounds, kind="stable").tolist():
        if len(best) == keep and bounds[i] > best[-1][0] + slack:
            break
        lo = i - i % 256
        X, Y = projections(lo)
        r = min_enclosing_circle(
            np.stack([X[i - lo], Y[i - lo]], axis=1)).radius
        insort(best, (r, i))
        del best[keep:]
    return best


def _polish_axis(f, starts, xatol: float, fatol: float,
                 maxiter: int) -> tuple[float, np.ndarray | None]:
    """Nelder-Mead minimum of ``f`` over unit axes in the polar angles
    ``(arccos z, atan2(y, x))``, run once per line of the unit starts (to
    ``1e-12``): the best run's value and axis, the first on ties."""
    def axis(x) -> np.ndarray:
        th, ph = x
        return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)])

    best_f, best_axis = math.inf, None
    lines: list[list[float]] = []
    for a in starts:
        if any(_cross_norm(*a.tolist(), *b) <= 1e-12 for b in lines):
            continue
        lines.append(a.tolist())
        x0 = (float(np.arccos(np.clip(a[2], -1, 1))),
              float(np.arctan2(a[1], a[0])))
        res = minimize(lambda x: f(axis(x)), np.array(x0),
                       method="Nelder-Mead",
                       options={"xatol": xatol, "fatol": fatol,
                                "maxiter": maxiter})
        if res.fun < best_f:
            best_f, best_axis = float(res.fun), axis(res.x)
    return best_f, best_axis


def min_cylinder(K: Polytope3, refine: bool = True,
                 grid_level: int = 5) -> CylinderResult:
    """Smallest circumscribing circular cylinder of a polytope.

    The radius for a fixed axis direction comes from the minimal enclosing
    circle of the projected vertices — an exact computation — but the
    dependence on the axis direction is only piecewise-smooth, so the five
    best of a Fibonacci hemisphere grid, the face normals and the edge
    directions (:func:`_best_grid_axes`; equal radii rank by candidate
    index) are polished by a simplex search, once per axis line.  The
    radius is the farthest projected vertex's distance from the axis, so
    the cylinder contains the body up to rounding: an upper bound that is
    exact whenever the optimal axis is among the candidates (e.g. a
    symmetry axis).
    """
    V = K.vertices
    n, _ = K.face_planes()
    segs = K.edge_segments()
    ed = segs[:, 1] - segs[:, 0]
    ed /= np.linalg.norm(ed, axis=1)[:, None]
    cands = _canonical_axes(np.vstack([_hemisphere_directions(grid_level), n,
                                       ed, np.eye(3)]))
    best = _best_grid_axes(V, cands, 5 if refine else 1)

    best_r, best_idx = best[0]
    best_axis = cands[best_idx]
    if refine:
        r, axis = _polish_axis(
            lambda a: _cylinder_radius_for_axis(V, a)[0],
            [cands[idx] for _, idx in best], 1e-10, 1e-13, 400)
        if r < best_r:
            best_axis = axis

    best_axis = _unit(best_axis)
    r, axis_point = _cylinder_radius_for_axis(V, best_axis)
    return CylinderResult(2.0 * r, axis_point, best_axis)


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

def point_location(K: Polytope3, point, tol: float = TOL_GEOM) -> str:
    """Classify a point against a polytope: ``"interior"``, ``"boundary"``
    or ``"exterior"`` (boundary within ``tol`` of a face plane, relative to
    the polytope's coordinate scale)."""
    n, b = K.face_planes()
    scale = max(1.0, float(np.abs(K.vertices).max()))
    d = float((n @ np.asarray(point, float) - b).max())
    if d > tol * scale:
        return "exterior"
    if d < -tol * scale:
        return "interior"
    return "boundary"


def segment_distance(p1, p2, q1, q2) -> float:
    """Minimal distance between two 3D segments."""
    p1, p2, q1, q2 = (np.asarray(x, float) for x in (p1, p2, q1, q2))
    u, v, w = p2 - p1, q2 - q1, p1 - q1
    a, b, c = u @ u, u @ v, v @ v
    d, e = u @ w, v @ w
    den = a * c - b * b
    if den > 1e-14 * max(a, c, 1e-300):
        s = np.clip((b * e - c * d) / den, 0.0, 1.0)
    else:
        s = 0.0
    t = (b * s + e) / c if c > 0 else 0.0
    t = np.clip(t, 0.0, 1.0)
    s = np.clip((b * t - d) / a, 0.0, 1.0) if a > 0 else 0.0
    return float(np.linalg.norm(p1 + s * u - (q1 + t * v)))
