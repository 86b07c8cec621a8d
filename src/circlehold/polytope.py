"""Convex polytopes in 3-space: hull construction, width, circumscribing
cylinders, clipping, and plane sections.

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
from itertools import combinations

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, EmptyResult, InvalidInput
from .planar import Circle2, convex_hull_2d, min_enclosing_circle
from .tolerances import TOL_GEOM


@dataclass(frozen=True)
class HalfSpace:
    """Region ``{x : normal . x <= offset}`` with unit outward normal."""

    normal: tuple[float, float, float]
    offset: float

    def signed_distance(self, point) -> float:
        return float(np.dot(self.normal, point) - self.offset)

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        return self.signed_distance(point) <= tol


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
    the smallest ``|n_k|``, and ``e2 = n x e1``.  Written out on floats:
    this runs once per escape-search clearance check.
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

    def validate(self, tol: float = 1e-7) -> None:
        V, E, F = len(self.vertices), len(self.edges), len(self.faces)
        if V < 4:
            raise DegenerateInput(f"need at least 4 vertices, got {V}")
        if V - E + F != 2:
            raise InvalidInput(f"V - E + F = {V - E + F} != 2 "
                               f"(V={V}, E={E}, F={F})")
        n, b = self.face_planes()
        scale = max(1.0, float(np.abs(self.vertices).max()))
        d = self.vertices @ n.T - b  # (V, F)
        if d.max() > tol * scale:
            raise InvalidInput("a vertex lies outside a face plane; "
                               "faces are inconsistent with the hull")
        # every vertex extreme: each must attain the max in some face plane
        on_any = (np.abs(d) <= tol * scale).any(axis=1)
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

    def breadth(self, u) -> float:
        proj = self.vertices @ np.asarray(u, float)
        return float(proj.max() - proj.min())

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

    def transformed(self, rotation=None, translation=None) -> "Polytope3":
        """Rigidly move the polytope (rotation about origin, then shift)."""
        verts = self.vertices
        if rotation is not None:
            verts = verts @ np.asarray(rotation, float).T
        if translation is not None:
            verts = verts + np.asarray(translation, float)
        return Polytope3(verts, self.faces, validate=False)

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        n, b = self.face_planes()
        return bool(np.all(n @ np.asarray(point, float) <= b + tol))

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


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products: the component products and differences of
    ``np.cross``, without its axis handling."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=1)


def _merge_coplanar(points: np.ndarray, hull: ConvexHull,
                    angle_tol: float = 1e-7) -> list[list[int]]:
    """Group hull triangles into maximal coplanar facets and return ordered
    vertex cycles (counterclockwise from outside)."""
    eq = hull.equations  # (F, 4): n.x + d = 0, n outward
    simplices = hull.simplices
    tris = simplices.tolist()
    nf = len(tris)
    scale = max(1.0, float(np.abs(points).max()))

    # adjacency via shared undirected edges
    edge_owner: dict[tuple[int, int], list[int]] = {}
    for fi, (a, b, c) in enumerate(tris):
        for e in ((a, b) if a < b else (b, a), (b, c) if b < c else (c, b),
                  (c, a) if c < a else (a, c)):
            edge_owner.setdefault(e, []).append(fi)

    # coplanarity of every two triangles that share an edge, in one batch
    pairs = np.array([p for owners in edge_owner.values()
                      for p in combinations(owners, 2)])
    eq_i, eq_j = eq[pairs[:, 0]], eq[pairs[:, 1]]
    tilt = _row_norms(_cross_rows(eq_i[:, :3], eq_j[:, :3]))
    flat = (tilt <= angle_tol) & (np.abs(eq_i[:, 3] - eq_j[:, 3])
                                  <= 1e-7 * scale)
    linked: list[list[int]] = [[] for _ in range(nf)]
    for i, j in pairs[flat].tolist():
        linked[i].append(j)
        linked[j].append(i)

    group = [-1] * nf
    members: list[list[int]] = []  # the triangles of each facet, in order
    for fi in range(nf):
        if group[fi] != -1:
            continue
        stack = [fi]
        group[fi] = len(members)
        while stack:
            for nb in linked[stack.pop()]:
                if group[nb] == -1:
                    group[nb] = len(members)
                    stack.append(nb)
        members.append([])
    for fi, gi in enumerate(group):
        members[gi].append(fi)

    # orient each triangle so its winding matches the outward normal of its
    # facet's first triangle
    a = points[simplices[:, 0]]
    wind = _cross_rows(points[simplices[:, 1]] - a,
                       points[simplices[:, 2]] - a)
    nrm = eq[[m[0] for m in members], :3][group]
    flipped = ((wind[:, None, :] @ nrm[:, :, None]).ravel() < 0).tolist()

    faces: list[list[int]] = []
    merged: list[int] = []  # the facets of more than one triangle
    for facet in members:
        if len(facet) == 1:
            # a lone triangle is its own boundary cycle, and the bend test
            # below keeps all three of its vertices or fewer than three
            tri = tris[facet[0]]
            faces.append([tri[0], tri[2], tri[1]] if flipped[facet[0]]
                         else tri)
            continue
        # keep only the directed edges used once (the facet boundary)
        count: dict[tuple[int, int], int] = {}
        directed: list[tuple[int, int]] = []
        for fi in facet:
            tri = tris[fi]
            if flipped[fi]:
                tri = [tri[0], tri[2], tri[1]]
            for i in range(3):
                de = (tri[i], tri[(i + 1) % 3])
                count[de] = count.get(de, 0) + 1
                directed.append(de)
        boundary = [de for de in directed
                    if count.get(de, 0) == 1 and count.get((de[1], de[0]), 0) == 0]
        merged.append(len(faces))
        faces.append(_chain_cycle(boundary))
    if not merged:
        return faces

    # drop vertices interior to a boundary edge (collinear chain points),
    # all merged facet cycles in one batch
    cycles = [faces[k] for k in merged]
    pts = points[[v for c in cycles for v in c]]
    prev_idx = [v for c in cycles for v in c[-1:] + c[:-1]]
    next_idx = [v for c in cycles for v in c[1:] + c[:1]]
    bend = _row_norms(_cross_rows(pts - points[prev_idx],
                                  points[next_idx] - pts))
    keep_all = (bend > 1e-9 * scale * scale).tolist()
    start = 0
    for k, cyc in zip(merged, cycles):
        keep = [v for v, kp in zip(cyc, keep_all[start:start + len(cyc)]) if kp]
        if len(keep) >= 3:
            faces[k] = keep
        start += len(cyc)
    return faces


def build_hull(points, tol: float = TOL_GEOM) -> Polytope3:
    """Convex hull of a 3D point cloud as a :class:`Polytope3`.

    Coplanar hull triangles are merged into polygonal facets and points that
    are not hull vertices are discarded, so the result is a minimal
    description.  Raises :class:`DegenerateInput` when the points span fewer
    than 3 dimensions.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInput(f"expected (m, 3) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("points must be finite")
    pts = np.unique(pts, axis=0)
    if len(pts) < 4:
        raise DegenerateInput(f"need at least 4 distinct points, got {len(pts)}")
    d = pts - pts.mean(axis=0)
    if np.linalg.matrix_rank(d, tol=1e-10 * max(1.0, np.abs(pts).max())) < 3:
        raise DegenerateInput("points are not full-dimensional")

    try:
        hull = ConvexHull(pts)
        faces = _merge_coplanar(pts, hull)
    except (QhullError, DegenerateInput):
        # jitter fallback: perturb, hull, then rebuild facets on the
        # original coordinates
        rng = np.random.default_rng(0)
        scale = max(1.0, float(np.abs(pts).max()))
        jit = pts + rng.normal(scale=1e-9 * scale, size=pts.shape)
        hull = ConvexHull(jit, qhull_options="QJ")
        hull_pts = pts[np.unique(hull.vertices)]
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

def _candidate_width_directions(K: Polytope3) -> np.ndarray:
    """Directions that can attain the width of a polytope: face normals and
    cross products of edge-direction pairs (vertex-vertex and edge-edge
    antipodal configurations)."""
    n, _ = K.face_planes()
    segs = K.edge_segments()
    dirs = segs[:, 1] - segs[:, 0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # dedupe edge directions up to sign: a direction within 1e-12 of an
    # earlier kept one is dropped (compared 64 rows at a time)
    flip = dirs[np.arange(len(dirs)), np.argmax(np.abs(dirs), axis=1)] < 0
    dirs[flip] *= -1
    keep = np.ones(len(dirs), bool)
    for lo in range(0, len(dirs), 64):
        hi = min(lo + 64, len(dirs))
        diff = (dirs[lo:hi, None] - dirs[None, :hi]).reshape(-1, 3)
        near = _row_norms(diff).reshape(hi - lo, hi) < 1e-12
        for r, j in zip(*np.nonzero(np.tril(near, lo - 1))):
            if keep[j]:
                keep[lo + r] = False
    dirs = dirs[keep]
    i, j = np.triu_indices(len(dirs), 1)
    c = np.cross(dirs[i], dirs[j])
    ln = _row_norms(c)
    ok = ln > 1e-12
    out = np.vstack([n, c[ok] / ln[ok, None]])
    flip = out[np.arange(len(out)), np.argmax(np.abs(out), axis=1)] < 0
    out[flip] *= -1
    return np.unique(np.round(out, 14), axis=0)


def width3(K: Polytope3) -> WidthResult:
    """Exact width (minimal breadth) of a convex polytope.

    The minimizing direction is either a face normal or perpendicular to a
    pair of edge directions, so the exact minimum is found by enumerating
    those finitely many candidates.
    """
    cands = _candidate_width_directions(K)
    V = K.vertices
    best_w = np.inf
    best = None
    for start in range(0, len(cands), 512):
        chunk = cands[start:start + 512]
        proj = V @ chunk.T  # (V, c)
        hi = proj.max(axis=0)
        lo = proj.min(axis=0)
        w = hi - lo
        k = int(np.argmin(w))
        if w[k] < best_w:
            best_w = float(w[k])
            u = chunk[k]
            best = WidthResult(best_w, u,
                               int(np.argmin(proj[:, k])),
                               int(np.argmax(proj[:, k])))
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# clipping and plane sections
# ---------------------------------------------------------------------------

def _plane_cut(K: Polytope3, n: np.ndarray, offset: float,
               tol: float) -> tuple[np.ndarray, float, list]:
    """Signed distances ``n . v - offset`` of the vertices, the window
    ``tol * scale`` within which a vertex counts as on the plane, and the
    points where edges cross the plane from one side of the window to the
    other."""
    d = K.vertices @ n - offset
    eps = tol * max(1.0, float(np.abs(K.vertices).max()))
    cross = []
    for a, b in K.edges:
        da, db = d[a], d[b]
        if (da < -eps and db > eps) or (da > eps and db < -eps):
            lam = da / (da - db)
            cross.append(K.vertices[a] + lam * (K.vertices[b] - K.vertices[a]))
    return d, eps, cross


def clip_halfspace(K: Polytope3, hs: HalfSpace, tol: float = TOL_GEOM) -> Polytope3:
    """Intersection of a polytope with a half-space, as a new polytope."""
    d, eps, cross = _plane_cut(K, np.asarray(hs.normal, float), hs.offset, tol)
    if d.max() <= eps:
        return K
    if d.min() >= -eps:
        raise EmptyResult("half-space removes the whole polytope")
    pts = [K.vertices[i] for i in np.flatnonzero(d <= eps)] + cross
    if len(pts) < 4:
        raise EmptyResult("clipped region is not full-dimensional")
    return build_hull(np.array(pts))


@dataclass
class PlanarSection:
    """Cross-section of a polytope by a plane ``normal . x = offset``.

    ``points2`` are the section's hull vertices in the plane's own frame
    (see :func:`plane_frame`); ``kind`` is ``"polygon"``, ``"segment"``,
    ``"point"`` or ``"empty"``.
    """

    normal: np.ndarray
    offset: float
    frame: tuple[np.ndarray, np.ndarray, np.ndarray]
    points2: np.ndarray
    kind: str

    def circumcircle(self, seed: int = 1) -> Circle2:
        if self.kind == "empty":
            raise EmptyResult("empty section has no circumcircle")
        return min_enclosing_circle(self.points2, seed=seed)


def slice_plane(K: Polytope3, normal, offset: float,
                tol: float = TOL_GEOM) -> PlanarSection:
    """Cross-section of a polytope by the plane ``normal . x = offset``."""
    ln = float(np.linalg.norm(np.asarray(normal, float)))
    if ln == 0:
        raise InvalidInput("plane normal must be nonzero")
    n = np.asarray(normal, float) / ln
    off = float(offset) / ln
    d, eps, cross = _plane_cut(K, n, off, tol)
    pts = [K.vertices[i] for i in np.flatnonzero(np.abs(d) <= eps)] + cross
    frame = plane_frame(n)
    if not pts:
        return PlanarSection(n, off, frame, np.empty((0, 2)), "empty")
    P = np.array(pts)
    e1, e2, _ = frame
    p2 = np.stack([P @ e1, P @ e2], axis=1)
    hull = convex_hull_2d(p2, tol)
    kind = {1: "point", 2: "segment"}.get(len(hull), "polygon")
    return PlanarSection(n, off, frame, hull, kind)


# ---------------------------------------------------------------------------
# minimal circumscribing cylinder
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _icosphere_directions(level: int = 5) -> np.ndarray:
    """Near-uniform unit directions from a subdivided icosahedron (cached per
    level, so the array is read-only).

    Each level splits every triangle ``(a, b, c)`` into ``(a, ab, ca)``,
    ``(b, bc, ab)``, ``(c, ca, bc)`` and ``(ab, bc, ca)``.  The midpoints
    are normalised edge sums, numbered in the order their edges first occur
    along the triangles (``ab``, ``bc``, ``ca`` within each)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            verts += [(0.0, s1, s2 * phi), (s1, s2 * phi, 0.0), (s2 * phi, 0.0, s1)]
    pts = np.array(verts)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    tris = ConvexHull(pts).simplices.astype(np.int64)
    for _ in range(level):
        n = len(pts)
        ends = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = ends.min(axis=1) * n + ends.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        # unique edges renumbered by first occurrence
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        mids = (n + rank[inverse]).reshape(-1, 3)     # ab, bc, ca
        edge = ends[first[order]]
        m = pts[edge[:, 0]] + pts[edge[:, 1]]
        pts = np.vstack([pts, m / _row_norms(m)[:, None]])
        a, b, c = tris.T
        ab, bc, ca = mids.T
        tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                        axis=1).reshape(-1, 3)
    out = pts[pts[:, 2] > -1e-12]  # antipodal axes give the same cylinder
    out.setflags(write=False)
    return out


def _cylinder_radius_for_axis(V: np.ndarray, axis: np.ndarray,
                              seed: int = 1) -> tuple[float, Circle2]:
    e1, e2, _ = plane_frame(axis)
    p2 = np.stack([V @ e1, V @ e2], axis=1)
    c = min_enclosing_circle(p2, seed=seed)
    return c.radius, c


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
        r = min_enclosing_circle(np.stack([X[i - lo], Y[i - lo]], axis=1),
                                 seed=1).radius
        insort(best, (r, i))
        del best[keep:]
    return best


def min_cylinder(K: Polytope3, refine: bool = True,
                 grid_level: int = 5) -> CylinderResult:
    """Smallest circumscribing circular cylinder of a polytope.

    The radius for a fixed axis direction is the radius of the minimal
    enclosing circle of the projected vertices — an exact computation — but
    the dependence on the axis direction is only piecewise-smooth, so the
    direction search combines a dense icosphere grid, the polytope's face
    normals and edge directions, and a local simplex polish of the five
    best grid hits (see :func:`_best_grid_axes`; equal radii rank by
    candidate index), each distinct start polished once: the candidates
    repeat axes, and a repeated start repeats the same run.  The result is
    a certified upper bound that is exact whenever the optimal axis is
    among the candidates (e.g. a symmetry axis).
    """
    V = K.vertices
    n, _ = K.face_planes()
    segs = K.edge_segments()
    ed = segs[:, 1] - segs[:, 0]
    ed /= np.linalg.norm(ed, axis=1)[:, None]
    cands = np.vstack([_icosphere_directions(grid_level), n, ed, np.eye(3)])
    flip = cands[:, 2] < 0
    cands[flip] *= -1
    best = _best_grid_axes(V, cands, 5 if refine else 1)

    def spherical(a):
        th, ph = a
        return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)])

    best_r, best_idx = best[0]
    best_axis = cands[best_idx]
    if refine:
        starts = set()
        for _, idx in best:
            a0 = cands[idx]
            th0 = float(np.arccos(np.clip(a0[2], -1, 1)))
            ph0 = float(np.arctan2(a0[1], a0[0]))
            if (th0, ph0) in starts:     # the same run: nothing new
                continue
            starts.add((th0, ph0))
            res = minimize(lambda x: _cylinder_radius_for_axis(V, spherical(x))[0],
                           np.array([th0, ph0]), method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-13,
                                    "maxiter": 400})
            if res.fun < best_r:
                best_r = float(res.fun)
                best_axis = spherical(res.x)

    best_axis = _unit(best_axis)
    r, circ = _cylinder_radius_for_axis(V, best_axis)
    e1, e2, _ = plane_frame(best_axis)
    axis_point = circ.center[0] * e1 + circ.center[1] * e2
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
