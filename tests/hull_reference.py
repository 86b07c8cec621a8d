"""The hull kernels that ``polytope`` replaced with loops over Python
floats, kept as the references their tests compare against: the facet
merge with one ``np.cross`` per triangle pair, triangle and cycle vertex,
and the face planes with Newell's sums accumulated in a numpy array.  Also
the plane cut of a hull, which the section profile's halves and the
chain's extruded prism replaced."""

import numpy as np

from circlehold.errors import InvalidInput
from circlehold.polytope import HalfSpace, Polytope3, _chain_cycle, build_hull
from circlehold.tolerances import TOL_GEOM


def merge_coplanar_by_np_cross(points, hull, angle_tol=1e-7):
    """Facet cycles from one ``np.cross`` per triangle pair, triangle and
    cycle vertex: the reference for the float merge in ``build_hull``."""
    eq = hull.equations
    simplices = hull.simplices
    nf = len(simplices)
    scale = float(np.abs(points).max())
    edge_owner = {}
    for fi, tri in enumerate(simplices):
        for i in range(3):
            e = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
            edge_owner.setdefault(e, []).append(fi)

    def coplanar(i, j):
        if np.linalg.norm(np.cross(eq[i, :3], eq[j, :3])) > angle_tol:
            return False
        if eq[i, :3] @ eq[j, :3] <= 0:
            return False
        return abs(eq[i, 3] - eq[j, 3]) <= 1e-7 * scale

    group = [-1] * nf
    g = 0
    for fi in range(nf):
        if group[fi] != -1:
            continue
        stack = [fi]
        group[fi] = g
        while stack:
            cur = stack.pop()
            for i in range(3):
                tri = simplices[cur]
                e = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
                for nb in edge_owner[e]:
                    if group[nb] == -1 and coplanar(cur, nb):
                        group[nb] = g
                        stack.append(nb)
        g += 1
    faces = []
    for gi in range(g):
        tris = [simplices[i] for i in range(nf) if group[i] == gi]
        nrm = eq[[i for i in range(nf) if group[i] == gi][0], :3]
        count, directed = {}, []
        for tri in tris:
            a, b, c = points[tri[0]], points[tri[1]], points[tri[2]]
            if np.cross(b - a, c - a) @ nrm < 0:
                tri = tri[[0, 2, 1]]
            for i in range(3):
                de = (int(tri[i]), int(tri[(i + 1) % 3]))
                count[de] = count.get(de, 0) + 1
                directed.append(de)
        boundary = [de for de in directed
                    if count[de] == 1 and count.get((de[1], de[0]), 0) == 0]
        cyc = _chain_cycle(boundary)
        pts = points[cyc]
        m = len(cyc)
        keep = [cyc[i] for i in range(m)
                if np.linalg.norm(np.cross(pts[i] - pts[i - 1],
                                           pts[(i + 1) % m] - pts[i]))
                > 1e-9 * scale * scale]
        faces.append(keep if len(keep) >= 3 else cyc)
    return faces


def face_planes_by_numpy_newell(K):
    """Newell normals accumulated in a numpy array, then the same offsets
    and orientation: the face planes before the float sums, kept as their
    reference."""
    normals, offsets = [], []
    centroid = K.vertices.mean(axis=0)
    for f in K.faces:
        pts = K.vertices[f]
        nrm = np.zeros(3)
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            nrm[0] += (a[1] - b[1]) * (a[2] + b[2])
            nrm[1] += (a[2] - b[2]) * (a[0] + b[0])
            nrm[2] += (a[0] - b[0]) * (a[1] + b[1])
        nrm = nrm / np.linalg.norm(nrm)
        off = float(nrm @ pts.mean(axis=0))
        if nrm @ centroid > off:
            nrm, off = -nrm, -off
        normals.append(nrm)
        offsets.append(off)
    return np.array(normals), np.array(offsets)


def clip_halfspace(K: Polytope3, hs: HalfSpace) -> Polytope3:
    """Intersection of a polytope with a half-space, as a new polytope.

    A vertex within ``TOL_GEOM * scale`` of the plane counts as on it;
    edges that cross from one side of that window to the other add their
    crossing points."""
    d = K.vertices @ np.asarray(hs.normal, float) - hs.offset
    eps = TOL_GEOM * max(1.0, float(np.abs(K.vertices).max()))
    if d.max() <= eps:
        return K
    if d.min() >= -eps:
        raise InvalidInput("half-space removes the whole polytope")
    pts = [K.vertices[i] for i in np.flatnonzero(d <= eps)]
    for a, b in K.edges:
        da, db = d[a], d[b]
        if (da < -eps and db > eps) or (da > eps and db < -eps):
            lam = da / (da - db)
            pts.append(K.vertices[a] + lam * (K.vertices[b] - K.vertices[a]))
    if len(pts) < 4:
        raise InvalidInput("clipped region is not full-dimensional")
    return build_hull(np.array(pts))
