"""The planar kernels that the float monotone-chain hull, the hull-edge
slopes and the float half-plane clip replaced, kept as the references their
tests compare against; and the shadow width per angle that the iceberg
profile's difference sections replaced."""

from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from circlehold import planar


def projected_width(x, y, t, theta: float) -> float:
    """Horizontal width of the points ``(x cos(theta) + y sin(theta), t)``,
    the shadow of a 3D point set on the vertical plane at angle ``theta``;
    ``x``, ``y``, ``t`` are equal-length, non-empty float lists."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    pts = [(a * c + b * s, h) for a, b, h in zip(x, y, t)]
    return planar._narrowest_strip(planar._hull(pts))[0]


def qhull_hull(points, tol=1e-9):
    """Qhull plus ``np.unique``, with the collinear fallback."""
    pts = np.unique(np.asarray(points, float), axis=0)
    if len(pts) < 3:
        return pts
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        d = pts - pts.mean(axis=0)
        u = d[np.argmax(np.einsum("ij,ij->i", d, d))]
        n = np.linalg.norm(u)
        if n <= tol:
            return pts[:1]
        proj = d @ (u / n)
        return pts[[np.argmin(proj), np.argmax(proj)]]


def pairwise_width(points):
    """Horizontal width over every pairwise slope of the points."""
    verts = np.asarray(points, float)
    s, t = verts[:, 0], verts[:, 1]
    scale = max(1.0, float(np.abs(verts).max()))
    if float(t.max() - t.min()) <= 1e-14 * scale:
        return float(s.max() - s.min())
    slopes = [0.0]
    for i, j in combinations(range(len(verts)), 2):
        dt = t[i] - t[j]
        if abs(dt) > 1e-14 * scale:
            slopes.append((s[i] - s[j]) / dt)
    return min(float((s - a * t).max() - (s - a * t).min()) for a in slopes)


def numpy_clip(vertices, normal, offset, tol=1e-9):
    """Half-plane clip with numpy arithmetic per vertex and
    ``np.linalg.norm`` for the near-duplicate test."""
    n = np.asarray(normal, float)
    verts = np.asarray(vertices, float).reshape(-1, 2)
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
