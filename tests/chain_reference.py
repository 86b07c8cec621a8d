"""The chain kernels that ``planar.periodic_min``, the exact shadow minimum
and the clipped prism replaced, kept as the references their tests compare
against: the grid minimum refined by golden section, and the vertices of a
bounded half-space intersection by plane-triple enumeration."""

from itertools import combinations

import numpy as np

from circlehold.planar import golden_refine


def grid_golden_min(f, n_grid, period=np.pi):
    """Minimum ``(x, f(x))`` over ``n_grid`` samples of ``[0, period)``,
    golden-refined within one step of the first grid argmin; the grid
    sample wins ties."""
    thetas = np.linspace(0.0, period, n_grid, endpoint=False)
    vals = np.array([f(t) for t in thetas])
    k = int(np.argmin(vals))
    step = period / n_grid
    t_ref, v_ref = golden_refine(f, thetas[k] - step, thetas[k] + step)
    if vals[k] <= v_ref:
        return float(thetas[k]), float(vals[k])
    return float(t_ref % period), float(v_ref)


def bounded_intersection_vertices(halfspaces, tol):
    """Vertices of a bounded half-space intersection by triple enumeration."""
    A = np.array([hs.normal for hs in halfspaces], float)
    b = np.array([hs.offset for hs in halfspaces], float)
    pts = []
    for i, j, k in combinations(range(len(halfspaces)), 3):
        M = A[[i, j, k]]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, b[[i, j, k]])
        if np.all(A @ x <= b + tol) and not any(
                np.linalg.norm(x - p) <= tol for p in pts):
            pts.append(x)
    return np.array(pts)
