"""The face-arc circle-interior test that ``holding._pierce`` replaced,
kept as the oracle its tests compare against: on the circle each face
inequality holds on one arc of a sinusoid, and the circle meets the
interior iff the arcs have a common point, decided by cutting the circle
at every arc endpoint.  Its ``penetration`` is a 3-D depth, the deepest
midpoint's distance inside every face plane."""

import numpy as np

from circlehold.holding import Circle3, PenetrationWitness
from circlehold.polytope import Polytope3
from circlehold.tolerances import TOL_GEOM


def circle_interior_intersects(K: Polytope3, C: Circle3,
                               tol: float = TOL_GEOM) -> PenetrationWitness:
    """Exact test whether a circle meets the interior of a polytope.

    On the circle each face inequality ``n_f . p(t) < b_f - tol`` holds on an
    open angular arc (``R_f cos(t - phi_f) < gamma_f``).  The circle meets
    the interior iff the intersection of all arcs is non-empty, which is
    decided exactly by cutting the circle at every arc endpoint and testing
    one midpoint per elementary arc.  ``tol`` is the depth a point must
    reach to count as interior.
    """
    n, b = K.face_planes()
    e1, e2, _ = C.frame()
    r = C.radius
    c = C.center_array
    beta = n @ c
    A = r * (n @ e1)
    B = r * (n @ e2)
    R = np.hypot(A, B)
    phi = np.arctan2(B, A)
    gamma = b - tol - beta

    def depth(ts: np.ndarray) -> np.ndarray:
        # interior depth (positive inside) at angles ts, against all faces
        ts = np.atleast_1d(ts)
        vals = beta[None, :] + R[None, :] * np.cos(ts[:, None] - phi[None, :])
        return -(vals - b[None, :]).max(axis=1)

    flat = R <= 1e-13 * max(r, 1.0)
    active = ~flat
    ratio = np.empty_like(R)
    ratio[active] = gamma[active] / R[active]
    # some face excludes the whole circle: no arc to cut
    if np.any(gamma[flat] <= 0.0) or np.any(ratio[active] <= -1.0):
        probe = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        dep = depth(probe)
        k = int(np.argmax(dep))
        return PenetrationWitness(False, float(dep[k]), None, None)

    binding = active & (ratio < 1.0)
    if not binding.any():
        dep = depth(np.array([0.0]))
        hit = bool(dep[0] > tol)
        return PenetrationWitness(hit, float(dep[0]), 0.0 if hit else None,
                                  C.points(0.0)[0] if hit else None)

    alpha = np.arccos(np.clip(ratio[binding], -1.0, 1.0))
    ends = np.concatenate([phi[binding] + alpha, phi[binding] - alpha])
    ends = np.sort(np.mod(ends, 2.0 * np.pi))
    gaps = np.diff(np.concatenate([ends, [ends[0] + 2.0 * np.pi]]))
    mids = np.mod(ends + gaps / 2.0, 2.0 * np.pi)
    dep = depth(mids)
    k = int(np.argmax(dep))
    hit = bool(dep[k] > tol)
    t_best = float(mids[k])
    return PenetrationWitness(hit, float(dep[k]),
                              t_best if hit else None,
                              C.points(t_best)[0] if hit else None)
