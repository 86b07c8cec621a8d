"""Holding-circle machinery.

A *holding circle* of a convex body is a circle that does not meet the
body's interior and that no Euclidean displacement can move arbitrarily far
from the body.  This module provides the computational side of that notion:

- an exact circle-versus-polytope interior test with witnesses,
- cross-section circumcircle profiles along an axis,
- translation-blocking certificates (the one-parameter escape family),
- a lower bound from pairwise distances of non-adjacent edges,
- a randomized escape search over circle poses,
- the projection chain certificate that bounds the circle diameter from
  below by two thirds of the body width,
- a minimal-circle search built on cross-section waists, and
- diagnostics measuring how close a configuration is to the extremal one
  (tangent equilateral region, three balanced contact clusters).

Whether a circle *holds* a body has no known finite decision procedure, so
the strongest verdict issued here is ``CertifiedHoldingEvidence``: the
cheap necessary certificates all pass and a budgeted escape search failed.
That is evidence, not proof.  ``EscapeFound`` on the other hand is
constructive: it comes with a validated collision-free path.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .errors import (CertificationError, InvalidInput, InvalidStart,
                     NoBlockingSlice, NotFound)
from .planar import (Circle2, Polygon2, _welzl, best_fit_equilateral,
                     chebyshev_inscribed, clip_halfplane_2d, convex_hull_2d,
                     golden_refine, periodic_min, projected_width, width2)
# the public forms of the slice kernel and the strip width; bench/tracing.py
# wraps them under this module's name
from .planar import horizontal_width, min_enclosing_circle  # noqa: F401
from .polytope import (HalfSpace, Polytope3, _row_norms, build_hull,
                       clip_halfspace, min_cylinder, plane_frame, width3)
# the scalar oracle of ``_edge_pair_distances``; bench/tracing.py wraps it
# under this module's name
from .polytope import segment_distance  # noqa: F401
from .tolerances import DEFAULT_SEED, TOL_GEOM, TOL_OPT

VERDICT_EVIDENCE = "CertifiedHoldingEvidence"
VERDICT_ESCAPE = "EscapeFound"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Circle3:
    """Circle in 3-space: center, diameter, unit plane normal."""

    center: tuple[float, float, float]
    diameter: float
    normal: tuple[float, float, float]

    def __post_init__(self):
        n = np.asarray(self.normal, float)
        ln = np.linalg.norm(n)
        if not np.isfinite(ln) or ln == 0:
            raise InvalidInput("circle normal must be a nonzero vector")
        object.__setattr__(self, "normal", tuple(float(x) for x in n / ln))
        if not (self.diameter > 0):
            raise InvalidInput("circle diameter must be positive")
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))

    @property
    def radius(self) -> float:
        return self.diameter / 2.0

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, float)

    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return plane_frame(np.asarray(self.normal, float))

    def points(self, t) -> np.ndarray:
        """Points ``center + r(cos t e1 + sin t e2)`` for angles ``t``."""
        e1, e2, _ = self.frame()
        t = np.atleast_1d(np.asarray(t, float))
        return (self.center_array
                + self.radius * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2))


# ---------------------------------------------------------------------------
# circle vs. polytope interior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenetrationWitness:
    """Outcome of the circle-interior test.

    ``penetration`` is the largest interior depth found on the circle (how
    far inside every face plane the witness point sits); negative values mean
    the whole circle stays outside by at least that slack at the tested
    angles.  ``intersects`` is exact for the given ``tol``; the depth is
    informational."""

    intersects: bool
    penetration: float
    angle: float | None
    point: np.ndarray | None

    def __bool__(self) -> bool:
        return self.intersects


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
    if np.any(gamma[flat] <= 0.0):
        probe = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        dep = depth(probe)
        k = int(np.argmax(dep))
        return PenetrationWitness(False, float(dep[k]), None, None)

    active = ~flat
    ratio = np.empty_like(R)
    ratio[active] = gamma[active] / R[active]
    if np.any(ratio[active] <= -1.0):
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


@lru_cache(maxsize=8)
def _sample_angles(samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``samples`` equally spaced angles from 0, their cosines and their
    sines, read-only (shared by every call)."""
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    out = (t, np.cos(t), np.sin(t))
    for a in out:
        a.setflags(write=False)
    return out


def sampled_penetration(K: Polytope3, C: Circle3,
                        samples: int = 10_000) -> tuple[float, float]:
    """Max interior depth over uniformly sampled circle points (an oracle
    for cross-checking the exact test).  Returns ``(depth, angle)``."""
    t, cos_t, sin_t = _sample_angles(samples)
    e1, e2, _ = C.frame()
    # the arithmetic of ``C.points(t)``, one coordinate per row
    pts = np.multiply.outer(e1, cos_t)
    pts += np.multiply.outer(e2, sin_t)
    pts *= C.radius
    pts += C.center_array[:, None]
    pts = np.ascontiguousarray(pts.T)
    n, b = K.face_planes()
    # the (S, F) product of the depth formula (``n @ pts.T`` rounds some
    # entries differently under BLAS), built 32 faces at a time so that a
    # body with many faces never holds all of it, and reduced one face at
    # a time: F long maxima instead of S short ones
    worst = np.full(len(t), -np.inf)
    for lo in range(0, len(b), 32):
        G = pts @ n[lo:lo + 32].T
        G -= b[lo:lo + 32]
        for col in G.T:
            np.maximum(worst, col, out=worst)
    dep = -worst
    k = int(np.argmax(dep))
    return float(dep[k]), float(t[k])


# ---------------------------------------------------------------------------
# cross-section scanning
# ---------------------------------------------------------------------------

class _SliceScanner:
    """Cross-sections of a polytope perpendicular to a fixed axis.

    Works in the deterministic frame of :func:`plane_frame`; 2D coordinates
    are relative to ``origin`` so a circle centered there sits at the
    2D origin.  Vertex heights, 2D coordinates and edges are kept as
    Python floats: a section of a few dozen edges is one short loop, where
    numpy would spend most of its time on per-call overhead.

    Between two consecutive distinct vertex heights the same edges cross
    every plane, so each such interval keeps its crossing edges, in edge
    order, and a section away from the vertex heights loops over those
    alone."""

    def __init__(self, K: Polytope3, axis, origin=None):
        axis = np.asarray(axis, float)
        self.origin = np.zeros(3) if origin is None else np.asarray(origin, float)
        if not (np.isfinite(K.vertices).all() and np.isfinite(axis).all()
                and np.isfinite(self.origin).all()):
            raise InvalidInput("vertices, axis and origin must be finite")
        e1, e2, n = plane_frame(axis)
        self.frame = (e1, e2, n)
        rel = K.vertices - self.origin
        self.h = rel @ n
        self.scale = max(1.0, float(np.abs(K.vertices).max()))
        self.h_min = float(self.h.min())
        self.h_max = float(self.h.max())
        h = self.h.tolist()
        xy = np.stack([rel @ e1, rel @ e2], axis=1).tolist()
        self._vertices = [(hv, x, y) for hv, (x, y) in zip(h, xy)]
        self._edges = [(h[a], h[b], *xy[a], *xy[b]) for a, b in K.edges]
        # _spans[k]: the edges spanning (levels[k - 1], levels[k]); the
        # first and the last list, outside the body, stay empty
        self._levels = sorted(set(h))
        rank = {hv: k for k, hv in enumerate(self._levels)}
        self._spans: list[list[tuple]] = [[] for _ in range(len(rank) + 1)]
        for (a, b), edge in zip(K.edges, self._edges):
            ka, kb = rank[h[a]], rank[h[b]]
            for k in range(min(ka, kb) + 1, max(ka, kb) + 1):
                self._spans[k].append(edge)

    def _section(self, t: float) -> tuple[list[tuple[float, float]], float]:
        """Points of the section at height ``t`` and their largest
        ``|coordinate|`` (0 when there are none): the vertices within
        ``1e-12 * scale`` of the plane, then the crossings of the edges
        that cut it, in edge order.

        More than twice that tolerance away from every vertex height no
        vertex is on the plane and exactly the interval's spanning edges
        cut it, so only those are tested."""
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
            edges = self._spans[k]
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
        :func:`~circlehold.planar.min_enclosing_circle`, seed 1)."""
        pts, big = self._section(float(t))
        if not pts:
            return None
        cx, cy, r = _welzl(pts, 1e-12 * max(1.0, big), 1)
        return Circle2((cx, cy), r)

    def diam(self, t: float) -> float:
        pts, big = self._section(float(t))
        if not pts:
            return 0.0
        return 2.0 * _welzl(pts, 1e-12 * max(1.0, big), 1)[2]

    def lift(self, p2, t: float) -> np.ndarray:
        e1, e2, n = self.frame
        return self.origin + p2[0] * e1 + p2[1] * e2 + t * n

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


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SideBlock:
    blocked: bool
    height: float | None   # offset along the normal from the circle plane
    circumdiameter: float
    margin: float


@dataclass(frozen=True)
class TranslationBlock:
    above: SideBlock
    below: SideBlock

    @property
    def blocked_above(self) -> bool:
        return self.above.blocked

    @property
    def blocked_below(self) -> bool:
        return self.below.blocked


def translation_block_certificate(K: Polytope3, C: Circle3,
                                  tol_opt: float = TOL_OPT) -> TranslationBlock:
    """Check, on each side of the circle's plane, for a cross-section whose
    circumcircle diameter exceeds the circle's by more than ``tol_opt``.

    Such a section cannot pass through the circle, so it blocks the
    one-parameter escape family that slides the circle along its own axis
    following the curve of section circumcenters.  This is a necessary
    condition for holding — a body blocked on both sides may still be
    escapable by richer motions, which is what :func:`escape_search`
    probes.

    The section circumdiameter is convex between consecutive vertex
    heights, so only each side's near end (``1e-9 * span`` off the plane)
    and its vertex heights are evaluated."""
    sc = _SliceScanner(K, np.asarray(C.normal, float), origin=C.center_array)
    d = C.diameter
    span = sc.h_max - sc.h_min
    unblocked = SideBlock(False, None, 0.0, -d)

    def side(lo: float, hi: float) -> SideBlock:
        if hi - lo <= 1e-12 * max(span, 1.0):
            return unblocked
        t, best = sc.side_max(lo, hi)
        return SideBlock(best > d + tol_opt, t, best, best - d)

    eps = 1e-9 * max(span, 1.0)
    above = side(eps, sc.h_max) if sc.h_max > eps else unblocked
    below = side(sc.h_min, -eps) if sc.h_min < -eps else unblocked
    return TranslationBlock(above, below)


def surrounds_slice(K: Polytope3, C: Circle3,
                    tol: float = TOL_GEOM) -> bool:
    """True when the body's cross-section in the circle's own plane is
    non-empty and lies inside the closed disc bounded by the circle — i.e.
    the body actually passes through the circle rather than sitting beside
    it."""
    sc = _SliceScanner(K, np.asarray(C.normal, float), origin=C.center_array)
    if not (sc.h_min <= 0.0 <= sc.h_max):
        return False
    P = sc.points2(0.0)
    if len(P) == 0:
        return False
    scale = max(1.0, sc.scale)
    return bool(np.linalg.norm(P, axis=1).max() <= C.radius + tol * scale)


def _edge_pair_distances(K: Polytope3) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """Distances between all pairs of non-adjacent edges, as arrays
    ``(i, j, dist)`` of edge indices (into ``K.edges``) and distances, in
    ``(i, j)`` order with ``i < j``.

    Same arithmetic as :func:`segment_distance`, vectorised over ``j`` one
    edge ``i`` at a time so the temporaries stay O(E)."""
    E = np.asarray(K.edges, int)
    P = K.vertices[E[:, 0]]
    U = K.vertices[E[:, 1]] - P
    UU = np.einsum("ij,ij->i", U, U)
    rows_i, rows_j = [np.empty(0, int)], [np.empty(0, int)]
    rows_d = [np.empty(0)]
    for i in range(len(E) - 1):
        j = np.arange(i + 1, len(E))
        j = j[(E[j] != E[i, 0]).all(axis=1) & (E[j] != E[i, 1]).all(axis=1)]
        if not len(j):
            continue
        u, v, w = U[i], U[j], P[i] - P[j]
        a, c = UU[i], UU[j]
        b, d, e = v @ u, w @ u, np.einsum("ij,ij->i", v, w)
        den = a * c - b * b
        ok = den > 1e-14 * np.maximum(np.maximum(a, c), 1e-300)
        s = np.zeros(len(j))
        s[ok] = np.clip((b[ok] * e[ok] - c[ok] * d[ok]) / den[ok], 0.0, 1.0)
        # edges have positive length, so a > 0 and c > 0
        t = np.clip((b * s + e) / c, 0.0, 1.0)
        s = np.clip((b * t - d) / a, 0.0, 1.0)
        gap = P[i] + s[:, None] * u - (P[j] + t[:, None] * v)
        rows_i.append(np.full(len(j), i))
        rows_j.append(j)
        rows_d.append(np.linalg.norm(gap, axis=1))
    return (np.concatenate(rows_i), np.concatenate(rows_j),
            np.concatenate(rows_d))


def nonintersecting_edge_bound(K: Polytope3) -> tuple[float, tuple[int, int]]:
    """Minimum distance between non-adjacent edges, with the attaining pair
    (indices into ``K.edges``; the first in ``(i, j)`` order on ties).

    Any circle holding a polytope must let two such edges pass through it on
    opposite sides, so its diameter is at least this distance: a cheap lower
    bound to pair with the search's upper bound."""
    I, J, D = _edge_pair_distances(K)
    if not len(D):
        raise InvalidInput("polytope has no pair of non-adjacent edges")
    k = int(np.argmin(D))
    return float(D[k]), (int(I[k]), int(J[k]))


# ---------------------------------------------------------------------------
# escape search
# ---------------------------------------------------------------------------

@dataclass
class EscapeResult:
    outcome: str                    # "found" | "not_found_within_budget"
    path: list[Circle3] | None
    checks_used: int
    nodes: int
    seed: int
    step: float
    escape_radius: float

    @property
    def found(self) -> bool:
        return self.outcome == "found"


def _canonical_normal(n: np.ndarray) -> np.ndarray:
    for k in (2, 1, 0):
        if abs(n[k]) > 1e-12:
            return n if n[k] > 0 else -n
    return n


def _support_gap_exact(beta: np.ndarray, A: np.ndarray, B: np.ndarray,
                       pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Exact ``min over t of max_f (beta_f + A_f cos t + B_f sin t)``.

    The upper envelope of sinusoids attains its minimum either at a
    critical angle of one sinusoid or where two of them cross, so those
    angles are a complete candidate set.  ``pairs`` is
    ``np.triu_indices(len(beta), 1)``: every face pair ``i < j``.
    """
    i, j = pairs
    dA = A[i] - A[j]
    dB = B[i] - B[j]
    rhs = beta[j] - beta[i]
    Rc = np.hypot(dA, dB)
    ok = Rc > 1e-15
    x = rhs[ok] / Rc[ok]
    hit = np.abs(x) <= 1.0
    pc = np.arctan2(dB[ok][hit], dA[ok][hit])
    al = np.arccos(x[hit])
    ts = np.concatenate([np.arctan2(B, A) + np.pi, pc + al, pc - al])
    vals = (beta[None, :] + np.cos(ts)[:, None] * A[None, :]
            + np.sin(ts)[:, None] * B[None, :])
    return float(vals.max(axis=1).min())


class _SupportGapBound:
    """Lower bound on ``min over t of max_f (beta_f + A_f cos t + B_f sin t)``
    for inputs with a fixed number of faces: the smallest face support gap
    of a circle, hence a lower bound on its distance to the body.

    The minimum over a 128-angle grid minus its Lipschitz slack
    ``R_max pi / 128`` answers when positive.  Otherwise the bound is exact
    (:func:`_support_gap_exact`) for at most 12 faces.  Above that it is the
    minimum over 8192 angles minus ``R_max pi / 8192``, where only the
    coarse cells whose Lipschitz lower bound ``(G_k + G_k+1) / 2 - slack``
    reaches the coarse minimum are sampled: no other cell can hold the fine
    minimum, so the value is that of the full 8192-angle grid.

    At most 12 faces the exact value ``E`` comes first and the grid runs
    only when ``E > 0``: ``U - slack <= min <= E``, so the grid cannot
    answer when ``E <= 0`` and the result is that of the grid first.
    """

    n_coarse = 128
    n_fine = 8192
    max_exact_faces = 12

    def __init__(self, n_faces: int):
        t = np.linspace(0.0, 2.0 * np.pi, self.n_coarse, endpoint=False)
        self.cos_c, self.sin_c = np.cos(t)[:, None], np.sin(t)[:, None]
        if n_faces <= self.max_exact_faces:
            self.pairs = np.triu_indices(n_faces, 1)
        else:
            t = np.linspace(0.0, 2.0 * np.pi, self.n_fine, endpoint=False)
            # row k: the fine angles of coarse cell [t_k, t_k+1)
            shape = (self.n_coarse, self.n_fine // self.n_coarse, 1)
            self.cos_f = np.cos(t).reshape(shape)
            self.sin_f = np.sin(t).reshape(shape)

    def __call__(self, beta: np.ndarray, A: np.ndarray,
                 B: np.ndarray) -> float:
        exact = len(beta) <= self.max_exact_faces
        if exact:
            E = _support_gap_exact(beta, A, B, self.pairs)
            if E <= 0.0:
                return E
        g = beta + self.cos_c * A + self.sin_c * B
        r_max = float(np.hypot(A, B).max(initial=0.0))
        slack = r_max * (np.pi / self.n_coarse)
        G = g.max(axis=1)
        U = float(G.min())
        if U - slack > 0.0:
            return U - slack
        if exact:
            return E
        # the pad only admits more cells, against rounding in G and slack
        reach = 0.5 * (G + np.roll(G, -1)) - slack
        cells = np.flatnonzero(reach <= U + 1e-12 * (abs(U) + r_max))
        g = beta + self.cos_f[cells] * A + self.sin_f[cells] * B
        return (float(g.max(axis=2).min())
                - slack * (self.n_coarse / self.n_fine))


def escape_search(K: Polytope3, start: Circle3, budget: int = 100_000,
                  seed: int = DEFAULT_SEED, step: float | None = None,
                  escape_radius: float | None = None,
                  tol: float = TOL_OPT, goal_bias: float = 0.25) -> EscapeResult:
    """Randomized search for a certified collision-free circle path leading
    far away.

    Poses are (center, normal) pairs.  Every accepted motion is *certified*
    against tunneling: the circle-to-body distance is 1-Lipschitz under
    rigid displacement, so a motion in which each circle point moves at most
    ``h`` cannot cross the body when ``h < clearance(start pose) +
    clearance(end pose)``; segments that fail the test are bisected (with
    bounded depth) before being rejected.  Clearance lower bounds come from
    the face support gaps minimized over the circle: exactly for bodies with
    at most 12 faces; above that, over 8192 angles minus a Lipschitz slack,
    sampled only in the 128-angle cells that can hold the minimum.  A consequence
    is that poses touching the body (zero clearance) admit no certified
    motion at all: escape paths keep strictly positive clearance, and a
    circle that can leave only by grazing the boundary is reported as not
    escaping.

    The search first marches straight-line translations in 26 lattice
    directions with adaptively growing certified steps, then grows a
    rapidly-exploring random tree in the 5-dimensional pose space (normals
    embedded on a sphere of radius equal to the circle radius, so rotation
    steps cost the same as the arc they sweep).  Success means reaching a
    pose whose center is at least ``escape_radius`` from the body centroid;
    the returned path is re-validated pose by pose.

    ``budget`` counts clearance evaluations, the dominant cost.  Failure
    says no escape was found *within that budget* — it is evidence, not
    proof, of holding.  Deterministic for fixed ``(seed, budget)``.
    """
    centroid = K.centroid
    circum = K.circumradius
    if step is None:
        step = circum / 50.0
    if escape_radius is None:
        escape_radius = 10.0 * circum
    r = start.radius
    kappa = max(r, 1e-9)

    start_pen = circle_interior_intersects(K, start, tol)
    if start_pen.intersects:
        raise InvalidStart(
            f"start pose penetrates the body (depth {start_pen.penetration:.3g})")

    n_faces, b_faces = K.face_planes()
    support_gap = _SupportGapBound(len(b_faces))
    checks = 0

    def clearance(center: np.ndarray, normal: np.ndarray) -> float:
        """Lower bound on the distance from the circle to the body."""
        nonlocal checks
        checks += 1
        e1, e2, _ = plane_frame(normal)
        beta = n_faces @ center - b_faces
        A = r * (n_faces @ e1)
        B = r * (n_faces @ e2)
        return support_gap(beta, A, B)

    def sweep(c1, n1, c2, n2) -> float:
        """Max displacement of any circle point between the two poses."""
        dot = abs(min(max(float(n1 @ n2), -1.0), 1.0))
        dc = c2 - c1
        return math.sqrt(dc @ dc) + r * float(np.arccos(dot))

    def certify(c1, n1, cl1, c2, n2, cl2, depth: int = 12) -> bool:
        """True iff the straight motion between the poses certifiably
        avoids the body."""
        if cl1 <= 0.0 or cl2 <= 0.0:
            return False
        if sweep(c1, n1, c2, n2) < cl1 + cl2:
            return True
        if depth == 0 or checks >= budget:
            return False
        cm = 0.5 * (c1 + c2)
        nm = n1 + n2 if float(n1 @ n2) >= 0.0 else n1 - n2
        ln = float(np.linalg.norm(nm))
        nm = nm / ln if ln > 1e-12 else n1
        clm = clearance(cm, nm)
        if clm <= 0.0:
            return False
        return (certify(c1, n1, cl1, cm, nm, clm, depth - 1)
                and certify(cm, nm, clm, c2, n2, cl2, depth - 1))

    def escaped(center: np.ndarray) -> bool:
        return float(np.linalg.norm(center - centroid)) >= escape_radius

    c0 = start.center_array
    n0 = _canonical_normal(np.asarray(start.normal, float))
    cl0 = clearance(c0, n0)
    if cl0 <= 0.0:
        # the start pose touches the body: by the Lipschitz bound no motion
        # whatsoever can be certified from it
        return EscapeResult("not_found_within_budget", None, checks, 1,
                            seed, step, escape_radius)

    def finish(path, nodes: int):
        for pose in path:
            if circle_interior_intersects(K, pose, tol).intersects:
                raise CertificationError(
                    "escape path failed post-hoc validation")
        return EscapeResult("found", path, checks, nodes, seed, step,
                            escape_radius)

    # certified straight-line marches
    if cl0 > 0.0:
        dirs = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                         for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)], float)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        probe_cap = budget // 4
        for u in dirs:
            if checks >= probe_cap:
                break
            path = [start]
            c_cur, cl_cur = c0, cl0
            h = max(1.5 * cl_cur, 1e-3 * step)
            while checks < probe_cap:
                c_new = c_cur + h * u
                cl_new = clearance(c_new, n0)
                if cl_new > 0.0 and certify(c_cur, n0, cl_cur,
                                            c_new, n0, cl_new):
                    path.append(Circle3(tuple(c_new), start.diameter,
                                        tuple(n0)))
                    c_cur, cl_cur = c_new, cl_new
                    if escaped(c_new):
                        return finish(path, 0)
                    h *= 1.7
                else:
                    h *= 0.5
                    if h < 1e-9 * max(step, 1.0):
                        break

    # RRT over poses with certified extensions
    rng = np.random.default_rng(seed)
    nodes_c = [c0]
    nodes_n = [n0]
    nodes_cl = [cl0]
    parents = [-1]

    emb = [np.concatenate([c0, kappa * n0])]
    tree = cKDTree(np.array(emb))
    tree_size = 1
    # the embeddings not yet in the tree, emb[tree_size:], as one block
    fresh = np.empty((256, len(emb[0])))

    def rand_unit() -> np.ndarray:
        v = rng.normal(size=3)
        ln = np.linalg.norm(v)
        return v / ln if ln > 0 else np.array([0.0, 0.0, 1.0])

    while checks < budget:
        if rng.random() < goal_bias:
            samp_c = centroid + 1.05 * escape_radius * rand_unit()
        else:
            samp_c = centroid + (1.1 * escape_radius) * rand_unit() * rng.random() ** (1 / 3)
        samp_n = _canonical_normal(rand_unit())
        q = np.concatenate([samp_c, kappa * samp_n])

        _, idx = tree.query(q)
        best_i, best_d = int(idx), float(np.linalg.norm(emb[int(idx)] - q))
        n_fresh = len(emb) - tree_size
        if n_fresh:
            # the first nearest fresh node wins only if strictly nearer
            dist = _row_norms(fresh[:n_fresh] - q)
            j = int(dist.argmin())
            if dist[j] < best_d:
                best_i, best_d = tree_size + j, float(dist[j])
        if best_d <= 1e-12:
            continue

        base_c = nodes_c[best_i]
        base_n = nodes_n[best_i]
        base_cl = nodes_cl[best_i]
        if base_cl <= 0.0:
            continue
        delta = q - emb[best_i]
        # cap the attempt near the node's certifiable range, then shrink
        cap = min(step, max(8.0 * base_cl, 1e-3 * step))
        if best_d > cap:
            delta = delta * (cap / best_d)
        accepted = False
        for _ in range(3):
            new_c = base_c + delta[:3]
            raw_n = base_n + delta[3:] / kappa
            ln = np.linalg.norm(raw_n)
            new_n = _canonical_normal(raw_n / ln) if ln > 1e-12 else base_n
            if checks >= budget:
                break
            cl_new = clearance(new_c, new_n)
            if cl_new > 0.0 and certify(base_c, base_n, base_cl,
                                        new_c, new_n, cl_new):
                accepted = True
                break
            delta = delta * 0.25
        if not accepted:
            continue

        nodes_c.append(new_c)
        nodes_n.append(new_n)
        nodes_cl.append(cl_new)
        parents.append(best_i)
        emb.append(np.concatenate([new_c, kappa * new_n]))
        fresh[len(emb) - 1 - tree_size] = emb[-1]
        if len(emb) - tree_size >= len(fresh):
            tree = cKDTree(np.array(emb))
            tree_size = len(emb)

        if escaped(new_c):
            chain = []
            i = len(nodes_c) - 1
            while i >= 0:
                chain.append(Circle3(tuple(nodes_c[i]), start.diameter,
                                     tuple(nodes_n[i])))
                i = parents[i]
            return finish(list(reversed(chain)), len(nodes_c))

    return EscapeResult("not_found_within_budget", None, checks,
                        len(nodes_c), seed, step, escape_radius)


# ---------------------------------------------------------------------------
# holding report
# ---------------------------------------------------------------------------

@dataclass
class HoldingReport:
    circle: Circle3
    non_penetration: bool
    penetration_depth: float
    surrounds_slice: bool
    block: TranslationBlock
    edge_bound: float | None
    edge_bound_pair: tuple[int, int] | None
    escape: EscapeResult | None
    verdict: str
    reasons: list[str] = field(default_factory=list)

    @property
    def blocked_above(self) -> bool:
        return self.block.blocked_above

    @property
    def blocked_below(self) -> bool:
        return self.block.blocked_below


def _gates(K: Polytope3, C: Circle3, tol_geom: float, tol_opt: float):
    pen = circle_interior_intersects(K, C, tol_opt)
    surrounds = surrounds_slice(K, C, tol_geom) if not pen.intersects else False
    block = translation_block_certificate(K, C, tol_opt)
    return pen, surrounds, block


def holding_report(K: Polytope3, C: Circle3, *, budget: int = 20_000,
                   seed: int = DEFAULT_SEED,
                   tol_geom: float = TOL_GEOM,
                   tol_opt: float = TOL_OPT) -> HoldingReport:
    """Gather every certificate this package can produce for one circle pose
    and summarize them in a verdict.

    ``CertifiedHoldingEvidence`` requires: the circle avoids the interior,
    the body passes through it, cross-sections too wide for the circle exist
    on both sides, and the escape search exhausts its budget without finding
    a way out.  ``EscapeFound`` is returned exactly when the search finds a
    validated escape path.  Everything else is ``Inconclusive``.
    """
    return _report(K, C, _gates(K, C, tol_geom, tol_opt),
                   budget=budget, seed=seed, tol_opt=tol_opt)


def _report(K: Polytope3, C: Circle3, gates, *, budget: int, seed: int,
            tol_opt: float) -> HoldingReport:
    """The body of :func:`holding_report`, given the circle's
    :func:`_gates`."""
    pen, surrounds, block = gates
    reasons: list[str] = []

    edge_bound = None
    edge_pair = None
    try:
        edge_bound, edge_pair = nonintersecting_edge_bound(K)
    except InvalidInput:
        pass

    escape = None
    if pen.intersects:
        reasons.append(f"circle penetrates the body "
                       f"(depth {pen.penetration:.3g}) — not a holding circle")
        verdict = VERDICT_INCONCLUSIVE
    else:
        if not surrounds:
            reasons.append("body does not pass through the circle")
        if not block.blocked_above:
            reasons.append("no blocking cross-section above the circle plane")
        if not block.blocked_below:
            reasons.append("no blocking cross-section below the circle plane")
        escape = escape_search(K, C, budget=budget, seed=seed, tol=tol_opt)
        if escape.found:
            verdict = VERDICT_ESCAPE
            reasons.append(f"escape path found after {escape.checks_used} checks")
        elif surrounds and block.blocked_above and block.blocked_below:
            verdict = VERDICT_EVIDENCE
            reasons.append(
                f"all blocking certificates hold and the escape search found "
                f"no certified way out ({escape.checks_used} of {budget} "
                f"clearance evaluations used)")
        else:
            verdict = VERDICT_INCONCLUSIVE
            reasons.append(f"escape not found within {budget} checks, but "
                           f"blocking certificates are incomplete")

    return HoldingReport(C, not pen.intersects, pen.penetration, surrounds,
                         block, edge_bound, edge_pair, escape, verdict,
                         reasons)


# ---------------------------------------------------------------------------
# projection chain certificate
# ---------------------------------------------------------------------------

def _directions_surround_origin(u: np.ndarray, slack: float = 1e-7) -> bool:
    """True if the unit vectors positively span the plane (origin in hull)."""
    ang = np.sort(np.arctan2(u[:, 1], u[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    return bool(gaps.max() < np.pi - slack)


@dataclass
class ChainCertificate:
    """Certified inequality chain linking body width to circle diameter.

    Splitting the body at the circle's plane H, one side contributes a
    blocking cross-section whose circumdiameter ``d_h`` exceeds the circle
    diameter ``d``.  The homothety with ratio ``rho = d/d_h`` centred at the
    circle's centre maps that section's circumcircle onto the circle; each
    section point on the circumcircle yields a half-space bounded by a plane
    tangent to the circle and parallel to ``delta_direction`` (the line
    joining the two centres).  Their intersection is an infinite prism in
    that direction whose cross-section through the circle plane is
    ``region`` (a polygon, or a strip when there are exactly two antipodal
    contacts), and the prism contains the other -- *far* -- half of the
    body.  The certified chain is

        width(K) <= min_th wh(far half) < min_th wh(prism)
                  = width2(region) <= 3/2 * diameter,

    with wh the horizontal width of the projection into the vertical plane
    at angle theta (vertical meaning the circle normal), minimised over
    theta by :func:`~circlehold.planar.periodic_min`.  For computation the
    prism is a large working box about the circle's centre, clipped by each
    tangent half-space in turn (:func:`~circlehold.polytope.clip_halfspace`);
    the box provably does not change either of the two middle quantities.

    ``values`` holds the five numbers, ``checks`` one boolean per relation
    plus internal consistency tests, and ``holds`` their conjunction.
    """

    circle: Circle3
    side: str                      # "above" | "below"
    height: float                  # blocking height, offset along the normal
    d_h: float
    rho: float
    delta_direction: np.ndarray
    contacts2: np.ndarray          # scaled contacts on the circle (plane coords)
    contacts3: np.ndarray          # contact points on the blocking section
    tangent_halfspaces: list[HalfSpace]
    region_kind: str               # "polygon" | "strip"
    region2: np.ndarray            # region clipped to the working box
    strip_direction: np.ndarray | None
    values: dict[str, float]
    checks: dict[str, bool]

    @property
    def holds(self) -> bool:
        return all(self.checks.values())


def chain_certificate(K: Polytope3, C: Circle3, *,
                      theta_samples: int = 720, side: str = "auto",
                      tol_geom: float = TOL_GEOM,
                      tol_opt: float = TOL_OPT) -> ChainCertificate:
    """Build the projection chain certificate for a circle pose.

    Requires the circle's plane to cut the body and a cross-section on the
    chosen side whose circumdiameter exceeds the circle diameter (else
    :class:`NoBlockingSlice`).  ``side="auto"`` builds the blocked sides in
    turn, above first, and returns the first certificate whose checks all
    hold; only when none holds is every side built, to fall back to the one
    with the fewest failures.  The chain is asymmetric, so typically only
    the side whose far half is the wide one can certify.

    Each side's blocking section is its largest, over the circle's plane
    and that side's vertex heights (the profile is convex in between).  The
    prism is the working cube clipped by the tangent half-spaces.
    """
    d = C.diameter
    sc = _SliceScanner(K, np.asarray(C.normal, float), origin=C.center_array)
    if not (sc.h_min < -1e-12 * sc.scale and sc.h_max > 1e-12 * sc.scale):
        raise InvalidInput("circle plane does not cut the body interior")
    if side not in ("auto", "above", "below"):
        raise InvalidInput(f"side must be 'above', 'below' or 'auto', got {side!r}")

    t_up, d_up = sc.side_max(0.0, sc.h_max)
    t_dn, d_dn = sc.side_max(sc.h_min, 0.0)
    candidates = []
    if side in ("auto", "above") and d_up > d + tol_opt:
        candidates.append(("above", t_up, d_up, 1.0))
    if side in ("auto", "below") and d_dn > d + tol_opt:
        candidates.append(("below", t_dn, d_dn, -1.0))
    if not candidates:
        d_best = {"auto": max(d_up, d_dn), "above": d_up, "below": d_dn}[side]
        raise NoBlockingSlice(
            f"no cross-section on the {side} side exceeds the circle "
            f"diameter ({d_best:.12g} <= {d:.12g} + {tol_opt:g})")

    e1, e2, nrm = sc.frame
    w = width3(K).width

    def build(side_name: str, t_star: float, d_h: float,
              sgn: float) -> ChainCertificate:
        circ = sc.circum(t_star)
        assert circ is not None
        c_h2 = np.asarray(circ.center, float)
        pts2 = convex_hull_2d(sc.points2(t_star))
        dist = np.linalg.norm(pts2 - c_h2, axis=1)
        contact_tol = 1e-7 * max(1.0, d_h)
        raw_contacts = pts2[dist >= d_h / 2.0 - contact_tol]
        contacts = []
        for p in raw_contacts:
            if not any(np.linalg.norm(p - q) <= 1e-9 * sc.scale
                       for q in contacts):
                contacts.append(p)
        contacts2_sec = np.array(contacts)

        rho = d / d_h
        q = rho * (contacts2_sec - c_h2)
        qn = np.linalg.norm(q, axis=1)
        u = q / qn[:, None]

        delta_world = c_h2[0] * e1 + c_h2[1] * e2 + t_star * nrm
        delta_world /= np.linalg.norm(delta_world)

        tangent_hs = []
        for ui in u:
            zeta = -float(ui @ c_h2) / t_star
            nu = np.array([ui[0], ui[1], zeta])
            nu_len = np.linalg.norm(nu)
            nu_world = (nu[0] * e1 + nu[1] * e2 + nu[2] * nrm) / nu_len
            off_tan = (d / 2.0) / nu_len + float(nu_world @ C.center_array)
            tangent_hs.append(HalfSpace(tuple(nu_world), off_tan))

        # cross-section of the tangent prism through the circle plane,
        # clipped to a working box (harmless: see class docstring)
        box = 50.0 * d
        poly = np.array([[-box, -box], [box, -box], [box, box], [-box, box]])
        for ui in u:
            poly = clip_halfplane_2d(poly, ui, d / 2.0)
            if len(poly) < 3:
                raise CertificationError(
                    "tangent half-planes have empty intersection")
        antipodal = (len(u) == 2 and float(u[0] @ u[1]) <= -1.0 + 1e-9)
        region_kind = "strip" if antipodal else "polygon"
        strip_dir = u[0].copy() if antipodal else None
        region_poly = Polygon2.from_points(poly)
        w2_region, _ = width2(region_poly)
        surround = antipodal or (len(u) >= 3 and _directions_surround_origin(u))

        # the prism itself, as the working cube clipped by the tangent
        # half-spaces, for the projected horizontal widths
        c0 = C.center_array
        prism = build_hull([c0 + box * (s1 * e1 + s2 * e2 + s3 * nrm)
                            for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)
                            for s3 in (1.0, -1.0)])
        for hs in tangent_hs:
            prism = clip_halfspace(prism, hs)
        relp = prism.vertices - c0
        prism_pts = [(relp @ ax).tolist() for ax in (e1, e2, nrm)]
        _, min_wh_region = periodic_min(
            lambda th: projected_width(*prism_pts, th), np.pi, theta_samples)

        # far half of the body, projected widths
        far_normal = tuple(sgn * np.asarray(C.normal, float))
        far = clip_halfspace(K, HalfSpace(far_normal,
                                          float(np.dot(far_normal, C.center))))
        rel = far.vertices - C.center_array
        far_pts = [(rel @ ax).tolist() for ax in (e1, e2, nrm)]
        _, min_wh_far = periodic_min(
            lambda th: projected_width(*far_pts, th), np.pi, theta_samples)

        values = {
            "width": w,
            "min_wh_far_half": min_wh_far,
            "min_wh_region": min_wh_region,
            "width2_region": w2_region,
            "diameter_bound": 1.5 * d,
        }

        inscribed_r = chebyshev_inscribed(region_poly).radius

        abs_tol = tol_geom * max(1.0, sc.scale)
        map_tol = 1e-9 * max(1.0, d)
        checks = {
            "section_exceeds_circle": d_h > d + tol_opt,
            "ratio_in_unit_interval": 0.0 < rho < 1.0,
            "contacts_on_section_circumcircle":
                bool(np.all(np.abs(dist[dist >= d_h / 2.0 - contact_tol]
                                   - d_h / 2.0) <= contact_tol * 10)),
            "contacts_map_onto_circle":
                bool(np.all(np.abs(qn - d / 2.0) <= map_tol)),
            "contacts_surround_circle": surround,
            "circle_inscribed_in_region": inscribed_r >= d / 2.0 - map_tol,
            "width_le_far_half": w <= min_wh_far + abs_tol,
            "far_half_lt_region": min_wh_far < min_wh_region - tol_geom,
            "region_min_equals_width2": abs(min_wh_region - w2_region) < tol_opt,
            "width2_le_three_halves_diameter": w2_region <= 1.5 * d + abs_tol,
        }

        contacts3 = np.array([sc.lift(p, t_star) for p in contacts2_sec])
        return ChainCertificate(
            circle=C, side=side_name, height=float(t_star),
            d_h=d_h, rho=rho, delta_direction=delta_world,
            contacts2=q, contacts3=contacts3,
            tangent_halfspaces=tangent_hs,
            region_kind=region_kind, region2=poly, strip_direction=strip_dir,
            values=values, checks=checks,
        )

    certs = []
    for cand in candidates:
        cert = build(*cand)
        if cert.holds:
            return cert
        certs.append(cert)
    return max(certs, key=lambda c: sum(c.checks.values()))


# ---------------------------------------------------------------------------
# minimal-circle search
# ---------------------------------------------------------------------------

def _axis_candidates(K: Polytope3) -> list[np.ndarray]:
    axes = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0])]
    cyl = min_cylinder(K, refine=False, grid_level=3)
    axes.append(np.asarray(cyl.axis_direction, float))
    segs = K.vertices[np.asarray(K.edges, int)]
    I, J, D = _edge_pair_distances(K)
    for k in np.argsort(D, kind="stable")[:3]:
        i, j = I[k], J[k]
        d1 = segs[i, 1] - segs[i, 0]
        d2 = segs[j, 1] - segs[j, 0]
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        for cand in (np.cross(d1, d2), d1 + d2, d1 - d2):
            ln = np.linalg.norm(cand)
            if ln > 1e-9:
                axes.append(cand / ln)
    uniq: list[np.ndarray] = []
    for a in axes:
        a = _canonical_normal(a)
        if not any(abs(float(a @ b)) > 1.0 - 1e-9 for b in uniq):
            uniq.append(a)
    return uniq


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


def _waist_candidates(K: Polytope3, axis: np.ndarray, tol_opt: float):
    """The waists of :func:`_waists` along an axis: (diameter, height,
    center2, scanner)."""
    sc = _SliceScanner(K, axis)
    out = []
    for d, t in _waists(sc, tol_opt):
        c = sc.circum(t)
        if c is not None and d > 0:
            out.append((d, t, np.asarray(c.center), sc))
    return out


def min_holding_circle(K: Polytope3, *, escape_budget: int = 4000,
                       seed: int = DEFAULT_SEED,
                       tol_geom: float = TOL_GEOM, tol_opt: float = TOL_OPT
                       ) -> tuple[Circle3, HoldingReport]:
    """Search for the smallest circle with certified holding evidence.

    A circle that fails to meet the body's interior while the body passes
    through it must contain the cross-section in its own plane, so its
    diameter is at least the section's circumdiameter.  The smallest viable
    circles therefore sit at *waists*: interior local minima of the
    circumdiameter profile along some axis.  The search scans a family of
    axes (coordinate axes, the minimal-cylinder axis, directions derived
    from the closest non-adjacent edge pairs), collects waist circles in
    ascending diameter order (at most 12 distinct ones), polishes the best
    axis, and returns the first candidate whose :func:`holding_report`
    verdict is ``CertifiedHoldingEvidence``.  A body with a non-finite
    vertex raises :class:`InvalidInput` before any work is done.

    The profile is convex between consecutive vertex heights, so waists are
    found exactly, not on a height grid (:func:`_waists`).  A waist is a
    candidate only if the profile exceeds its diameter by more than
    ``tol_opt`` on both sides, else the blocking gate rejects its circle;
    the polish minimises the smallest such waist over the axis, each
    interval searched only until convexity bounds its value to
    ``1e-13 * scale`` (:func:`_convex_min`).

    The result is an upper bound on the minimal holding diameter (evidence
    semantics as in :func:`holding_report`);
    :func:`nonintersecting_edge_bound` supplies the matching lower bound for
    polytopes.  Raises :class:`NotFound` when no candidate certifies.
    """
    if not np.isfinite(K.vertices).all():
        raise InvalidInput("vertices must be finite")
    cands = []
    for axis in _axis_candidates(K):
        cands.extend(_waist_candidates(K, axis, tol_opt))
    cands.sort(key=lambda c: c[0])

    filtered = []
    for dia, t, c2, sc in cands:
        center = sc.lift(c2, t)
        dup = False
        for dia2, cen2, ax2 in filtered:
            if (abs(dia - dia2) <= 1e-9 * max(1.0, dia)
                    and np.linalg.norm(center - cen2) <= 1e-6 * max(1.0, dia)
                    and abs(float(sc.frame[2] @ ax2)) > 1.0 - 1e-9):
                dup = True
                break
        if not dup:
            filtered.append((dia, center, sc.frame[2]))
        if len(filtered) >= 12:
            break

    if filtered:
        dia0, cen0, ax0 = filtered[0]

        def waist_along(x) -> float:
            th, ph = x
            axis = np.array([np.sin(th) * np.cos(ph),
                             np.sin(th) * np.sin(ph), np.cos(th)])
            return min(_waists(_SliceScanner(K, axis), tol_opt, smallest=True),
                       1e30)

        th0 = float(np.arccos(np.clip(ax0[2], -1, 1)))
        ph0 = float(np.arctan2(ax0[1], ax0[0]))
        res = minimize(waist_along, np.array([th0, ph0]), method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 60})
        if res.fun < dia0 - 1e-12:
            th, ph = res.x
            axis = np.array([np.sin(th) * np.cos(ph),
                             np.sin(th) * np.sin(ph), np.cos(th)])
            extra = _waist_candidates(K, axis, tol_opt)
            extra.sort(key=lambda c: c[0])
            if extra:
                dd, tt, cc2, ssc = extra[0]
                filtered.insert(0, (dd, ssc.lift(cc2, tt), ssc.frame[2]))

    last_report = None
    for dia, center, axis in filtered:
        circle = Circle3(tuple(center), dia, tuple(axis))
        gates = _gates(K, circle, tol_geom, tol_opt)
        pen, surrounds, block = gates
        if pen.intersects or not surrounds or not block.blocked_above \
                or not block.blocked_below:
            continue
        report = _report(K, circle, gates, budget=escape_budget, seed=seed,
                         tol_opt=tol_opt)
        last_report = report
        if report.verdict == VERDICT_EVIDENCE:
            return circle, report

    raise NotFound(
        "no waist candidate produced certified holding evidence"
        + ("" if last_report is None else
           f" (last verdict: {last_report.verdict})"))


# ---------------------------------------------------------------------------
# extremality diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ExtremalityDiagnostics:
    """How close a certified configuration is to the extremal family.

    In the extremal limit the chain's region is an equilateral triangle
    circumscribing the circle and the contacts concentrate near three
    equally spaced points on it.  ``hausdorff`` measures the region's
    distance from its best-fit equilateral triangle; ``cluster_distance``
    the worst contact's distance to the nearest of three ideal tangency
    points (optimized over their common rotation).  ``normalized`` values
    rescale the configuration so the circle has diameter 2.  ``slacks``
    lists the gaps in the chain inequalities — all of them shrink to zero
    exactly in the extremal limit.
    """

    hausdorff: float
    hausdorff_normalized: float
    cluster_distance: float
    cluster_distance_normalized: float
    cluster_rotation: float
    triangle2: np.ndarray | None
    slacks: dict[str, float]
    chain: ChainCertificate


def extremality_diagnostics(K: Polytope3, C: Circle3,
                            chain: ChainCertificate | None = None,
                            **chain_kwargs) -> ExtremalityDiagnostics:
    """Quantify how near a certified circle is to the sharp two-thirds bound."""
    if chain is None:
        chain = chain_certificate(K, C, **chain_kwargs)
    d = C.diameter
    scale = 2.0 / d

    if chain.region_kind == "polygon":
        tri, haus, _, _ = best_fit_equilateral(
            Polygon2.from_points(chain.region2),
            height=chain.values["width2_region"])
        tri2 = tri.vertices
    else:
        tri2 = None
        haus = float("inf")

    q = chain.contacts2

    def cluster_cost(psi: float) -> float:
        ang = psi + np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        ideal = (d / 2.0) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dd = np.linalg.norm(q[:, None, :] - ideal[None, :, :], axis=2)
        return float(dd.min(axis=1).max())

    psi_best, v_best = periodic_min(cluster_cost, 2.0 * np.pi / 3.0, 360)

    v = chain.values
    slacks = {
        "width_vs_far_half": v["min_wh_far_half"] - v["width"],
        "far_half_vs_region": v["min_wh_region"] - v["min_wh_far_half"],
        "region_vs_diameter_bound": v["diameter_bound"] - v["width2_region"],
    }
    return ExtremalityDiagnostics(
        hausdorff=haus, hausdorff_normalized=haus * scale,
        cluster_distance=v_best, cluster_distance_normalized=v_best * scale,
        cluster_rotation=psi_best, triangle2=tri2, slacks=slacks, chain=chain,
    )
