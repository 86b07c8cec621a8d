"""Holding-circle machinery.

A *holding circle* of a convex body is a circle that does not meet the
body's interior and that no Euclidean displacement can move arbitrarily far
from the body.  This module provides the computational side of that notion:

- an exact circle-versus-polytope interior test with witnesses,
- translation-blocking certificates (the one-parameter escape family) on
  the cross-section profiles of :mod:`circlehold.sections`,
- a lower bound from pairwise distances of non-adjacent edges,
- a certified straight-line escape search over circle poses,
- the projection chain certificate that bounds the circle diameter from
  below by two thirds of the body width,
- a minimal-circle search built on cross-section waists, and
- diagnostics measuring how close a configuration is to the extremal one
  (tangent equilateral region, three balanced contact clusters).

Whether a circle *holds* a body has no known finite decision procedure, so
the strongest verdict issued here is ``CertifiedHoldingEvidence``: the
circle avoids the interior, the body passes through it, and sections wider
than it on both sides stop every translation.  Rotations are not examined:
that is evidence, not proof.  ``EscapeFound`` on the other hand is
constructive: it comes with a validated collision-free path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (CertificationError, InvalidInput, InvalidStart,
                     NoBlockingSlice, NotFound)
from .planar import (Polygon2, _hull, chebyshev_inscribed, clip_halfplane_2d,
                     convex_hull_2d, equilateral_triangle, hausdorff_distance,
                     width2)
# the public forms of the slice kernel and the strip width; bench/tracing.py
# wraps them under this module's name
from .planar import horizontal_width, min_enclosing_circle  # noqa: F401
from .polytope import (HalfSpace, Polytope3, _min_shadow_width, _polish_axis,
                       min_cylinder, plane_frame, width3)
# the scalar oracle of ``_edge_pair_distances``; bench/tracing.py wraps it
# under this module's name
from .polytope import segment_distance  # noqa: F401
from .sections import _SliceScanner, _waists
from .tolerances import DEFAULT_SEED, TOL_GEOM, TOL_OPT

VERDICT_EVIDENCE = "CertifiedHoldingEvidence"
VERDICT_ESCAPE = "EscapeFound"
VERDICT_INCONCLUSIVE = "Inconclusive"

# how far from 1 a normal's norm may be for Circle3 to keep it as it is
_UNIT_SLACK = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class Circle3:
    """Circle in 3-space: center, diameter, unit plane normal."""

    center: tuple[float, float, float]
    diameter: float
    normal: tuple[float, float, float]

    def __post_init__(self):
        n = np.asarray(self.normal, float)
        if n.shape != (3,) or np.shape(self.center) != (3,):
            raise InvalidInput("circle center and normal must have 3 entries")
        ln = math.sqrt(n @ n)
        if not math.isfinite(ln) or ln == 0:
            raise InvalidInput("circle normal must be a nonzero vector")
        # a normal unit to rounding is kept, so rebuilding gives this circle
        if abs(ln - 1.0) > _UNIT_SLACK:
            n = n / ln
        object.__setattr__(self, "normal", tuple(float(x) for x in n))
        if not (0 < self.diameter < math.inf):
            raise InvalidInput("circle diameter must be positive and finite")
        center = tuple(float(x) for x in self.center)
        if not all(map(math.isfinite, center)):
            raise InvalidInput("circle center must be finite")
        object.__setattr__(self, "center", center)

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

    ``penetration`` is the in-plane margin of :func:`_pierce`, an upper
    bound on the interior depth of every circle point: at most 0 when the
    plane does not cut the interior, about +1e-16 at a touching waist.
    ``intersects`` is ``penetration > tol``; then ``angle`` and ``point``
    are a witness on the circle inside the body."""

    intersects: bool
    penetration: float
    angle: float | None
    point: np.ndarray | None

    def __bool__(self) -> bool:
        return self.intersects


def circle_interior_intersects(K: Polytope3, C: Circle3,
                               tol: float = TOL_GEOM) -> PenetrationWitness:
    """Exact test whether a circle meets the interior of a polytope, read
    off the body's section in the circle's plane (:func:`_pierce`).  The
    circle counts as meeting the interior when its margin exceeds
    ``tol``."""
    return _pierce(_SliceScanner(K, C.normal, C.center), C, tol)[0]


def _pierce(sc: _SliceScanner, C: Circle3,
            tol: float) -> tuple[PenetrationWitness, bool]:
    """The penetration of ``C`` from its profile ``sc``, and the surround
    gate: the section ``K_0`` in the circle's plane is non-empty and within
    ``TOL_GEOM * scale`` of the closed disc.

    With ``far`` and ``near`` the largest and smallest distance of ``K_0``
    from the center, the circle meets the interior iff the plane cuts it,
    ``far > r`` and ``near < r`` (the relative interior of ``K_0`` is then
    convex with points on both sides of the circle).  The margin ``min(far
    - r, r - near, -h_min, h_max)`` bounds the depth of every circle point
    from above and must exceed ``tol``.  The witness is the midpoint of the
    arc deepest inside ``K_0``, between crossings of the hull's edges."""
    pts, _ = sc._section(0.0)
    r = C.radius
    far = max([math.sqrt(x * x + y * y) for x, y in pts], default=math.inf)
    surrounds = sc.h_min <= 0.0 <= sc.h_max and far <= r + TOL_GEOM * sc.scale
    eps = 1e-12 * sc.scale
    hull = _hull(pts) if sc.h_min < -eps and sc.h_max > eps else []
    if len(hull) < 3:  # the plane misses the interior, or K_0 has no area
        return (PenetrationWitness(False, min(-sc.h_min, sc.h_max, 0.0),
                                   None, None), surrounds)
    # per edge of the counterclockwise hull: start, direction, length
    edges = [(ax, ay, bx - ax, by - ay, math.hypot(bx - ax, by - ay))
             for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1])]

    def depth(x: float, y: float) -> float:  # inside every edge line
        return min((dx * (y - ay) - dy * (x - ax)) / ln
                   for ax, ay, dx, dy, ln in edges)

    near = 0.0 if depth(0.0, 0.0) >= 0.0 else math.inf
    ts = []                             # where the circle crosses an edge
    for ax, ay, dx, dy, ln in edges:
        b = (ax * dx + ay * dy) / (ln * ln)
        s = min(max(-b, 0.0), 1.0)
        near = min(near, math.hypot(ax + s * dx, ay + s * dy))
        disc = b * b - (ax * ax + ay * ay - r * r) / (ln * ln)
        if disc >= 0.0:
            ts += [math.atan2(ay + s * dy, ax + s * dx)
                   for s in (-b - math.sqrt(disc), -b + math.sqrt(disc))
                   if 0.0 <= s <= 1.0]
    margin = min(far - r, r - near, -sc.h_min, sc.h_max)
    if not margin > tol:
        return PenetrationWitness(False, margin, None, None), surrounds
    ts.sort()
    mids = [(a + b) / 2.0 for a, b in
            zip(ts, ts[1:] + [t + 2.0 * math.pi for t in ts[:1]])] or [0.0]
    t = max(mids, key=lambda t: depth(r * math.cos(t), r * math.sin(t)))
    t %= 2.0 * math.pi
    return PenetrationWitness(True, margin, t, C.points(t)[0]), surrounds


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
    n, b = K.face_planes()
    # the (F, S) gaps of the depth formula, built 32 faces at a time so
    # that a body with many faces never holds all of them, and each block
    # reduced over its faces
    worst = np.full(len(t), -np.inf)
    for lo in range(0, len(b), 32):
        G = n[lo:lo + 32] @ pts
        G -= b[lo:lo + 32, None]
        np.maximum(worst, np.maximum.reduce(G, axis=0), out=worst)
    dep = -worst
    k = int(np.argmax(dep))
    return float(dep[k]), float(t[k])


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


def translation_block_certificate(K: Polytope3,
                                  C: Circle3) -> TranslationBlock:
    """Check, on each side of the circle's plane, for a cross-section whose
    circumcircle diameter exceeds the circle's by more than ``TOL_OPT``.

    Such a section cannot pass through the circle, so it blocks the
    one-parameter escape family that slides the circle along its own axis
    following the curve of section circumcenters.  This is a necessary
    condition for holding.  A body blocked on both sides admits no
    translation past those sections, but rotations are not examined
    anywhere: :func:`escape_search` translates the circle only.

    The section circumdiameter is convex between consecutive vertex
    heights, so only each side's near end (``1e-9 * span`` off the plane)
    and its vertex heights are evaluated."""
    return _block(_SliceScanner(K, C.normal, C.center), C)


def _block(sc: _SliceScanner, C: Circle3) -> TranslationBlock:
    """The certificate of ``C`` from its profile ``sc``."""
    d = C.diameter
    span = sc.h_max - sc.h_min
    unblocked = SideBlock(False, None, 0.0, -d)

    def side(lo: float, hi: float) -> SideBlock:
        if hi - lo <= 1e-12 * max(span, 1.0):
            return unblocked
        t, best = sc.side_max(lo, hi)
        return SideBlock(best > d + TOL_OPT, t, best, best - d)

    eps = 1e-9 * max(span, 1.0)
    above = side(eps, sc.h_max) if sc.h_max > eps else unblocked
    below = side(sc.h_min, -eps) if sc.h_min < -eps else unblocked
    return TranslationBlock(above, below)


def surrounds_slice(K: Polytope3, C: Circle3) -> bool:
    """True when the body's cross-section in the circle's own plane is
    non-empty and lies inside the closed disc bounded by the circle — i.e.
    the body actually passes through the circle rather than sitting beside
    it."""
    return _pierce(_SliceScanner(K, C.normal, C.center), C, TOL_OPT)[1]


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
    """What :func:`escape_search` did and found.

    ``checks_used`` counts clearance evaluations.  ``nodes`` is 0 when a
    straight-line march escaped and 1, the start pose, when the search
    failed.  ``seed`` is the one passed in; the search draws no random
    numbers, so nothing depends on it.  ``start_clearance`` is the
    search's lower bound on the start circle's distance to the body (the
    exact support gap at most 12 faces: :class:`_SupportGapBound`).  At
    or below 0 no motion can be certified, so a failed search did no work.
    ``accepted`` and ``rejected`` count the march steps whose segment was
    certified and taken, or refused; ``reach`` is the largest distance
    from the body's centroid of the start center or any accepted center,
    to compare with ``escape_radius``.
    """

    outcome: str                    # "found" | "not_found_within_budget"
    path: list[Circle3] | None
    checks_used: int
    nodes: int
    seed: int
    step: float
    escape_radius: float
    start_clearance: float
    accepted: int
    rejected: int
    reach: float

    @property
    def found(self) -> bool:
        return self.outcome == "found"


def _canonical_normal(n: np.ndarray) -> np.ndarray:
    for k in (2, 1, 0):
        if abs(n[k]) > 1e-12:
            return n if n[k] > 0 else -n
    return n


class _SupportGapBound:
    """Lower bound on ``min over t of max_f (beta_f + A_f cos t + B_f sin t)``
    with ``beta`` given per call: the smallest face support gap of a
    circle, hence a lower bound on its distance to the body.  Translating
    the circle changes only ``beta``, so what depends on ``A`` and ``B``
    alone is computed once.

    For at most 12 faces the bound is the exact minimum (:meth:`exact`):
    the critical angle of each face leads one vector of candidate angles,
    the pairwise crossings follow, and one faces x candidates array of
    values is reduced over faces, then over candidates.  Above that, the
    minimum over a 128-angle grid minus its Lipschitz slack ``R_max pi /
    128`` answers when positive; otherwise it is the minimum over 8192
    angles minus ``R_max pi / 8192``, where only the coarse cells whose
    Lipschitz lower bound ``(G_k + G_k+1) / 2 - slack`` reaches the coarse
    minimum are sampled: no other cell can hold the fine minimum, so the
    value is that of the full 8192-angle grid.
    """

    n_coarse = 128
    n_fine = 8192
    max_exact_faces = 12

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.A, self.B = A, B
        self.is_exact = len(A) <= self.max_exact_faces
        if self.is_exact:
            # the angles where one sinusoid is lowest: candidates for every
            # beta, ahead of the crossings in every candidate vector
            self.t_crit = np.arctan2(B, A) + np.pi
            self.A_col, self.B_col = A[:, None], B[:, None]
            # face pairs i < j whose sinusoids can cross:
            # (A_i - A_j) cos t + (B_i - B_j) sin t = beta_j - beta_i
            i, j = np.triu_indices(len(A), 1)
            dA, dB = A[i] - A[j], B[i] - B[j]
            Rc = np.hypot(dA, dB)
            ok = Rc > 1e-15
            self.i, self.j, self.Rc = i[ok], j[ok], Rc[ok]
            self.pc = np.arctan2(dB[ok], dA[ok])
        else:
            t = np.linspace(0.0, 2.0 * np.pi, self.n_coarse, endpoint=False)
            self.cos_A = np.cos(t)[:, None] * A
            self.sin_B = np.sin(t)[:, None] * B
            self.r_max = float(np.hypot(A, B).max(initial=0.0))
            self.slack = self.r_max * (np.pi / self.n_coarse)
            t = np.linspace(0.0, 2.0 * np.pi, self.n_fine, endpoint=False)
            # row k: the fine angles of coarse cell [t_k, t_k+1)
            shape = (self.n_coarse, self.n_fine // self.n_coarse, 1)
            self.cos_f = np.cos(t).reshape(shape)
            self.sin_f = np.sin(t).reshape(shape)

    def exact(self, beta: np.ndarray) -> float:
        """The exact minimum, for at most 12 faces.

        The upper envelope of sinusoids attains its minimum either at a
        critical angle of one sinusoid or where two of them cross, so those
        angles are a complete candidate set.  The values form one faces x
        candidates array, reduced over faces, then over candidates.
        """
        x = beta[self.j] - beta[self.i]
        x /= self.Rc
        hit = np.abs(x) <= 1.0
        pc, al = self.pc[hit], np.arccos(x[hit])
        ts = np.concatenate([self.t_crit, pc + al, pc - al])
        vals = np.cos(ts) * self.A_col
        vals += beta[:, None]
        vals += np.sin(ts) * self.B_col
        return float(np.minimum.reduce(np.maximum.reduce(vals, axis=0)))

    def __call__(self, beta: np.ndarray) -> float:
        if self.is_exact:
            return self.exact(beta)
        G = (beta + self.cos_A + self.sin_B).max(axis=1)
        U = float(G.min())
        if U - self.slack > 0.0:
            return U - self.slack
        # the pad only admits more cells, against rounding in G and slack
        reach = 0.5 * (G + np.roll(G, -1)) - self.slack
        cells = np.flatnonzero(reach <= U + 1e-12 * (abs(U) + self.r_max))
        g = beta + self.cos_f[cells] * self.A + self.sin_f[cells] * self.B
        return (float(g.max(axis=2).min())
                - self.slack * (self.n_coarse / self.n_fine))


def escape_search(K: Polytope3, start: Circle3, budget: int = 100_000,
                  seed: int = DEFAULT_SEED) -> EscapeResult:
    """Search for a certified collision-free translation of the circle
    leading far away; every pose keeps the start's diameter and normal.

    Every accepted motion is *certified* against tunneling: the
    circle-to-body distance is 1-Lipschitz under translation, so a move by
    ``h`` cannot cross the body when ``h < clearance(start) +
    clearance(end)``; segments that fail the test are bisected (with
    bounded depth) before being rejected.  Clearance lower bounds are the
    face support gaps minimized over the circle (:class:`_SupportGapBound`):
    at most 12 faces the exact minimum; above that, the minimum over a
    128- or 8192-angle grid less its Lipschitz slack.
    A consequence is that poses touching the body (zero clearance) admit no
    certified motion at all: escape paths keep strictly positive clearance,
    and a circle that can leave only by grazing the boundary is reported as
    not escaping.

    The search marches straight in 26 lattice directions with adaptively
    growing certified steps.  A march takes a new step only while fewer
    than ``budget // 4`` checks are spent, but a step under way bisects
    until ``budget`` is spent, so a search can use more than a quarter.
    Success means reaching a pose whose center is at least ten
    circumradii of the body (``escape_radius``) from its centroid; a start
    meeting the interior raises :class:`InvalidStart`, and the returned
    path's later poses are validated the same way.  Step lengths scale with
    ``step``, a fiftieth of the circumradius.  The result records both,
    with the march steps accepted and rejected and the furthest center
    reached.  A march keeps only its accepted centers; circle poses are
    built for the path that is returned.

    ``budget`` counts clearance evaluations, the dominant cost: one
    matrix-vector product for the gaps ``beta`` of the circle's center,
    then the bound (:class:`_SupportGapBound`, exact at most 12 faces).
    Failure says no march escaped *within that budget* — it is
    evidence, not proof, of holding.  The search is deterministic:
    ``seed`` is only recorded in the result.
    """
    start_pen = circle_interior_intersects(K, start, TOL_OPT)
    if start_pen.intersects:
        raise InvalidStart(f"start pose penetrates the body "
                           f"(margin {start_pen.penetration:.3g})")
    return _escape(K, start, budget, seed)


def _escape(K: Polytope3, start: Circle3, budget: int,
            seed: int) -> EscapeResult:
    """The marches of :func:`escape_search`, from a start off the
    interior."""
    centroid = K.centroid
    circum = K.circumradius
    step = circum / 50.0
    escape_radius = 10.0 * circum

    n_faces, b_faces = K.face_planes()
    e1, e2, _ = start.frame()
    r = start.radius
    support_gap = _SupportGapBound(r * (n_faces @ e1), r * (n_faces @ e2))
    checks = accepted = rejected = 0

    def clearance(center: np.ndarray) -> float:
        """Lower bound on the distance from the circle to the body."""
        nonlocal checks
        checks += 1
        beta = n_faces @ center
        beta -= b_faces
        return support_gap(beta)

    def certify(c1, cl1, c2, cl2) -> bool:
        """True iff the translation between the centers certifiably avoids
        the body: a segment longer than its end clearances allow is
        halved, at most 12 times, the first half first.  A stack, not
        recursion: a recursive closure would hold this search's bound in
        a reference cycle until the next full garbage collection."""
        segments = [(c1, cl1, c2, cl2, 12)]
        while segments:
            c1, cl1, c2, cl2, depth = segments.pop()
            if cl1 <= 0.0 or cl2 <= 0.0:
                return False
            dc = c2 - c1
            if math.sqrt(dc @ dc) < cl1 + cl2:
                continue
            if depth == 0 or checks >= budget:
                return False
            cm = 0.5 * (c1 + c2)
            clm = clearance(cm)
            if clm <= 0.0:
                return False
            segments += [(cm, clm, c2, cl2, depth - 1),
                         (c1, cl1, cm, clm, depth - 1)]
        return True

    c0 = start.center_array
    cl0 = clearance(c0)
    d = c0 - centroid
    reach = math.sqrt(d @ d)

    def finish(centers):
        """The escape path: the start, then a pose per accepted center of
        the march that escaped, each validated."""
        path = [start] + [Circle3(tuple(c), start.diameter, start.normal)
                          for c in centers]
        if any(circle_interior_intersects(K, pose, TOL_OPT)
               for pose in path[1:]):
            raise CertificationError("escape path failed post-hoc validation")
        return EscapeResult("found", path, checks, 0, seed, step,
                            escape_radius, cl0, accepted, rejected, reach)

    # certified straight-line marches; a start pose touching the body
    # (cl0 <= 0) admits no certified motion at all by the Lipschitz bound
    if cl0 > 0.0:
        dirs = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                         for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)], float)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        probe_cap = budget // 4
        for u in dirs:
            if checks >= probe_cap:
                break
            centers = []
            c_cur, cl_cur = c0, cl0
            h = max(1.5 * cl_cur, 1e-3 * step)
            while checks < probe_cap:
                c_new = c_cur + h * u
                cl_new = clearance(c_new)
                if cl_new > 0.0 and certify(c_cur, cl_cur, c_new, cl_new):
                    accepted += 1
                    centers.append(c_new)
                    c_cur, cl_cur = c_new, cl_new
                    d = c_new - centroid
                    dist = math.sqrt(d @ d)
                    reach = max(reach, dist)
                    if dist >= escape_radius:
                        return finish(centers)
                    h *= 1.7
                else:
                    rejected += 1
                    h *= 0.5
                    if h < 1e-9 * max(step, 1.0):
                        break

    return EscapeResult("not_found_within_budget", None, checks, 1, seed,
                        step, escape_radius, cl0, accepted, rejected, reach)


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
    escape: EscapeResult | None
    verdict: str
    reasons: list[str] = field(default_factory=list)

    @property
    def blocked_above(self) -> bool:
        return self.block.blocked_above

    @property
    def blocked_below(self) -> bool:
        return self.block.blocked_below


def _gates(K: Polytope3, C: Circle3):
    """Penetration, surround and blocking, from one profile."""
    sc = _SliceScanner(K, C.normal, C.center)
    pen, surrounds = _pierce(sc, C, TOL_OPT)
    return pen, surrounds and not pen.intersects, _block(sc, C)


def holding_report(K: Polytope3, C: Circle3, *,
                   budget: int = 20_000) -> HoldingReport:
    """Gather every certificate this package can produce for one circle pose
    and summarize them in a verdict.

    ``CertifiedHoldingEvidence`` requires: the circle avoids the interior,
    the body passes through it, and cross-sections too wide for the circle
    exist on both sides, so no translation frees it (rotations are not
    examined) and no escape search runs: ``escape`` is ``None``.  Otherwise
    the search runs; ``EscapeFound`` is returned exactly when it finds a
    validated escape path, else ``Inconclusive``.  The reasons say when
    the search did no work: the circle touches the body, or (above 12
    faces, where the bound is sampled) lies closer to it than the
    clearance bound resolves.
    """
    return _report(K, C, _gates(K, C), _edge_pair_distances(K), budget=budget)


def _report(K: Polytope3, C: Circle3, gates, pairs, *,
            budget: int) -> HoldingReport:
    """The body of :func:`holding_report`, given the circle's
    :func:`_gates` and the body's :func:`_edge_pair_distances`."""
    pen, surrounds, block = gates
    reasons: list[str] = []
    # the distance of nonintersecting_edge_bound, None without a pair
    edge_bound = float(pairs[2].min()) if len(pairs[2]) else None

    escape = None
    if pen.intersects:
        reasons.append(f"circle penetrates the body "
                       f"(margin {pen.penetration:.3g}) — not a holding circle")
        verdict = VERDICT_INCONCLUSIVE
    elif surrounds and block.blocked_above and block.blocked_below:
        verdict = VERDICT_EVIDENCE
        reasons.append(
            f"the body passes through the circle and sections wider than it "
            f"lie on both sides (margins {block.above.margin:.3g} above, "
            f"{block.below.margin:.3g} below), so no translation carries "
            f"the circle past them; rotations are not examined")
    else:
        if not surrounds:
            reasons.append("body does not pass through the circle")
        if not block.blocked_above:
            reasons.append("no blocking cross-section above the circle plane")
        if not block.blocked_below:
            reasons.append("no blocking cross-section below the circle plane")
        escape = _escape(K, C, budget, DEFAULT_SEED)  # the gates checked C
        if escape.start_clearance <= 0.0:
            reasons.append(
                f"the escape search did no work: the start clearance bound "
                f"is {escape.start_clearance:.3g} <= 0, so no motion can be "
                f"certified")
        if escape.found:
            verdict = VERDICT_ESCAPE
            reasons.append(f"escape path found after {escape.checks_used} checks")
        else:
            verdict = VERDICT_INCONCLUSIVE
            reasons.append(f"escape not found ({escape.checks_used} of "
                           f"{budget} clearance evaluations used), but "
                           f"blocking certificates are incomplete")

    return HoldingReport(C, not pen.intersects, pen.penetration, surrounds,
                         block, edge_bound, escape, verdict, reasons)


# ---------------------------------------------------------------------------
# projection chain certificate
# ---------------------------------------------------------------------------

def _directions_surround_origin(u: np.ndarray) -> bool:
    """True if the unit vectors positively span the plane (origin in hull)."""
    ang = np.sort(np.arctan2(u[:, 1], u[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    return bool(gaps.max() < np.pi - 1e-7)


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
    at angle theta (vertical meaning the circle normal).  Both minima over
    theta are exact: each is taken over a finite candidate set of
    directions (:func:`~circlehold.polytope._min_shadow_width`), not an
    angle grid.  For computation the prism is ``region2`` (``region``
    clipped to a large working square about the circle's centre) moved by
    ``L`` both ways along ``delta_direction``, and that is exact for any
    ``L``: every tangent normal is perpendicular to ``delta``, so a
    direction ``v = (v_h, v_z)`` has ``breadth(v) = breadth_region(v_h) +
    2 L |v . delta|``, and the ratio ``breadth(v) / |v x n|`` is at least
    ``width2(region)``, with equality at ``v . delta = 0``.

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
    region2: np.ndarray            # region clipped to the working square
    strip_direction: np.ndarray | None
    values: dict[str, float]
    checks: dict[str, bool]

    @property
    def holds(self) -> bool:
        return all(self.checks.values())


def chain_certificate(K: Polytope3, C: Circle3, *,
                      side: str = "auto") -> ChainCertificate:
    """Build the projection chain certificate for a circle pose.

    Requires the body to pass through the circle (:func:`surrounds_slice`)
    and the circle to avoid the body's interior to margin ``TOL_OPT``
    (:func:`circle_interior_intersects`), else :class:`InvalidInput`, and
    a cross-section on the chosen side whose circumdiameter exceeds the
    circle diameter by more than ``TOL_OPT`` (else
    :class:`NoBlockingSlice`).  ``side="auto"`` builds the blocked
    sides in turn, above first, and returns the first certificate whose
    checks all hold; only when none holds is every side built, to fall back
    to the one with the fewest failures.  The chain is asymmetric, so
    typically only the side whose far half is the wide one can certify.

    Each side's blocking section is that of
    :func:`translation_block_certificate`: its largest, over the side's
    near end (just off the circle's plane, never on it, where the prism
    direction would be undefined) and its vertex heights (the profile is
    convex in between).  The prism is the boxed region moved along the
    prism direction, so no hull is built; the far half is the profile's
    vertices beyond the plane and its section in the plane, so the body is
    cut once.  The minimal shadow widths of the far half and of the prism
    are exact, so every link of the chain is computed, none sampled.
    """
    d = C.diameter
    sc = _SliceScanner(K, C.normal, C.center)
    if not (sc.h_min < -1e-12 * sc.scale and sc.h_max > 1e-12 * sc.scale):
        raise InvalidInput("circle plane does not cut the body interior")
    pen, surrounds = _pierce(sc, C, TOL_OPT)
    if not surrounds:
        raise InvalidInput("body does not pass through the circle")
    if pen.intersects:
        raise InvalidInput(f"circle penetrates the body (margin "
                           f"{pen.penetration:.3g})")
    if side not in ("auto", "above", "below"):
        raise InvalidInput(f"side must be 'above', 'below' or 'auto', got {side!r}")

    block = _block(sc, C)
    candidates = [(name, sb.height, sb.circumdiameter, sgn)
                  for name, sb, sgn in (("above", block.above, 1.0),
                                        ("below", block.below, -1.0))
                  if side in ("auto", name) and sb.blocked]
    if not candidates:
        d_up, d_dn = block.above.circumdiameter, block.below.circumdiameter
        d_best = {"auto": max(d_up, d_dn), "above": d_up, "below": d_dn}[side]
        raise NoBlockingSlice(
            f"no cross-section on the {side} side exceeds the circle "
            f"diameter ({d_best:.12g} <= {d:.12g} + {TOL_OPT:g})")

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
        # clipped to a working square (harmless: see class docstring)
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

        # the prism itself: the boxed region moved both ways along the
        # prism direction (exact for any length: see class docstring)
        lifted = np.array([sc.lift(p, 0.0) for p in poly])
        min_wh_region = _min_shadow_width(
            np.vstack([lifted + box * delta_world,
                       lifted - box * delta_world]), nrm)

        # the far half of the body, off the pose's profile
        min_wh_far = _min_shadow_width(sc.half(-sgn), nrm)

        values = {
            "width": w,
            "min_wh_far_half": min_wh_far,
            "min_wh_region": min_wh_region,
            "width2_region": w2_region,
            "diameter_bound": 1.5 * d,
        }

        inscribed_r = chebyshev_inscribed(region_poly).radius

        abs_tol = TOL_GEOM * sc.scale
        map_tol = 1e-9 * max(1.0, d)
        checks = {
            "section_exceeds_circle": d_h > d + TOL_OPT,
            "ratio_in_unit_interval": 0.0 < rho < 1.0,
            "contacts_on_section_circumcircle":
                bool(np.all(np.abs(dist[dist >= d_h / 2.0 - contact_tol]
                                   - d_h / 2.0) <= contact_tol * 10)),
            "contacts_map_onto_circle":
                bool(np.all(np.abs(qn - d / 2.0) <= map_tol)),
            "contacts_surround_circle": surround,
            "circle_inscribed_in_region": inscribed_r >= d / 2.0 - map_tol,
            "width_le_far_half": w <= min_wh_far + abs_tol,
            "far_half_lt_region": min_wh_far < min_wh_region - TOL_GEOM,
            "region_min_equals_width2": abs(min_wh_region - w2_region) < TOL_OPT,
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

def _axis_candidates(K: Polytope3, pairs) -> list[np.ndarray]:
    axes = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0])]
    cyl = min_cylinder(K, refine=False, grid_level=3)
    axes.append(np.asarray(cyl.axis_direction, float))
    segs = K.vertices[np.asarray(K.edges, int)]
    I, J, D = pairs
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


def _waist_candidates(K: Polytope3, axis: np.ndarray):
    """The waists of :func:`_waists` along an axis: (diameter, height,
    center2, scanner)."""
    sc = _SliceScanner(K, axis)
    out = []
    for d, t in _waists(sc, TOL_OPT):
        c = sc.circum(t)
        if c is not None and d > 0:
            out.append((d, t, np.asarray(c.center), sc))
    return out


def min_holding_circle(K: Polytope3) -> tuple[Circle3, HoldingReport]:
    """Search for the smallest circle with certified holding evidence.

    A circle that fails to meet the body's interior while the body passes
    through it must contain the cross-section in its own plane, so its
    diameter is at least the section's circumdiameter.  The smallest viable
    circles therefore sit at *waists*: interior local minima of the
    circumdiameter profile along some axis.  The search scans a family of
    axes (coordinate axes, the minimal-cylinder axis, directions derived
    from the closest non-adjacent edge pairs), collects waist circles in
    ascending diameter order (at most 12 distinct ones), polishes the best
    axis, and returns the first candidate that passes the gates of
    ``CertifiedHoldingEvidence`` (:func:`holding_report`).  A body with a
    non-finite vertex raises :class:`InvalidInput` before any work is done.

    The profile is convex between consecutive vertex heights, so waists are
    found exactly, not on a height grid (:func:`_waists`).  A waist is a
    candidate only if the profile exceeds its diameter by more than
    ``TOL_OPT`` on both sides, else the blocking gate rejects its circle;
    the polish minimises the smallest such waist over the axis, each
    interval searched only until convexity bounds its value to
    ``1e-13 * scale`` (:func:`_convex_min`).

    The result is an upper bound on the minimal holding diameter (evidence
    semantics as in :func:`holding_report`);
    :func:`nonintersecting_edge_bound` supplies a lower bound for
    polytopes.  Raises :class:`NotFound` when no candidate certifies.
    """
    if not np.isfinite(K.vertices).all():
        raise InvalidInput("vertices must be finite")
    pairs = _edge_pair_distances(K)
    cands = []
    for axis in _axis_candidates(K, pairs):
        cands.extend(_waist_candidates(K, axis))
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

        def waist_along(axis) -> float:
            return min(_waists(_SliceScanner(K, axis), TOL_OPT, smallest=True),
                       1e30)

        dia, axis = _polish_axis(waist_along, [ax0], 1e-7, 1e-12, 60)
        if dia < dia0 - 1e-12:
            extra = _waist_candidates(K, axis)
            extra.sort(key=lambda c: c[0])
            if extra:
                dd, tt, cc2, ssc = extra[0]
                filtered.insert(0, (dd, ssc.lift(cc2, tt), ssc.frame[2]))

    for dia, center, axis in filtered:
        circle = Circle3(tuple(center), dia, tuple(axis))
        gates = _gates(K, circle)
        _, surrounds, block = gates  # surrounds only when not penetrating
        if surrounds and block.blocked_above and block.blocked_below:
            # the gates pass, so the report runs no search: no budget
            return circle, _report(K, circle, gates, pairs, budget=0)

    raise NotFound("no waist candidate produced certified holding evidence")


# ---------------------------------------------------------------------------
# extremality diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ExtremalityDiagnostics:
    """How close a certified configuration is to the extremal family.

    In the extremal limit the chain's region is an equilateral triangle
    circumscribing the circle and the contacts concentrate near three
    equally spaced points on it.  ``cluster_distance`` is the worst
    contact's distance to the nearest of three ideal tangency points,
    minimised exactly over their common rotation ``cluster_rotation``.
    ``triangle`` circumscribes the circle and touches it at those points
    (in the chain's plane coordinates), and ``hausdorff`` is the region's
    exact distance from it (``inf`` for a strip): nothing is fitted.
    ``slacks`` lists the gaps in the chain inequalities — all of them
    shrink to zero exactly in the extremal limit.
    """

    hausdorff: float
    triangle: Polygon2
    cluster_distance: float
    cluster_rotation: float
    slacks: dict[str, float]
    chain: ChainCertificate


def extremality_diagnostics(K: Polytope3, C: Circle3,
                            chain: ChainCertificate | None = None
                            ) -> ExtremalityDiagnostics:
    """Quantify how near a certified circle is to the sharp two-thirds
    bound, in closed form (see :class:`ExtremalityDiagnostics`)."""
    if chain is None:
        chain = chain_certificate(K, C)
    d = C.diameter

    # the contacts lie on the circle, so the cost grows with each contact's
    # angle to its nearest ideal point: the best rotation centres the
    # shortest arc that covers the contact angles modulo 2 pi / 3
    q, period = chain.contacts2, 2.0 * np.pi / 3.0
    ang = np.arctan2(q[:, 1], q[:, 0]) % period  # -tiny % period == period
    ang = np.sort(np.where(ang < period, ang, 0.0))
    gaps = np.diff(ang, append=ang[0] + period)
    k = int(np.argmax(gaps))
    psi_best = float(ang[(k + 1) % len(ang)] + (period - gaps[k]) / 2)
    psi_best %= period
    if period - psi_best <= 1e-12 * period:  # centred by rounding below 0
        psi_best = 0.0
    ideal = psi_best + np.array([0.0, period, 2.0 * period])
    ideal = (d / 2.0) * np.stack([np.cos(ideal), np.sin(ideal)], axis=1)
    v_best = float(np.linalg.norm(q[:, None] - ideal, axis=2).min(axis=1).max())

    # the extremal triangle: its edges touch the circle at the ideal points
    triangle = equilateral_triangle(1.5 * d, psi_best + np.pi, (0.0, 0.0))
    haus = (hausdorff_distance(Polygon2.from_points(chain.region2), triangle)
            if chain.region_kind == "polygon" else float("inf"))

    v = chain.values
    slacks = {
        "width_vs_far_half": v["min_wh_far_half"] - v["width"],
        "far_half_vs_region": v["min_wh_region"] - v["min_wh_far_half"],
        "region_vs_diameter_bound": v["diameter_bound"] - v["width2_region"],
    }
    return ExtremalityDiagnostics(
        hausdorff=haus, triangle=triangle, cluster_distance=v_best,
        cluster_rotation=psi_best, slacks=slacks, chain=chain,
    )
