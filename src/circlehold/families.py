"""Parametric families of polytopes with closed-form predictions.

Each constructor returns a :class:`FamilyInstance` bundling the body, an
optional distinguished circle, and a dictionary of predicted quantities.
Every prediction carries the formula it was evaluated from, so tests and
reports can cross-check the geometric machinery (width, cylinder, slice
scans, escape search) against independent arithmetic.

The families:

- ``octahedron_iceberg(a, h)``: a narrow triangle above a wide one; its
  waist circle certifies holding while every vertical projection of the
  upper half is horizontally narrower than the lower one.  Along a -> 1,
  h -> infinity the circle diameter tends to 2 and the width to 3, which
  pushes the diameter/width ratio down to 2/3.
- ``seven_vertex_iceberg(a, h)``: the same body plus an apex above, which
  destroys the large tilted holding circles but keeps the waist circle.
- ``rectangle_circle(a, h)``: the large tilted circle of the octahedron
  through two top-edge and two bottom-edge points forming a rectangle.
- ``flat_tetrahedron(eps)`` / ``five_vertex_flat(eps)``: nearly flat
  bodies whose small holding circle is horizontal; neither admits the
  narrower-above-wider-below profile in either orientation.
- ``skew_tetrahedron(eps)``: a sliver holding a circle whose diameter is
  far below the circumscribing-cylinder diameter.
- ``bevelled_cylinder(R, m)``: two unit rims far apart along an axis plus
  four bevel vertices; holding circles have diameter 2R while the minimal
  circumscribing cylinder stays at diameter 2, so the ratio is unbounded.
- ``wd_tetrahedron(p, q, s)``: two horizontal orthogonal edges joined by a
  vertical common perpendicular through their midpoints; when the waist
  value p*q/sqrt(p^2+q^2) does not exceed the separation s, the width
  coincides with the minimal holding diameter.
- ``simplex_hull_nd(n, a, h)``: the n-dimensional analogue of the
  octahedron (hull of a small and a large parallel simplex), with the
  holding-sphere diameter and width limits expressed through the planar
  inradius-versus-width constant ``steinhagen_constant(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import fsolve, minimize_scalar

from .errors import DegenerateInput, InvalidParam, NoSolution
from .holding import Circle3
from .polytope import Polytope3, _difference_hull, build_hull

__all__ = [
    "J",
    "Prediction",
    "FamilyInstance",
    "PolytopeND",
    "FAMILIES",
    "octahedron_iceberg",
    "seven_vertex_iceberg",
    "rectangle_circle",
    "flat_tetrahedron",
    "five_vertex_flat",
    "skew_tetrahedron",
    "bevelled_cylinder",
    "wd_tetrahedron",
    "simplex_hull_nd",
    "simplex_waist_minimum",
    "simplex_holding_sphere_diameter",
    "steinhagen_constant",
    "width_nd",
]

#: Primitive cube root of unity; the triangular families live in C x R.
J = np.exp(2j * np.pi / 3.0)


def _require_finite(**params: float) -> None:
    """Reject a nan or infinite parameter by name, before any arithmetic
    (``inf`` passes the range checks ``a > 1`` and ``h > 0``)."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidParam(f"{name} must be finite, got {value}")


def _embed(z: complex, t: float) -> tuple[float, float, float]:
    """Map a (complex, height) pair to a 3D point."""
    return (float(np.real(z)), float(np.imag(z)), float(t))


@dataclass(frozen=True)
class Prediction:
    """A predicted quantity together with the formula that produced it."""

    value: object
    formula: str


@dataclass
class FamilyInstance:
    """A constructed body plus its distinguished circle and predictions."""

    name: str
    params: dict[str, float]
    body: "Polytope3 | PolytopeND"
    circle: Circle3 | None
    predictions: dict[str, Prediction] = field(default_factory=dict)

    def predicted(self, key: str):
        """Shorthand for ``predictions[key].value``."""
        return self.predictions[key].value


# ---------------------------------------------------------------------------
# triangular iceberg family
# ---------------------------------------------------------------------------

def _octahedron_quantities(a: float, h: float) -> dict[str, float]:
    phi = np.arctan((a - 1.0) / np.sqrt(3.0))
    d = 2.0 * a * np.cos(phi)
    lam = a * (a - 1.0) / ((a - 1.0) ** 2 + 3.0)
    w = min(3.0 * h / np.hypot(h, a - 1.0),
            3.0 * h / np.hypot(h, 2.0 - a / 2.0))
    return {"phi": phi, "d": float(d), "lam": float(lam),
            "zc": float(-lam * h), "w": float(w)}


def octahedron_iceberg(a: float, h: float) -> FamilyInstance:
    """Hull of a small top triangle (circumradius a) over a big bottom one.

    Vertices are ``a*j^k`` at height 0 and ``-2*j^k`` at height ``-h``.
    The distinguished circle is the horizontal waist circle; it holds the
    body although the top is narrower than the bottom in every vertical
    projection.
    """
    _require_finite(a=a, h=h)
    if not a > 1.0:
        raise InvalidParam(f"need a > 1, got {a}")
    if not h > 0.0:
        raise InvalidParam(f"need h > 0, got {h}")
    qs = _octahedron_quantities(a, h)
    verts = [_embed(a * J ** k, 0.0) for k in range(3)]
    verts += [_embed(-2.0 * J ** k, -h) for k in range(3)]
    body = build_hull(np.array(verts))
    circle = Circle3((0.0, 0.0, qs["zc"]), qs["d"], (0.0, 0.0, 1.0))
    predictions = {
        "diameter": Prediction(
            qs["d"], "2*a*cos(arctan((a-1)/sqrt(3)))"),
        "center_z": Prediction(
            qs["zc"], "-h*a*(a-1)/((a-1)^2+3)"),
        "waist_fraction": Prediction(
            qs["lam"], "a*(a-1)/((a-1)^2+3)"),
        "width": Prediction(
            qs["w"],
            "min(3*h/sqrt(h^2+(a-1)^2), 3*h/sqrt(h^2+(2-a/2)^2))"),
        "ratio": Prediction(
            qs["d"] / qs["w"], "diameter/width"),
        "diameter_limit": Prediction(2.0, "limit of diameter as a -> 1"),
        "width_limit": Prediction(3.0, "limit of width as h -> inf"),
        "ratio_limit": Prediction(2.0 / 3.0, "2/3"),
    }
    return FamilyInstance("octahedron-iceberg", {"a": a, "h": h},
                          body, circle, predictions)


def seven_vertex_iceberg(a: float, h: float,
                         apex_height: float = 1.0) -> FamilyInstance:
    """The octahedron body with an extra apex on the axis above the top.

    The apex leaves the waist circle (and everything near it) in place but
    obstructs the large tilted circles through top and bottom edges, so the
    supremum of holding diameters collapses to the small-circle scale.
    """
    _require_finite(apex_height=apex_height)
    base = octahedron_iceberg(a, h)
    if not apex_height > 0.0:
        raise InvalidParam(f"need apex_height > 0, got {apex_height}")
    verts = np.vstack([base.body.vertices, [0.0, 0.0, apex_height]])
    body = build_hull(verts)
    predictions = dict(base.predictions)
    predictions["apex"] = Prediction(
        (0.0, 0.0, float(apex_height)), "(0, 0, apex_height)")
    return FamilyInstance("seven-vertex", {"a": a, "h": h,
                                           "apex_height": apex_height},
                          body, base.circle, predictions)


def rectangle_circle(a: float, h: float) -> FamilyInstance:
    """The large tilted holding circle of the octahedron body.

    Four points -- A, A' on the two top edges adjacent to the real-axis
    vertex, B, B' on the two bottom edges adjacent to the opposite bottom
    vertex -- form a planar rectangle whose diagonals AB and A'B' are
    diameters of one circle.  The defining equations (equal imaginary
    parts for A and B', and a 60-degree argument for A - B) are solved
    numerically and cross-checked against the closed forms
    alpha = (3a-2)/(4a), beta = 1 - (a+2)/8.
    """
    inst = octahedron_iceberg(a, h)

    def points(alpha: float, beta: float):
        z_a = a * alpha + J * a * (1.0 - alpha)
        z_a2 = a * alpha + J ** 2 * a * (1.0 - alpha)
        z_b = -2.0 * beta - 2.0 * J * (1.0 - beta)
        z_b2 = -2.0 * beta - 2.0 * J ** 2 * (1.0 - beta)
        return z_a, z_a2, z_b, z_b2

    def residuals(x):
        z_a, _, z_b, z_b2 = points(x[0], x[1])
        return [np.imag(z_a) - np.imag(z_b2),
                np.angle(z_a - z_b) - np.pi / 3.0]

    sol, info, ier, msg = fsolve(residuals, x0=[0.5, 0.5], full_output=True)
    if ier != 1:
        raise NoSolution(f"rectangle equations did not converge: {msg}")
    alpha, beta = float(sol[0]), float(sol[1])
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise NoSolution(
            f"rectangle solution leaves the edges: alpha={alpha}, beta={beta}")

    z_a, z_a2, z_b, z_b2 = points(alpha, beta)
    A = np.array(_embed(z_a, 0.0))
    A2 = np.array(_embed(z_a2, 0.0))
    B = np.array(_embed(z_b, -h))
    B2 = np.array(_embed(z_b2, -h))
    center = (A + B) / 2.0
    diameter = float(np.linalg.norm(A - B))
    normal = np.cross(B - A, B2 - A2)
    normal /= np.linalg.norm(normal)
    circle = Circle3(tuple(center), diameter, tuple(normal))

    alpha_closed = (3.0 * a - 2.0) / (4.0 * a)
    beta_closed = 1.0 - (a + 2.0) / 8.0
    res = residuals([alpha, beta])
    predictions = {
        "alpha": Prediction(alpha_closed, "(3a-2)/(4a)"),
        "beta": Prediction(beta_closed, "1-(a+2)/8"),
        "diameter": Prediction(
            diameter, "sqrt(h^2 + |z_A - z_B|^2) at the solved (alpha, beta)"),
        "small_diameter": Prediction(
            inst.predicted("diameter"), "2*a*cos(arctan((a-1)/sqrt(3)))"),
        "exceeds_top_diameter": Prediction(
            diameter > 2.0 * a, "diameter > 2a"),
        "corner_A": Prediction(tuple(A), "a*alpha + j*a*(1-alpha) at t=0"),
        "corner_A2": Prediction(tuple(A2), "a*alpha + j^2*a*(1-alpha) at t=0"),
        "corner_B": Prediction(tuple(B), "-2*beta - 2j*(1-beta) at t=-h"),
        "corner_B2": Prediction(tuple(B2), "-2*beta - 2j^2*(1-beta) at t=-h"),
        "residuals": Prediction(
            (float(res[0]), float(res[1])),
            "(Im z_A - Im z_B', arg(z_A - z_B) - pi/3)"),
    }
    return FamilyInstance("rectangle-circle", {"a": a, "h": h},
                          inst.body, circle, predictions)


# ---------------------------------------------------------------------------
# flat and skew slivers
# ---------------------------------------------------------------------------

def flat_tetrahedron(eps: float) -> FamilyInstance:
    """Tetrahedron with a short bottom edge and a long top edge above it.

    Vertices ``(0, +-eps, 0)`` and ``(+-1, 0, 1)``.  Its minimal holding
    circle is horizontal, centred on the axis at altitude d^2/4 with
    d = 2*sin(arctan(eps)), which also equals the smallest distance
    between non-adjacent edges.  The minimal circumscribing cylinder has
    diameter 1 + eps^2 about a horizontal axis at height (1 - eps^2)/2.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidParam(f"need 0 < eps < 1, got {eps}")
    verts = np.array([[0.0, eps, 0.0], [0.0, -eps, 0.0],
                      [1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    body = build_hull(verts)
    d = 2.0 * eps / np.sqrt(1.0 + eps * eps)
    altitude = d * d / 4.0
    circle = Circle3((0.0, 0.0, altitude), float(d), (0.0, 0.0, 1.0))
    predictions = {
        "diameter": Prediction(float(d), "2*sin(arctan(eps))"),
        "altitude": Prediction(float(altitude), "d^2/4 = eps^2/(1+eps^2)"),
        "edge_bound": Prediction(float(d),
                                 "min non-adjacent edge distance = diameter"),
        "cylinder_diameter": Prediction(1.0 + eps * eps, "1 + eps^2"),
        "cylinder_axis_height": Prediction((1.0 - eps * eps) / 2.0,
                                           "(1 - eps^2)/2"),
        "cylinder_axis_direction": Prediction((1.0, 0.0, 0.0),
                                              "top edge direction"),
    }
    return FamilyInstance("flat-tetra", {"eps": eps}, body, circle,
                          predictions)


def five_vertex_flat(eps: float) -> FamilyInstance:
    """The flat tetrahedron with a fifth vertex just below the bottom edge.

    The extra vertex ``(0, 0, -eps^2)`` removes the vertical holding
    circles through the two edge midpoints while keeping the horizontal
    one, and the body still has no narrower-above profile either way up.
    """
    base = flat_tetrahedron(eps)
    verts = np.vstack([base.body.vertices, [0.0, 0.0, -eps * eps]])
    body = build_hull(verts)
    predictions = dict(base.predictions)
    predictions["fifth_vertex"] = Prediction(
        (0.0, 0.0, -float(eps * eps)), "(0, 0, -eps^2)")
    return FamilyInstance("five-vertex-flat", {"eps": eps}, body,
                          base.circle, predictions)


def skew_tetrahedron(eps: float) -> FamilyInstance:
    """A sliver tetrahedron held by a tiny circle in the plane x = 0.

    Vertices ``(-2, -1, eps)``, ``(-1, 0, 0)``, ``(2a, a, eps)``,
    ``(a, 0, 0)`` with ``a = eps^2``.  The long edges (1st-3rd and
    2nd-4th vertices) have the z-axis as common perpendicular; the circle
    of diameter eps centred at ``(0, 0, eps/2)`` with normal along x
    passes through their crossing segment's endpoints, while the two
    remaining edges cross the plane x = 0 strictly inside the circle.
    """
    if not 0.0 < eps < 0.5:
        raise InvalidParam(f"need 0 < eps < 0.5, got {eps}")
    a = eps * eps
    verts = np.array([[-2.0, -1.0, eps], [-1.0, 0.0, 0.0],
                      [2.0 * a, a, eps], [a, 0.0, 0.0]])
    body = build_hull(verts)
    circle = Circle3((0.0, 0.0, eps / 2.0), float(eps), (1.0, 0.0, 0.0))
    cross_14 = (0.0, -a / (a + 2.0), a * eps / (a + 2.0))
    cross_23 = (0.0, a / (2.0 * a + 1.0), eps / (2.0 * a + 1.0))
    predictions = {
        "diameter": Prediction(float(eps), "eps"),
        "center": Prediction((0.0, 0.0, eps / 2.0), "(0, 0, eps/2)"),
        "crossing_v1v4": Prediction(
            cross_14, "(0, -a/(a+2), a*eps/(a+2)) with a = eps^2"),
        "crossing_v2v3": Prediction(
            cross_23, "(0, a/(2a+1), eps/(2a+1)) with a = eps^2"),
        "common_perpendicular": Prediction(
            (0.0, 0.0, 1.0), "z-axis joins the two long edges"),
    }
    return FamilyInstance("skew-tetra", {"eps": eps}, body, circle,
                          predictions)


# ---------------------------------------------------------------------------
# bevelled cylinder
# ---------------------------------------------------------------------------

def bevelled_cylinder(R: float, m: int) -> FamilyInstance:
    """Hull of two unit rims about the x-axis plus four bevel vertices.

    The rims are regular m-gons inscribed in the unit circles of the
    planes ``x = -(R-1)`` and ``x = R-1``; the bevel vertices are
    ``(-R, -1, 0)``, ``(-R, 1, 0)``, ``(R, 0, -1)``, ``(R, 0, 1)``.  The
    minimal circumscribing cylinder keeps diameter 2 (the rims fix it),
    while the diametral circle through ``(+-R, 0, 0)``, tilted so its
    axis avoids the planes y = 0 and z = 0, is held -- its diameter 2R
    grows without bound in R.  When 4 divides m, four rim points fall on
    bevel-to-rim segments and the hull has exactly 2m vertices.
    """
    _require_finite(R=R, m=m)
    if not R > 2.0:
        raise InvalidParam(f"need R > 2, got {R}")
    m = int(m)
    if m < 16:
        raise InvalidParam(f"need m >= 16, got {m}")
    psi = 2.0 * np.pi * np.arange(m) / m
    ring = np.stack([np.cos(psi), np.sin(psi)], axis=1)
    left = np.column_stack([np.full(m, 1.0 - R), ring])
    right = np.column_stack([np.full(m, R - 1.0), ring])
    bevel = np.array([[-R, -1.0, 0.0], [-R, 1.0, 0.0],
                      [R, 0.0, -1.0], [R, 0.0, 1.0]])
    body = build_hull(np.vstack([bevel, left, right]))
    s = np.sqrt(0.5)
    circle = Circle3((0.0, 0.0, 0.0), 2.0 * R, (0.0, s, s))
    # rim points collinear with a bevel-to-opposite-rim segment are absorbed
    # by the hull: (-(R-1), +-1, 0) whenever they exist, (R-1, 0, +-1) only
    # when 4 divides m
    if m % 4 == 0:
        expected_vertices = 2 * m
    elif m % 2 == 0:
        expected_vertices = 2 * m + 2
    else:
        expected_vertices = 2 * m + 3
    predictions = {
        "circle_diameter": Prediction(2.0 * R, "2R (diametral segment)"),
        "cylinder_diameter": Prediction(2.0, "2 (unit rims)"),
        "ratio": Prediction(float(R), "2R / 2, unbounded in R"),
        "vertex_count": Prediction(expected_vertices,
                                   "2m if 4 | m; 2m + 2 even m; 2m + 3 odd m"),
        "rim_planes": Prediction((1.0 - R, R - 1.0), "x = -(R-1), x = R-1"),
    }
    return FamilyInstance("bevelled-cylinder", {"R": R, "m": float(m)},
                          body, circle, predictions)


# ---------------------------------------------------------------------------
# width-equals-diameter tetrahedra
# ---------------------------------------------------------------------------

def wd_tetrahedron(p: float, q: float, s: float) -> FamilyInstance:
    """Two horizontal orthogonal edges with a vertical common perpendicular.

    Vertices ``(+-p/2, 0, s)`` and ``(0, +-q/2, 0)``.  Cross-sections at
    height ``t*s`` are rectangles with circumdiameter
    ``sqrt(p^2 t^2 + q^2 (1-t)^2)``, minimized at ``t* = q^2/(p^2+q^2)``
    with value ``p*q/sqrt(p^2+q^2)``.  When that waist value is at most
    ``s`` the width equals the minimal holding diameter; otherwise the
    waist circle still holds but is wider than the body.
    """
    _require_finite(p=p, q=q, s=s)
    if min(p, q, s) <= 0.0:
        raise InvalidParam(f"need p, q, s > 0, got {(p, q, s)}")
    verts = np.array([[p / 2.0, 0.0, s], [-p / 2.0, 0.0, s],
                      [0.0, q / 2.0, 0.0], [0.0, -q / 2.0, 0.0]])
    body = build_hull(verts)
    waist = p * q / np.hypot(p, q)
    t_star = q * q / (p * p + q * q)
    circle = Circle3((0.0, 0.0, float(s * t_star)), float(waist),
                     (0.0, 0.0, 1.0))
    predictions = {
        "waist_diameter": Prediction(float(waist), "p*q/sqrt(p^2+q^2)"),
        "waist_height": Prediction(float(s * t_star), "s*q^2/(p^2+q^2)"),
        "in_equality_class": Prediction(
            bool(waist <= s + 1e-12), "p*q/sqrt(p^2+q^2) <= s"),
        "edge_separation": Prediction(float(s),
                                      "distance of the two edge planes"),
    }
    return FamilyInstance("wd-tetra", {"p": p, "q": q, "s": s}, body,
                          circle, predictions)


# ---------------------------------------------------------------------------
# higher-dimensional hulls
# ---------------------------------------------------------------------------

@dataclass
class PolytopeND:
    """Vertex-described full-dimensional polytope in R^n, n >= 2."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, float)
        if self.vertices.ndim != 2:
            raise DegenerateInput("vertices must be a 2D array")
        m, n = self.vertices.shape
        if n < 2 or m < n + 1:
            raise DegenerateInput(
                f"need at least n+1 vertices in R^n (n >= 2), got {m} in R^{n}")
        # build_hull's rank tolerance, relative to the body's size
        centred = self.vertices - self.vertices.mean(axis=0)
        scale = max(1.0, float(np.abs(self.vertices).max()))
        if np.linalg.matrix_rank(centred, tol=1e-10 * scale) < n:
            raise DegenerateInput("vertex set is not full-dimensional")

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])


def _simplex_directions(n: int) -> np.ndarray:
    """n unit vectors in R^(n-1) with pairwise inner product -1/(n-1)."""
    if n == 2:
        return np.array([[1.0], [-1.0]])
    sub = _simplex_directions(n - 1)
    c = -1.0 / (n - 1.0)
    r = np.sqrt(1.0 - c * c)
    out = np.zeros((n, n - 1))
    out[0, 0] = 1.0
    out[1:, 0] = c
    out[1:, 1:] = r * sub
    return out


def steinhagen_constant(n: int) -> float:
    """The sharp inradius-to-width ratio constant for convex sets in R^(n-1).

    Every convex body in R^(n-1) has inradius at least C(n)/2 times its
    width; C(3) = 2/3 is the planar equilateral-triangle case.
    """
    n = int(n)
    if n < 3:
        raise InvalidParam(f"need n >= 3, got {n}")
    if n % 2 == 0:
        return float(1.0 / np.sqrt(n - 1.0))
    return float(np.sqrt(n + 1.0) / n)


def simplex_holding_sphere_diameter(n: int, a: float) -> float:
    """Closed-form diameter of the waist sphere of ``simplex_hull_nd``."""
    _require_finite(n=n, a=a)
    n = int(n)
    if n < 3:
        raise InvalidParam(f"need n >= 3, got {n}")
    if not a > 1.0:
        raise InvalidParam(f"need a > 1, got {a}")
    return float(2.0 * a / np.sqrt(1.0 + (a - 1.0) ** 2 / (n * n - 2.0 * n)))


def simplex_waist_minimum(n: int, a: float) -> tuple[float, float]:
    """Numerically minimized cross-section circumdiameter of the hull.

    A point a fraction ``lam`` down a lateral edge has squared distance
    ``f(lam) = a^2 (1-lam)^2 + lam^2 (n-1)^2 + 2 a lam (1-lam)`` from the
    axis, so the sphere of diameter ``2 sqrt(min f)`` is the waist.
    Returns ``(lam, diameter)``; an independent check of
    :func:`simplex_holding_sphere_diameter`.
    """
    _require_finite(n=n, a=a)
    n = int(n)
    if n < 3:
        raise InvalidParam(f"need n >= 3, got {n}")
    if not a > 1.0:
        raise InvalidParam(f"need a > 1, got {a}")

    def f(lam: float) -> float:
        return (a * a * (1.0 - lam) ** 2 + lam * lam * (n - 1.0) ** 2
                + 2.0 * a * lam * (1.0 - lam))

    res = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-14})
    return float(res.x), float(2.0 * np.sqrt(res.fun))


def simplex_hull_nd(n: int, a: float, h: float) -> FamilyInstance:
    """Hull of a small simplex over a large one in R^n.

    Top vertices ``a * u_i`` at height 0 and bottom vertices
    ``(1-n) * u_i`` at height ``-h``, where the ``u_i`` are n unit vectors
    in R^(n-1) with pairwise inner product -1/(n-1).  For n = 3 this is
    exactly the octahedron family.  The waist sphere of diameter about 2a
    holds the body, while the width approaches ``2/C(n)`` for a -> 1,
    h -> infinity, C being :func:`steinhagen_constant`.
    """
    _require_finite(n=n, a=a, h=h)
    n = int(n)
    if n < 3:
        raise InvalidParam(f"need n >= 3, got {n}")
    if not a > 1.0:
        raise InvalidParam(f"need a > 1, got {a}")
    if not h > 0.0:
        raise InvalidParam(f"need h > 0, got {h}")
    u = _simplex_directions(n)
    top = np.column_stack([a * u, np.zeros(n)])
    bottom = np.column_stack([(1.0 - n) * u, np.full(n, -h)])
    body = PolytopeND(np.vstack([top, bottom]))
    side = a * np.sqrt(2.0 * n / (n - 1.0))
    lam = a * (a - 1.0) / ((a - 1.0) ** 2 + n * n - 2.0 * n)
    predictions = {
        "top_side": Prediction(float(side), "a*sqrt(2n/(n-1))"),
        "holding_sphere_diameter": Prediction(
            simplex_holding_sphere_diameter(n, a),
            "2a*(1+(a-1)^2/(n^2-2n))^(-1/2)"),
        "waist_fraction": Prediction(
            float(lam), "a*(a-1)/((a-1)^2+n^2-2n)"),
        "width_limit": Prediction(
            2.0 / steinhagen_constant(n), "2/C(n) as a -> 1, h -> inf"),
        "ratio_limit": Prediction(
            float(steinhagen_constant(n)), "C(n)"),
    }
    return FamilyInstance("simplex-hull", {"n": float(n), "a": a, "h": h},
                          body, None, predictions)


def width_nd(P: PolytopeND) -> float:
    """Exact width (smallest breadth) of an n-dimensional polytope.

    Breadth is the support function of the difference body ``P - P``, so
    the width is that body's inradius: the smallest breadth over its facet
    normals (:func:`~circlehold.polytope._difference_hull`), the overlay
    of the Gauss maps of ``P`` and ``-P``.
    """
    V = P.vertices
    proj = V @ _difference_hull(V).equations[:, :-1].T
    return float((proj.max(axis=0) - proj.min(axis=0)).min())


#: CLI registry: family name -> (constructor, parameter names).
FAMILIES = {
    "octahedron-iceberg": (octahedron_iceberg, ("a", "h")),
    "seven-vertex": (seven_vertex_iceberg, ("a", "h")),
    "rectangle-circle": (rectangle_circle, ("a", "h")),
    "flat-tetra": (flat_tetrahedron, ("eps",)),
    "five-vertex-flat": (five_vertex_flat, ("eps",)),
    "skew-tetra": (skew_tetrahedron, ("eps",)),
    "bevelled-cylinder": (bevelled_cylinder, ("R", "m")),
    "wd-tetra": (wd_tetrahedron, ("p", "q", "s")),
    "simplex-hull": (simplex_hull_nd, ("n", "a", "h")),
}
