"""Planar width machinery on a few polygons.

Shows the horizontal (strip) width, the level-split identities, and the
width-vs-inscribed-circle bound that powers the 3D estimates.
"""

import numpy as np

from circlehold import (
    Polygon2,
    chebyshev_inscribed,
    equilateral_triangle,
    horizontal_width,
    random_axis_crossing_polygon,
    split_width_identities,
    width2,
)


def main() -> None:
    # a sheared triangle: its narrowest strip is far from axis-aligned
    tri = Polygon2.from_points(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 1.0]]))
    wh, strip = horizontal_width(tri)
    w, _ = width2(tri)
    print(f"sheared triangle: horizontal width {wh:.6f} (strip slope "
          f"{strip.slope:.3f}), ordinary width {w:.6f}")

    # splitting at a level never loses width: the two halves plus the chord
    # reproduce the minimum of the pieces exactly
    rng = np.random.default_rng(7)
    P = random_axis_crossing_polygon(rng)
    sw = split_width_identities(P)
    print(f"random polygon split at 0: upper {sw.upper:.6f}, lower "
          f"{sw.lower:.6f}, chord {sw.chord:.6f}, whole {sw.union:.6f}")
    print(f"  identity residuals: {sw.residual_min:.2e}, {sw.residual_max:.2e}")

    # width <= 3 * inradius, with equality exactly for equilateral triangles
    eq = equilateral_triangle(3.0)
    for name, poly in [("equilateral h=3", eq), ("random", P)]:
        w, _ = width2(poly)
        r = chebyshev_inscribed(poly).radius
        print(f"{name}: width {w:.6f} <= 3 x inradius {3 * r:.6f} "
              f"(slack {3 * r - w:.6f})")


if __name__ == "__main__":
    main()
