"""Profile a spindle-shaped octahedron: is it bottom-heavy at its waist?

For every viewing angle we project the part of the body above the waist
plane and the part below it into a vertical plane and compare horizontal
widths.  If the lower shadow is wider at every angle, the body is
"iceberg-like" at that level: the circle there cannot slip downward past
the bulk below.
"""

from pathlib import Path

from circlehold import fileio, iceberg_profile, octahedron_iceberg, svgfig

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    inst = octahedron_iceberg(1.38, 5.0)
    level = inst.circle.center[2]
    print(f"spindle a=1.38 h=5: waist circle diameter "
          f"{inst.circle.diameter:.6f} at z = {level:.6f}")

    prof = iceberg_profile(inst.body, level=level)
    print(f"orientation: {prof.orientation}")
    print(f"worst-angle margin: {prof.margin:.6f} at theta = "
          f"{prof.margin_theta:.4f}")

    OUT.mkdir(exist_ok=True)
    fileio.write_text(OUT / "profile.csv", fileio.profile_csv(prof))
    fileio.write_text(OUT / "profile.svg", svgfig.profile_svg(prof))
    print(f"wrote {OUT / 'profile.csv'} and {OUT / 'profile.svg'}")

    # flipping the body upside down flips the verdict
    import numpy as np
    from circlehold import build_hull

    flipped = build_hull(inst.body.vertices * np.array([1.0, 1.0, -1.0]))
    prof2 = iceberg_profile(flipped, level=-level)
    print(f"flipped copy: orientation {prof2.orientation} "
          f"(margin {prof2.margin:.6f})")


if __name__ == "__main__":
    main()
