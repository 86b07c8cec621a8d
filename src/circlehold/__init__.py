"""Holding circles of convex polytopes.

A circle *holds* a convex body when it touches the body without crossing
its interior and no rigid translation/rotation can move the circle
arbitrarily far away.  This package computes widths and minimal enclosing
cylinders of polytopes, searches for small holding circles, certifies
holding evidence (blocking cross-sections, projection chains, escape
searches), and constructs the named families that make the bounds sharp.
"""

from .errors import (CertificationError, CircleHoldError, DegenerateInput,
                     InvalidInput, InvalidParam, InvalidStart,
                     NoBlockingSlice, NotFound)
from .tolerances import DEFAULT_SEED, TOL_GEOM, TOL_OPT
from .planar import (Circle2, Polygon2, SplitWidths, Strip, chebyshev_inscribed,
                     clip_halfplane_2d, convex_hull_2d, equilateral_triangle,
                     hausdorff_distance, horizontal_width,
                     min_enclosing_circle, point_polygon_distance,
                     random_axis_crossing_polygon, random_convex_polygon,
                     split_width_identities, width2)
from .polytope import (CylinderResult, HalfSpace, Polytope3, WidthResult,
                       build_hull, min_cylinder, plane_frame,
                       point_location, segment_distance, width3)
from .projection import IcebergProfile, iceberg_profile, split_project
from .holding import (VERDICT_ESCAPE, VERDICT_EVIDENCE, VERDICT_INCONCLUSIVE,
                      ChainCertificate, Circle3, EscapeResult,
                      ExtremalityDiagnostics, HoldingReport,
                      PenetrationWitness, TranslationBlock,
                      chain_certificate, circle_interior_intersects,
                      escape_search, extremality_diagnostics,
                      holding_report, min_holding_circle,
                      nonintersecting_edge_bound, sampled_penetration,
                      surrounds_slice, translation_block_certificate)
from .families import (FAMILIES, FamilyInstance, PolytopeND, Prediction,
                       bevelled_cylinder, five_vertex_flat, flat_tetrahedron,
                       octahedron_iceberg, rectangle_circle,
                       seven_vertex_iceberg, simplex_holding_sphere_diameter,
                       simplex_hull_nd, simplex_waist_minimum,
                       skew_tetrahedron, steinhagen_constant,
                       wd_tetrahedron, width_nd)
from .verification import CheckResult, SUITES, run_suite, suite_names
from . import fileio, svgfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CircleHoldError", "DegenerateInput", "InvalidInput", "InvalidParam",
    "NoBlockingSlice", "InvalidStart",
    "NotFound", "CertificationError",
    # tolerances
    "TOL_GEOM", "TOL_OPT", "DEFAULT_SEED",
    # planar
    "Polygon2", "Strip", "Circle2", "SplitWidths", "convex_hull_2d",
    "width2", "horizontal_width",
    "clip_halfplane_2d", "split_width_identities", "min_enclosing_circle",
    "chebyshev_inscribed",
    "point_polygon_distance", "hausdorff_distance", "equilateral_triangle",
    "random_convex_polygon", "random_axis_crossing_polygon",
    # polytope
    "HalfSpace", "Polytope3", "WidthResult", "CylinderResult",
    "build_hull", "width3", "min_cylinder",
    "point_location", "segment_distance", "plane_frame",
    # projection
    "split_project", "IcebergProfile", "iceberg_profile",
    # holding
    "Circle3", "PenetrationWitness", "circle_interior_intersects",
    "sampled_penetration", "TranslationBlock",
    "translation_block_certificate", "surrounds_slice",
    "nonintersecting_edge_bound", "EscapeResult", "escape_search",
    "HoldingReport", "holding_report", "ChainCertificate",
    "chain_certificate", "min_holding_circle", "ExtremalityDiagnostics",
    "extremality_diagnostics", "VERDICT_EVIDENCE", "VERDICT_ESCAPE",
    "VERDICT_INCONCLUSIVE",
    # families
    "FamilyInstance", "Prediction", "FAMILIES", "octahedron_iceberg",
    "seven_vertex_iceberg", "rectangle_circle", "flat_tetrahedron",
    "five_vertex_flat", "skew_tetrahedron", "bevelled_cylinder",
    "wd_tetrahedron", "PolytopeND", "simplex_hull_nd",
    "steinhagen_constant", "simplex_holding_sphere_diameter",
    "simplex_waist_minimum", "width_nd",
    # verification
    "CheckResult", "SUITES", "run_suite", "suite_names",
    # submodules
    "fileio", "svgfig",
]
