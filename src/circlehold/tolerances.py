"""Numerical tolerances used throughout the package.

Two scales are distinguished.  ``TOL_GEOM`` guards exact-style predicates on
coordinates that come straight from the input (point on plane, point inside
polytope).  ``TOL_OPT`` is the looser scale for quantities produced by
iterative optimisation (cylinder diameters, blocking margins).  The
holding-circle gates, the escape search and the chain certificate read
both as constants.  Only ``circle_interior_intersects``,
``point_location`` and ``Strip.contains`` take a ``tol``, for checks that
test at another depth; the other planar and polytope predicates use
``TOL_GEOM`` as a constant.
"""

TOL_GEOM = 1e-9
TOL_OPT = 1e-6

#: default seed used by every randomized routine unless the caller passes one
DEFAULT_SEED = 7

