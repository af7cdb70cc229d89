"""Exact vertex census of regular tessellations of the Euclidean and hyperbolic plane.

For an admissible symbol {p,q} (faces of degree p meeting q per vertex,
with 1/p + 1/q <= 1/2), this package derives the rational generating
function counting vertices by graph distance from an origin vertex,
evaluates it through exact linear recurrences, computes the exponential
growth constants, and verifies everything against an explicit planar-map
construction explored by breadth-first search.
"""

from pqcensus.polyarith import (
    IntPoly,
    NotDivisible,
    RationalGF,
    ZeroDenominatorConstant,
    gf_normalize,
    poly_div_exact,
    series_coeffs,
)
from pqcensus.genfunc import (
    INFINITY,
    BadDegree,
    CensusGF,
    Schlafli,
    SphericalOutOfScope,
    derive,
)
from pqcensus.recurrence import LinRec, rec_eval, rec_from_gf
from pqcensus.oracle import (
    BudgetExceeded,
    CensusReport,
    PlanarMap,
    StructureViolation,
    VertexProfile,
    bfs_census,
    build_map,
    build_tree,
    classify,
    dump_map,
)
from pqcensus.asymptotics import GrowthInfo, NoRootFound, growth, palindrome_check

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "RationalGF",
    "NotDivisible",
    "ZeroDenominatorConstant",
    "poly_div_exact",
    "gf_normalize",
    "series_coeffs",
    "INFINITY",
    "Schlafli",
    "CensusGF",
    "BadDegree",
    "SphericalOutOfScope",
    "derive",
    "LinRec",
    "rec_from_gf",
    "rec_eval",
    "PlanarMap",
    "CensusReport",
    "VertexProfile",
    "BudgetExceeded",
    "StructureViolation",
    "build_map",
    "build_tree",
    "bfs_census",
    "classify",
    "dump_map",
    "GrowthInfo",
    "NoRootFound",
    "growth",
    "palindrome_check",
    "__version__",
]
