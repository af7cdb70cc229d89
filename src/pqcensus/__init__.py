"""Exact vertex census of regular tessellations of the Euclidean and hyperbolic plane.

For an admissible symbol {p,q} (faces of degree p meeting q per vertex,
with 1/p + 1/q <= 1/2), this package derives the rational generating
function counting vertices by graph distance from an origin vertex,
evaluates it through exact linear recurrences, computes the exponential
growth constants, and verifies everything against an explicit planar-map
construction explored by breadth-first search.

The public names below are imported from their submodules on first use
(PEP 562), so ``import pqcensus`` or a CLI run that never touches the
oracle or the growth analysis does not load them.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines, in the order of __all__
_EXPORTS = {
    "polyarith": ("IntPoly", "RationalGF", "series_coeffs"),
    "genfunc": ("INFINITY", "Schlafli", "CensusGF", "BadDegree", "SphericalOutOfScope", "derive"),
    "recurrence": ("LinRec", "rec_from_gf", "rec_eval"),
    "oracle": (
        "PlanarMap", "CensusReport", "VertexProfile", "BudgetExceeded", "StructureViolation", "build_map",
        "build_tree", "bfs_census", "classify", "dump_map",
    ),
    "asymptotics": ("GrowthInfo", "NoRootFound", "growth", "palindrome_check"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
