"""Exact obstruction checks for disjoint nonorientable surfaces in 4-manifolds.

The package decides, from invariants alone, whether a hypothetical family
of disjoint nonorientable surfaces can exist in a closed oriented
4-manifold with a given profile, and emits self-validating arithmetic
certificates either way. Everything is exact integer and GF(2) arithmetic.

Every tuple the package builds is built from a list (or another sized
sequence), never from a generator or an iterator such as map(). tuple()
over an iterator of unknown length allocates a guessed length and resizes
the tuple to fit, so CPython frees it to the free list of a different size
from the one it was taken from; repeated calls then fill those free lists,
and the process grows with the number of calls.

Importing the package imports none of its modules. Each exported name is
looked up in _EXPORTS, imported from its home module on first use and kept
in the package namespace, so a command-line process loads only the modules
its command runs. Submodules resolve as attributes after a bare import too.
"""

import importlib
from typing import Any

__version__ = "0.1.0"

# Each exported name, under its home module.
_EXPORTS = {
    "covers": (
        "ConsistencyResult", "CoverProfile", "branched_double_cover", "consistency_check",
        "signature_defect",
    ),
    "engine": (
        "ASSUMPTIONS", "HypothesisRecord", "ObstructionReport", "PlaneAuditReport", "ProofTrace",
        "TraceStep", "Verdict", "batch_check", "check_hypotheses", "excess_check",
        "plane_family_audit",
    ),
    "errors": (
        "CatalogError", "DimensionMismatch", "EffortExceeded", "EmptyFamily", "EulerTooSmall",
        "ExcessKitError", "InvalidGenus", "NegativeB2", "NotABasis", "NotAPlaneFamily",
        "NotInSpan", "NotModTwoNull", "OddEulerNumber", "ParseError", "SignatureExceedsRank",
    ),
    "gf2": (
        "Gf2Collection", "Gf2Vector", "SubsetCertificate", "coordinates", "greedy_basis",
        "max_zero_sum_subset", "rank", "zero_sum_subcollection",
    ),
    "manifolds": (
        "BudgetReport", "ManifoldProfile", "budget_report", "excess_budget", "plane_bound",
        "validate_profile",
    ),
    "surfaces": (
        "SignClass", "SurfaceDatum", "SurfaceFamily", "TubedSurface", "bundle_to_surface",
        "massey_admissible_set", "massey_check", "sign_class", "tube",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "fileio", "reports"}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str) -> Any:
    """An exported name from its home module, or a submodule, imported on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
