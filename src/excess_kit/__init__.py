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
"""

from .covers import (
    ConsistencyResult,
    CoverProfile,
    branched_double_cover,
    consistency_check,
    signature_defect,
)
from .engine import (
    ASSUMPTIONS,
    HypothesisRecord,
    ObstructionReport,
    PlaneAuditReport,
    ProofTrace,
    TraceStep,
    Verdict,
    batch_check,
    check_hypotheses,
    excess_check,
    plane_family_audit,
)
from .errors import (
    CatalogError,
    DimensionMismatch,
    EffortExceeded,
    EmptyFamily,
    EulerTooSmall,
    ExcessKitError,
    InvalidGenus,
    NegativeB2,
    NotABasis,
    NotAPlaneFamily,
    NotInSpan,
    NotModTwoNull,
    OddEulerNumber,
    ParseError,
    SignatureExceedsRank,
)
from .gf2 import (
    Gf2Collection,
    Gf2Vector,
    SubsetCertificate,
    coordinates,
    greedy_basis,
    max_zero_sum_subset,
    rank,
    zero_sum_subcollection,
)
from .manifolds import (
    BudgetReport,
    ManifoldProfile,
    budget_report,
    excess_budget,
    plane_bound,
    validate_profile,
)
from .surfaces import (
    SignClass,
    SurfaceDatum,
    SurfaceFamily,
    TubedSurface,
    bundle_to_surface,
    massey_admissible_set,
    massey_check,
    sign_class,
    tube,
)

__version__ = "0.1.0"

__all__ = [
    "ASSUMPTIONS",
    "BudgetReport",
    "CatalogError",
    "ConsistencyResult",
    "CoverProfile",
    "DimensionMismatch",
    "EffortExceeded",
    "EmptyFamily",
    "EulerTooSmall",
    "ExcessKitError",
    "Gf2Collection",
    "Gf2Vector",
    "HypothesisRecord",
    "InvalidGenus",
    "ManifoldProfile",
    "NegativeB2",
    "NotABasis",
    "NotAPlaneFamily",
    "NotInSpan",
    "NotModTwoNull",
    "ObstructionReport",
    "OddEulerNumber",
    "ParseError",
    "PlaneAuditReport",
    "ProofTrace",
    "SignClass",
    "SignatureExceedsRank",
    "SubsetCertificate",
    "SurfaceDatum",
    "SurfaceFamily",
    "TraceStep",
    "TubedSurface",
    "Verdict",
    "batch_check",
    "branched_double_cover",
    "budget_report",
    "bundle_to_surface",
    "check_hypotheses",
    "consistency_check",
    "coordinates",
    "excess_budget",
    "excess_check",
    "greedy_basis",
    "massey_admissible_set",
    "massey_check",
    "max_zero_sum_subset",
    "plane_bound",
    "plane_family_audit",
    "rank",
    "sign_class",
    "signature_defect",
    "tube",
    "validate_profile",
    "zero_sum_subcollection",
    "__version__",
]
