"""Invariants of the 2-fold cover branched along a mod-2-null surface.

Given an ambient profile M and a connected branch surface F with [F] = 0
mod 2 and even Euler number, the double cover N has
sigma(N) = 2 sigma(M) - e(F)/2 and chi(N) = 2 chi(M) - chi(F); its first
mod-2 Betti number is at most twice that of M. Only those formulas live
here — the cover is never constructed as a space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotModTwoNull, OddEulerNumber, _bare
from .manifolds import ManifoldProfile, _require_dim, validate_profile
from .surfaces import SurfaceDatum, TubedSurface

__all__ = [
    "CoverProfile",
    "ConsistencyResult",
    "branched_double_cover",
    "cover_chain",
    "signature_defect",
    "consistency_check",
]


@dataclass(frozen=True)
class CoverProfile:
    """Exact and bounded invariants of the branched double cover.

    The two `*_upper` fields are upper bounds, not point values: only an
    inequality is available for the cover's first mod-2 Betti number, and
    the second inherits that slack.
    """

    sigma_n: int
    chi_n: int
    b1_f2_upper: int
    b2_f2_upper: int
    ramification_euler: int


@dataclass(frozen=True)
class ConsistencyResult:
    """Outcome of the signature-versus-rank test, with a witness when it fails."""

    ok: bool
    witness: str | None = None


def cover_chain(
    m: ManifoldProfile, f: SurfaceDatum | TubedSurface
) -> tuple[int, int, int]:
    """(chi(N), 2*sigma(N), b2 upper bound) of the cover branched along f.

    The doubled signature 4*sigma(M) - e(F) is an integer for every Euler
    number, so these three values exist whatever the parity of e(F). The b2
    bound applies b2 = chi - 2 + 2*b1 to the cover at its b1 upper bound
    2*b1(M). Nothing is validated here; branched_double_cover is the
    checked view for even e.
    """
    chi_n = 2 * m.euler_characteristic - f.euler_characteristic
    return chi_n, 4 * m.signature - f.euler_number, chi_n - 2 + 4 * m.b1_f2


def branched_double_cover(
    m: ManifoldProfile, f: SurfaceDatum | TubedSurface
) -> CoverProfile:
    """Invariants of the double cover of m branched along f.

    Requires f's mod-2 class to vanish (otherwise no such cover exists) and
    f's Euler number to be even (it is twice the branch locus
    self-intersection). The b2 bound has the closed form
    2*chi(M) + g - 4 + 4*b1(M).
    """
    validate_profile(m)
    _require_dim(m, f.mod2_class.dim, "branch surface class has")
    if not f.mod2_class.is_zero:
        raise NotModTwoNull(
            f"branch surface class {_bare(str(f.mod2_class))} is nonzero mod 2"
        )
    if f.euler_number % 2 != 0:
        raise OddEulerNumber(
            f"branch surface Euler number {f.euler_number} is odd"
        )
    chi_n, doubled, b2_upper = cover_chain(m, f)
    return CoverProfile(
        sigma_n=doubled // 2,
        chi_n=chi_n,
        b1_f2_upper=2 * m.b1_f2,
        b2_f2_upper=b2_upper,
        ramification_euler=f.euler_number // 2,
    )


def signature_defect(e_f: int) -> int:
    """|sigma(N) - 2 sigma(M)| as a function of the branch Euler number: |e|/2."""
    if e_f % 2 != 0:
        raise OddEulerNumber(f"Euler number {e_f} is odd; defect would not be an integer")
    return abs(e_f) // 2


def consistency_check(c: CoverProfile) -> ConsistencyResult:
    """Test |sigma_n| <= b2_f2_upper.

    A closed oriented 4-manifold's signature never exceeds its mod-2 second
    Betti number, so a failure means no manifold has these invariants; the
    violated comparison is returned as the witness.
    """
    if abs(c.sigma_n) <= c.b2_f2_upper:
        return ConsistencyResult(ok=True, witness=None)
    return ConsistencyResult(
        ok=False, witness=f"{abs(c.sigma_n)} > {c.b2_f2_upper}"
    )
