"""Algebraic profiles of closed oriented 4-manifolds and their budgets.

A profile stores only the homeomorphism invariants the obstruction checks
consume: signature, Euler characteristic, and the first mod-2 Betti number.
Everything downstream is exact integer arithmetic on these three numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NegativeB2, SignatureExceedsRank, _bare

__all__ = [
    "ManifoldProfile",
    "BudgetReport",
    "validate_profile",
    "excess_budget",
    "plane_bound",
    "budget_report",
]


@dataclass(frozen=True)
class ManifoldProfile:
    """Invariants of a closed connected oriented 4-manifold.

    b1_f2 is the dimension of the first homology with mod-2 coefficients;
    the second mod-2 Betti number is determined by the Euler characteristic.
    """

    name: str
    signature: int
    euler_characteristic: int
    b1_f2: int

    @property
    def b2_f2(self) -> int:
        """Second mod-2 Betti number: chi - 2 + 2*b1."""
        return self.euler_characteristic - 2 + 2 * self.b1_f2


@dataclass(frozen=True)
class BudgetReport:
    """Derived rank and the per-family budgets attached to a profile."""

    b2_f2: int
    d_of_m: int
    b_of_m: int


def validate_profile(profile: ManifoldProfile) -> ManifoldProfile:
    """Reject profiles no closed oriented 4-manifold can realize.

    The intersection form lives on a lattice of rank at most b2_f2, so
    |signature| <= b2_f2, and b2_f2 itself cannot be negative. Returns the
    profile unchanged when both hold.
    """
    if profile.b1_f2 < 0:
        raise ValueError(f"{_bare(profile.name)}: b1_f2 is negative ({profile.b1_f2})")
    b2 = profile.b2_f2
    if b2 < 0:
        raise NegativeB2(
            f"{_bare(profile.name)}: b2_f2 = chi - 2 + 2*b1 = {b2} is negative"
        )
    if abs(profile.signature) > b2:
        raise SignatureExceedsRank(
            f"{_bare(profile.name)}: |signature| = {abs(profile.signature)} "
            f"exceeds b2_f2 = {b2}"
        )
    return profile


def _require_dim(profile: ManifoldProfile, dim: int, subject: str) -> None:
    """Classes live in the profile's b2_f2 dimensions; subject names whose dim it is."""
    if dim != profile.b2_f2:
        raise DimensionMismatch(
            f"{subject} dimension {dim}, "
            f"profile {_bare(profile.name)} has b2_f2 = {profile.b2_f2}"
        )


def excess_budget(profile: ManifoldProfile) -> int:
    """Excess budget D = 4*(|signature| + b2_f2), validated first.

    Expanding b2_f2 gives the other closed form 4*|signature| + 8*b1 + 4*chi - 8.
    """
    validate_profile(profile)
    return 4 * (abs(profile.signature) + profile.b2_f2)


def plane_bound(profile: ManifoldProfile) -> int:
    """Family-size budget B = 2*(b2_f2 + D)."""
    return budget_report(profile).b_of_m


def budget_report(profile: ManifoldProfile) -> BudgetReport:
    """Assemble the derived rank and both budgets for one profile."""
    b2 = profile.b2_f2
    d = excess_budget(profile)
    return BudgetReport(b2_f2=b2, d_of_m=d, b_of_m=2 * (b2 + d))
