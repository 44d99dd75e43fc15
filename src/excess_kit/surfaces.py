"""Nonorientable surface records, tubing arithmetic, and sign classes.

A surface is carried by three numbers: its nonorientable genus g (so its
Euler characteristic is 2 - g), its twisted normal Euler number e, and its
mod-2 homology class as a bit vector. Tubing (ambient connected sum along
arcs) acts on these by plain addition and XOR; no geometry is represented.
`tube` takes the genus sum, the Euler sum and the class XOR in one pass over
the members, and `sign_class` reads the sign pattern off the least and the
greatest Euler number; the excess check passes the Euler tuple it already
holds to the same rule, `_sign_of`, so it builds that tuple once.

SurfaceDatum is built once per family member, so its constructor is written
out: it applies the genus rule (`_require_genus`, the one place its message
lives) and stores each field with one write into the instance dict.
SurfaceFamily checks each member's class dimension, and TubedSurface its
genus and Euler characteristic, in their __post_init__.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from .errors import DimensionMismatch, EmptyFamily, InvalidGenus
from .gf2 import Gf2Vector

__all__ = [
    "SurfaceDatum",
    "SurfaceFamily",
    "TubedSurface",
    "SignClass",
    "tube",
    "sign_class",
    "massey_admissible_set",
    "massey_check",
    "bundle_to_surface",
]


def _require_genus(genus: int) -> None:
    if genus < 1:
        raise InvalidGenus(f"nonorientable genus must be >= 1, got {genus}")


@dataclass(frozen=True, init=False)
class SurfaceDatum:
    """One nonorientable surface: genus, twisted normal Euler number, class.

    The constructor applies the genus rule, then stores each field with one
    write into the instance dict; eq, hash, repr and the frozen guard are
    the dataclass's own.
    """

    genus: int
    euler_number: int
    mod2_class: Gf2Vector

    def __init__(self, genus: int, euler_number: int, mod2_class: Gf2Vector):
        if genus < 1:
            _require_genus(genus)
        fields = self.__dict__
        fields["genus"] = genus
        fields["euler_number"] = euler_number
        fields["mod2_class"] = mod2_class

    @property
    def euler_characteristic(self) -> int:
        return 2 - self.genus


@dataclass(frozen=True)
class SurfaceFamily:
    """Ordered nonempty list of surfaces with classes in a common dimension.

    Disjointness and local flatness of the members are declarations made by
    whoever assembles the family; nothing here checks geometry.
    """

    ambient_dim: int
    members: tuple[SurfaceDatum, ...]

    def __post_init__(self):
        if not self.members:
            raise EmptyFamily("a surface family needs at least one member")
        for pos, s in enumerate(self.members, start=1):
            if s.mod2_class.dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"member {pos} has class dimension {s.mod2_class.dim}, "
                    f"family ambient dimension is {self.ambient_dim}"
                )

    def __len__(self) -> int:
        return len(self.members)

    def euler_numbers(self) -> tuple[int, ...]:
        return tuple(map(attrgetter("euler_number"), self.members))


@dataclass(frozen=True)
class TubedSurface:
    """Connected sum of a family: sums of g and e, XOR of classes."""

    genus: int
    euler_number: int
    euler_characteristic: int
    mod2_class: Gf2Vector

    def __post_init__(self):
        _require_genus(self.genus)
        if self.euler_characteristic != 2 - self.genus:
            raise ValueError(
                f"euler_characteristic {self.euler_characteristic} != 2 - genus"
            )


class SignClass(enum.Enum):
    """Sign pattern of a family's Euler numbers.

    An all-zero list satisfies both one-sided conditions; it is reported as
    NonNegative, the canonical representative.
    """

    NON_NEGATIVE = "NonNegative"
    NON_POSITIVE = "NonPositive"
    MIXED = "Mixed"


def tube(family: SurfaceFamily) -> TubedSurface:
    """Tube a family into one connected surface.

    Genus, Euler number, and mod-2 class add (XOR for the class). Each tube
    drops the Euler characteristic by 2, which leaves the closed form
    2 - total genus.
    """
    total_genus = total_euler = bits = 0
    for s in family.members:
        total_genus += s.genus
        total_euler += s.euler_number
        bits ^= s.mod2_class.bits
    return TubedSurface(
        genus=total_genus,
        euler_number=total_euler,
        euler_characteristic=2 - total_genus,
        mod2_class=Gf2Vector(family.ambient_dim, bits),
    )


def sign_class(family: SurfaceFamily) -> SignClass:
    """Classify the family's Euler numbers as one-sided or mixed.

    Whenever the result is not Mixed, |sum of e| equals sum of |e|; the
    excess check records that no-cancellation identity in its trace.
    """
    return _sign_of(family.euler_numbers())


def _sign_of(euler_numbers: tuple[int, ...]) -> SignClass:
    """sign_class of a family whose Euler numbers the caller already holds."""
    if min(euler_numbers) >= 0:
        return SignClass.NON_NEGATIVE
    if max(euler_numbers) <= 0:
        return SignClass.NON_POSITIVE
    return SignClass.MIXED


def _admissible_range(genus: int) -> range:
    """Euler numbers attainable by a genus-g surface in the 4-sphere, as a range.

    The set {-2g, -2g+4, ..., 2g}: g+1 values, symmetric about zero, all
    congruent to 2g mod 4 and bounded by 2g in absolute value.
    """
    _require_genus(genus)
    return range(-2 * genus, 2 * genus + 1, 4)


def massey_admissible_set(genus: int) -> list[int]:
    """The admissible Euler numbers for this genus, as a list."""
    return list(_admissible_range(genus))


def massey_check(genus: int, euler_number: int) -> bool:
    """True iff the Euler number lies in the admissible set; O(1) for an int."""
    return euler_number in _admissible_range(genus)


def bundle_to_surface(
    genus: int, twisted_euler: int, mod2_class: Gf2Vector
) -> SurfaceDatum:
    """Zero-section surface of a plane bundle with the given twisted Euler number.

    The bundle's twisted Euler number transfers unchanged to the embedded
    zero section; genus and class pass through as given.
    """
    return SurfaceDatum(
        genus=genus, euler_number=twisted_euler, mod2_class=mod2_class
    )
