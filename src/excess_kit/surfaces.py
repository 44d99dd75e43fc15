"""Nonorientable surface records, tubing arithmetic, and sign classes.

A surface is carried by three numbers: its nonorientable genus g (so its
Euler characteristic is 2 - g), its twisted normal Euler number e, and its
mod-2 homology class as a bit vector. Tubing (ambient connected sum along
arcs) acts on these by plain addition and XOR; no geometry is represented.

The package reads a SurfaceFamily only through three columns: the
genera, the Euler numbers and the class masks, each a tuple in member
order. `tube` takes their two sums and their XOR, `euler_numbers()` returns
the Euler column, and `sign_class` reads the sign pattern off its least and
greatest value. A family built from members derives the columns from them;
that constructor is for library callers. One built by `_from_columns`
holds only the columns and builds `members` on first access, then keeps
it, so eq, hash, repr, replace and pickle see the same members either way.
Both constructors end in `_set_columns`, the one place the family rules
are checked. Inside the package `_from_columns` has two callers: the
family file reader, on its fast step and its checked loop alike, and the
plane audit's subfamily.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import xor

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


@dataclass(frozen=True)
class SurfaceDatum:
    """One nonorientable surface: genus, twisted normal Euler number, class."""

    genus: int
    euler_number: int
    mod2_class: Gf2Vector

    def __post_init__(self):
        _require_genus(self.genus)

    @property
    def euler_characteristic(self) -> int:
        return 2 - self.genus


@dataclass(frozen=True)
class SurfaceFamily:
    """Ordered nonempty list of surfaces with classes in a common dimension.

    Disjointness and local flatness of the members are declarations made by
    whoever assembles the family; nothing here checks geometry. The family
    also holds its genus, Euler and class-mask columns (see the module
    docstring); `members` of a family built from columns is made on first
    access.
    """

    ambient_dim: int
    members: tuple[SurfaceDatum, ...]

    def __post_init__(self):
        genera, eulers, masks = [], [], []
        for pos, s in enumerate(self.members, start=1):
            mod2_class = s.mod2_class
            if mod2_class.dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"member {pos} has class dimension {mod2_class.dim}, "
                    f"family ambient dimension is {self.ambient_dim}"
                )
            genera.append(s.genus)
            eulers.append(s.euler_number)
            masks.append(mod2_class.bits)
        _set_columns(self, tuple(genera), tuple(eulers), tuple(masks))

    @classmethod
    def _from_columns(
        cls,
        ambient_dim: int,
        genera: tuple[int, ...],
        eulers: tuple[int, ...],
        masks: tuple[int, ...],
    ) -> SurfaceFamily:
        """A family of the given columns, its members left to be built on first access.

        The columns must have one entry per member; `_set_columns` checks
        the family rules on them.
        """
        family = object.__new__(cls)
        family.__dict__["ambient_dim"] = ambient_dim
        _set_columns(family, genera, eulers, masks)
        return family

    def __getattr__(self, name: str):
        # Called only when `members` (or any other name) is not in the
        # instance dict: a family built from columns builds it here, once,
        # with one class vector per distinct mask.
        if name != "members":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dim = self.ambient_dim
        classes = {bits: Gf2Vector(dim, bits) for bits in set(self._masks)}
        members = tuple([
            SurfaceDatum(genus, euler, classes[bits])
            for genus, euler, bits in zip(self._genera, self._eulers, self._masks)
        ])
        self.__dict__["members"] = members
        return members

    def __len__(self) -> int:
        return len(self._genera)

    def euler_numbers(self) -> tuple[int, ...]:
        return self._eulers


def _set_columns(
    family: SurfaceFamily,
    genera: tuple[int, ...],
    eulers: tuple[int, ...],
    masks: tuple[int, ...],
) -> None:
    """Check the family rules on its three columns, then store each with one write.

    Each rule is tested by one pass over a column: at least one member,
    genus >= 1 (the least genus goes to `_require_genus`), and every mask
    a class of ambient_dim bits.
    """
    if not genera:
        raise EmptyFamily("a surface family needs at least one member")
    _require_genus(min(genera))
    dim = family.ambient_dim
    if min(masks) < 0 or max(masks).bit_length() > dim:
        raise DimensionMismatch(
            f"a class mask does not fit the family ambient dimension {dim}"
        )
    fields = family.__dict__
    fields["_genera"] = genera
    fields["_eulers"] = eulers
    fields["_masks"] = masks


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

    Genus, Euler number, and mod-2 class add (XOR for the class): two sums
    and one XOR over the family's columns. Each tube drops the Euler
    characteristic by 2, which leaves the closed form 2 - total genus.
    """
    total_genus = sum(family._genera)
    return TubedSurface(
        genus=total_genus,
        euler_number=sum(family._eulers),
        euler_characteristic=2 - total_genus,
        mod2_class=Gf2Vector(family.ambient_dim, reduce(xor, family._masks)),
    )


def sign_class(family: SurfaceFamily) -> SignClass:
    """Classify the family's Euler numbers as one-sided or mixed.

    Whenever the result is not Mixed, |sum of e| equals sum of |e|; the
    excess check records that no-cancellation identity in its trace.
    """
    eulers = family._eulers
    if min(eulers) >= 0:
        return SignClass.NON_NEGATIVE
    if max(eulers) <= 0:
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
