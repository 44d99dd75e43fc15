"""Exact linear algebra over GF(2) and zero-sum subset solvers.

Vectors are stored as Python ints used as bit masks, so XOR and rank run
wordwise regardless of dimension. All public operations are pure functions
over immutable values; collection indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EffortExceeded, NotABasis, NotInSpan, _quote

__all__ = [
    "Gf2Vector",
    "Gf2Collection",
    "SubsetCertificate",
    "rank",
    "greedy_basis",
    "coordinates",
    "zero_sum_subcollection",
    "max_zero_sum_subset",
    "EXHAUSTIVE_LIMIT",
    "DEFAULT_EFFORT_LIMIT",
]

# Public for callers that import it; the solver does not read it, since
# meet-in-the-middle costs no more than a full scan at every length.
EXHAUSTIVE_LIMIT = 20

# Node budget used when effort_limit=0: meet-in-the-middle halves of up to
# 2^21 each, so every length up to 42.
DEFAULT_EFFORT_LIMIT = 1 << 22


@dataclass(frozen=True)
class Gf2Vector:
    """A vector in GF(2)^dim; bit i of ``bits`` is coordinate i."""

    dim: int
    bits: int = 0

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits out of range for dimension {self.dim}")

    @classmethod
    def zero(cls, dim: int) -> Gf2Vector:
        return cls(dim, 0)

    @classmethod
    def from_bits(cls, coords: Iterable[int]) -> Gf2Vector:
        mask = 0
        n = 0
        for c in coords:
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            mask |= c << n
            n += 1
        return cls(n, mask)

    @classmethod
    def from_string(cls, text: str) -> Gf2Vector:
        """Parse a '0'/'1' string; the first character is coordinate 0."""
        if text.strip("01"):
            raise ValueError(f"not a bit string: {_quote(text)}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.dim))

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: Gf2Vector) -> Gf2Vector:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in XOR")
        return Gf2Vector(self.dim, self.bits ^ other.bits)

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class Gf2Collection:
    """An ordered, 1-indexed list of GF(2) vectors of a common dimension."""

    dim: int
    vectors: tuple[Gf2Vector, ...]

    def __post_init__(self):
        for v in self.vectors:
            if v.dim != self.dim:
                raise ValueError(
                    f"vector of dimension {v.dim} in collection of dimension {self.dim}"
                )

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> Gf2Collection:
        vecs = tuple(Gf2Vector.from_string(s) for s in lines)
        return cls(vecs[0].dim if vecs else 0, vecs)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[Gf2Vector]:
        return iter(self.vectors)

    def vector(self, index: int) -> Gf2Vector:
        """Return the vector at a 1-based index."""
        if not 1 <= index <= len(self.vectors):
            raise ValueError(f"index {index} out of range 1..{len(self.vectors)}")
        return self.vectors[index - 1]


@dataclass(frozen=True)
class SubsetCertificate:
    """A set of 1-based indices whose vectors XOR to zero."""

    indices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.indices)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.sorted_indices()) + "}"


class _Eliminator:
    """Incremental GF(2) row reduction.

    Each stored pivot row carries the combination of kept vectors it equals,
    bit k standing for the k-th vector kept, so a dependent vector can be
    expressed in the kept ones.
    """

    def __init__(self):
        self._rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (mask, combo)

    def insert(self, mask: int) -> int | None:
        """Return mask's combination of kept vectors, or keep it and return None."""
        combo = 0
        while mask:
            pivot = mask.bit_length() - 1
            row = self._rows.get(pivot)
            if row is None:
                self._rows[pivot] = (mask, combo | (1 << len(self._rows)))
                return None
            mask ^= row[0]
            combo ^= row[1]
        return combo


def rank(collection: Gf2Collection) -> int:
    """Dimension of the span of the collection."""
    return len(greedy_basis(collection))


def greedy_basis(collection: Gf2Collection) -> tuple[int, ...]:
    """Lexicographically earliest basis of the span, as 1-based indices.

    Scans left to right and keeps each vector that is independent of the
    vectors already kept.
    """
    elim = _Eliminator()
    vectors = enumerate(collection.vectors, start=1)
    return tuple(i for i, v in vectors if elim.insert(v.bits) is None)


def coordinates(
    collection: Gf2Collection, basis: Sequence[int], target: Gf2Vector
) -> frozenset[int]:
    """Unique subset of ``basis`` whose vectors XOR to ``target``.

    Raises NotABasis when the indexed vectors are dependent and NotInSpan
    when the target lies outside their span.
    """
    if target.dim != collection.dim:
        raise ValueError("target dimension differs from collection dimension")
    elim = _Eliminator()
    for idx in basis:
        if elim.insert(collection.vector(idx).bits) is not None:
            raise NotABasis(f"vectors at indices {tuple(basis)} are dependent")
    combo = elim.insert(target.bits)
    if combo is None:
        raise NotInSpan(f"vector {target} is outside the span of {tuple(basis)}")
    return frozenset(basis[i] for i in range(len(basis)) if (combo >> i) & 1)


def zero_sum_subcollection(collection: Gf2Collection) -> SubsetCertificate:
    """Constructive zero-sum subset of size >= length - rank.

    One left-to-right pass keeps the greedy basis and sums the basis
    combinations of the other vectors J: the XOR over J is the XOR over a
    basis subset I, and I ∪ J is returned. The certificate is empty exactly
    when only the empty subset sums to zero this way.
    """
    elim = _Eliminator()
    basis: list[int] = []
    rest: list[int] = []
    total = 0
    for i, v in enumerate(collection.vectors, start=1):
        combo = elim.insert(v.bits)
        if combo is None:
            basis.append(i)
        else:
            rest.append(i)
            total ^= combo
    inside = [b for k, b in enumerate(basis) if (total >> k) & 1]
    cert = SubsetCertificate(frozenset(inside + rest))
    acc = 0
    for i in cert.indices:
        acc ^= collection.vector(i).bits
    if acc != 0:
        raise AssertionError("certificate does not XOR to zero")
    return cert


def _xor_table(masks: Sequence[int]) -> list[int]:
    """Subset XOR table: entry s is the XOR of masks selected by s."""
    table = [0] * (1 << len(masks))
    for i, v in enumerate(masks):
        lo = 1 << i
        table[lo : 2 * lo] = [x ^ v for x in table[:lo]]
    return table


def _solve_mitm(masks: list[int]) -> int:
    """Numerically least mask among the minimum-size complements.

    A complement of a zero-sum subset XORs to the whole collection's XOR;
    meet-in-the-middle splits it into its bits below m // 2 and the rest.
    Both XOR tables are scanned in increasing mask order and a candidate
    replaces the kept one only when it is strictly smaller in size, so the
    first mask found of each size is also the numerically least.
    """
    m = len(masks)
    total_xor = 0
    for v in masks:
        total_xor ^= v
    split = m // 2
    best_low: dict[int, int] = {}
    for low, x in enumerate(_xor_table(masks[:split])):
        cur = best_low.get(x)
        if cur is None or low.bit_count() < cur.bit_count():
            best_low[x] = low

    # Taking every index as the complement always matches, so some
    # complement is found.
    best_card = m + 1
    best_comp = 0
    for high, x in enumerate(_xor_table(masks[split:])):
        low = best_low.get(total_xor ^ x)
        if low is None:
            continue
        card = low.bit_count() + high.bit_count()
        if card < best_card:
            best_card = card
            best_comp = low | (high << split)
    return best_comp


def max_zero_sum_subset(
    collection: Gf2Collection, effort_limit: int = 0, *, workers: int = 1
) -> SubsetCertificate:
    """Maximum-cardinality zero-sum subset, exact.

    Equivalently minimizes the complement, a minimum-weight coset leader
    problem for the XOR of the whole collection, solved by meet-in-the-middle
    over 2^floor(m/2) + 2^ceil(m/2) nodes. Ties are broken toward the
    lexicographically smallest index set: with the vectors passed in reverse
    index order, bit j standing for index m - j, that is the complement with
    the numerically least mask. Raises EffortExceeded (with the
    constructive certificate attached) when the node budget cannot cover an
    exact answer; effort_limit=0 selects the default budget. ``workers`` is
    accepted for compatibility and has no effect.
    """
    if effort_limit < 0:
        raise ValueError("effort_limit must be nonnegative")
    budget = effort_limit or DEFAULT_EFFORT_LIMIT
    m = len(collection)
    needed = (1 << (m // 2)) + (1 << (m - m // 2))
    if needed > budget:
        raise EffortExceeded(needed, budget, zero_sum_subcollection(collection))
    comp = _solve_mitm([v.bits for v in reversed(collection.vectors)])
    return SubsetCertificate(
        frozenset(m - j for j in range(m) if not (comp >> j) & 1)
    )
