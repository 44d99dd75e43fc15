"""Exact linear algebra over GF(2) and zero-sum subset solvers.

Vectors are stored as Python ints used as bit masks, so XOR and rank run
wordwise regardless of dimension. All public operations are pure functions
over immutable values; collection indices are 1-based throughout.

The exact maximum zero-sum solver has two strategies, and runs the one
whose cost is lower for m vectors of rank r (the kernel scan on a tie):

- kernel scan: 2^(m - r) nodes in Gray-code order, O(m) memory;
- syndrome DP: sum over k of 2^(r_k) table entries, r_k the rank of the
  first k vectors in reverse index order, at most m * 2^r.

Its cost is also what the effort budget is compared with. A DP entry is
one 8-byte list slot (every entry is at most r, a cached small int):
tracemalloc peaks of whole DP solves measured at most 9.1 bytes per entry
once the tables reach 2^6 entries, so the budget bounds memory too.
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

# Public for callers that import it; the solver does not read it. It picks
# its strategy by cost, 2^(m - r) kernel nodes against sum_k 2^(r_k) DP
# entries, not by length.
EXHAUSTIVE_LIMIT = 20

# Budget used when effort_limit=0: 2^22 kernel nodes or DP entries, so any
# m - r <= 22, and the DP up to 2^22 entries (at most 10 bytes each, so
# about 40 MB); either takes about half a second on a 2-core Xeon.
DEFAULT_EFFORT_LIMIT = 1 << 22


@dataclass(frozen=True)
class Gf2Vector:
    """A vector in GF(2)^dim; bit i of ``bits`` is coordinate i."""

    dim: int
    bits: int = 0

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        if self.bits < 0 or self.bits.bit_length() > self.dim:
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
        # format() writes coordinate 0 last; reversed, it comes first.
        return format(self.bits, f"0{self.dim}b")[::-1] if self.dim else ""

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
        vecs = tuple([Gf2Vector.from_string(s) for s in lines])
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
    return tuple([i for i, v in vectors if elim.insert(v.bits) is None])


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


def _reverse_pass(collection: Gf2Collection) -> tuple[list[int], int, int]:
    """(coordinates, rank, syndrome DP cost) of the vectors in reverse index order.

    One elimination pass from the last vector to the first. The k-th vector
    kept is 1 << k and a dependent vector is its combination of the vectors
    kept before it, so a vector is kept exactly when its coordinates reach
    2^(rank of the vectors before it). The DP cost sums that rank's power of
    two over the prefixes.
    """
    elim = _Eliminator()
    coords: list[int] = []
    rank = 0
    dp_cost = 0
    for v in reversed(collection.vectors):
        combo = elim.insert(v.bits)
        if combo is None:
            combo = 1 << rank
            rank += 1
        coords.append(combo)
        dp_cost += 1 << rank
    return coords, rank, dp_cost


def _scan_kernel(coords: list[int]) -> str:
    """Largest zero-sum set as m digits, the numerically greatest mask on a tie.

    Each dependent vector and the kept vectors in its combination form one
    kernel relation; the m - r relations are a basis of the zero-sum masks,
    and Gray-code order visits all 2^(m-r) of them with one XOR each. The
    relations are built here, not in the elimination pass, because the
    syndrome DP has no use for them and they cost m bits each.
    """
    kept: list[int] = []  # mask bit of the k-th kept vector
    relations: list[int] = []
    for j, c in enumerate(coords):
        if c >> len(kept):
            kept.append(1 << j)
            continue
        relation = 1 << j
        while c:
            low = c & -c
            relation |= kept[low.bit_length() - 1]
            c ^= low
        relations.append(relation)
    best = cur = 0
    best_size = 0
    for i in range(1, 1 << len(relations)):
        cur ^= relations[(i & -i).bit_length() - 1]
        size = cur.bit_count()
        if size > best_size or (size == best_size and cur > best):
            best, best_size = cur, size
    # The leading 1 keeps exactly m digits after it, none when m = 0.
    return format(best | 1 << len(coords), "b")[1:]


def _trace_syndromes(coords: list[int]) -> str:
    """Largest zero-sum set as m digits, the numerically greatest mask on a tie.

    Wolf's syndrome trellis: after the first k vectors, entry s of table k
    is the least number of them whose coordinates XOR to s. Every syndrome
    in the span of a prefix is reachable, so no entry is ever infinite. A
    kept vector doubles the table; a dependent vector c sets entry s to
    min(T[s], T[s ^ c] + 1). Entries never grow, so a table often equals
    the one before it, and then that one is kept in its place. The
    complement of a zero-sum set XORs to the whole collection's syndrome,
    and rebuilding it from the highest bit down, leaving a bit out whenever
    the optimum stays reachable without it, gives the numerically least
    complement of least size.
    """
    table = [0]
    tables = [table]  # tables[k] is the table after the first k vectors
    syndrome = 0
    for c in coords:
        if c >= len(table):
            table = table + [x + 1 for x in table]
        else:
            new = [a if a <= (b := table[s ^ c]) else b + 1 for s, a in enumerate(table)]
            if new != table:
                table = new
        tables.append(table)
        syndrome ^= c
    size = table[syndrome]
    # Digit j from the right is "1" while bit j is in the zero-sum set;
    # setting digits keeps the rebuild linear in m, where OR-ing 1 << j is not.
    digits = bytearray(b"1") * len(coords)
    for j in range(len(coords) - 1, -1, -1):
        before = tables[j]
        if syndrome < len(before) and before[syndrome] == size:
            continue
        digits[-1 - j] = ord("0")
        syndrome ^= coords[j]
        size -= 1
    return digits.decode()


def _require_effort(effort_limit: int) -> None:
    """The effort rule, the one place its message lives: no negative budget."""
    if effort_limit < 0:
        raise ValueError("effort_limit must be nonnegative")


def max_zero_sum_subset(
    collection: Gf2Collection, effort_limit: int = 0, *, workers: int = 1
) -> SubsetCertificate:
    """Maximum-cardinality zero-sum subset, exact.

    The zero-sum subsets are the kernel, of dimension m - r. One elimination
    pass gives the rank r and every vector's coordinates; then the cheaper
    of two strategies runs: the kernel scan over 2^(m-r) nodes, or the
    syndrome DP over sum_k 2^(r_k) table entries, r_k the rank of the first
    k vectors in reverse index order (at most m * 2^r). Ties are broken
    toward the lexicographically smallest index set: with the vectors
    passed in reverse index order, bit j standing for index m - j, that is
    the numerically greatest zero-sum mask of largest size. Raises
    EffortExceeded (with the constructive certificate attached, and the
    cheaper strategy's unit: nodes or table entries) when the cheaper cost
    exceeds the budget; effort_limit=0 selects the default
    budget. The DP keeps at most the entries it counts, so the budget bounds
    its memory as well. ``workers`` is accepted for compatibility and has no
    effect.
    """
    _require_effort(effort_limit)
    budget = effort_limit or DEFAULT_EFFORT_LIMIT
    coords, rank, dp_cost = _reverse_pass(collection)
    m = len(coords)
    kernel_cost = 1 << (m - rank)
    needed = min(kernel_cost, dp_cost)
    scan = kernel_cost <= dp_cost
    if needed > budget:
        raise EffortExceeded(
            needed, budget, zero_sum_subcollection(collection),
            unit="nodes" if scan else "table entries",
        )
    strategy = _scan_kernel if scan else _trace_syndromes
    # Digit i is bit m - 1 - i of the mask, so index i + 1.
    digits = strategy(coords)
    return SubsetCertificate(frozenset(i + 1 for i, d in enumerate(digits) if d == "1"))
