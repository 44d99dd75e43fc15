"""Shared runners, int/str limits, constructors, generators and brute-force oracles.

The oracles deliberately avoid the library's own code paths: the subset-XOR
table is built with numpy slice doubling, and rank is read off the size of
the span enumerated as a set. Where a test compares the library against an
oracle, both sides must stay independent.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from typing import Iterator

import numpy as np

from excess_kit import cli
from excess_kit.gf2 import Gf2Collection, Gf2Vector
from excess_kit.manifolds import ManifoldProfile
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

# (int/str limit, integer digit cap): Python's default limit, no limit, and
# the lowest limit that PYTHONINTMAXSTRDIGITS accepts. The cap is 4000
# digits, or 300 under a lower limit.
LIMITS = [(4300, 4000), (0, 4000), (640, 340)]


@contextlib.contextmanager
def int_limit(limit: int) -> Iterator[None]:
    """The interpreter's int/str conversion limit set to `limit`, then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class _CappedStdout(io.StringIO):
    """A stdout that closes, as a pipe would, past 2^24 characters.

    So a command that streams without end (massey of a genus past the cap,
    were the cap not enforced) fails its test instead of filling memory.
    """

    def write(self, text: str) -> int:
        if self.tell() + len(text) > 1 << 24:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def invoke(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.run(argv) in this process."""
    out, err = _CappedStdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(directory, name: str, data: str | bytes) -> str:
    """Write data, text as UTF-8, to the file `name` in `directory`; return its path."""
    path = directory / name
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return str(path)


def datum(g: int, e: int, bits: str = "") -> SurfaceDatum:
    return SurfaceDatum(genus=g, euler_number=e, mod2_class=Gf2Vector.from_string(bits))


def family(*members: SurfaceDatum, dim: int = 0) -> SurfaceFamily:
    return SurfaceFamily(ambient_dim=dim, members=members)


def vecs(*strings: str) -> Gf2Collection:
    return Gf2Collection.from_strings(list(strings))


def random_collection(
    rng: random.Random, max_dim: int, max_len: int, min_len: int = 0
) -> Gf2Collection:
    dim = rng.randint(1, max_dim)
    m = rng.randint(min_len, max_len)
    vectors = tuple(Gf2Vector(dim, rng.getrandbits(dim)) for _ in range(m))
    return Gf2Collection(dim=dim, vectors=vectors)


def ranked_collection(rng: random.Random, m: int, r: int) -> Gf2Collection:
    """m vectors of rank r, 0 <= r <= m, in random order.

    The r basis vectors have distinct top bits, and the other m - r are
    random combinations of them, the zero vector included.
    """
    basis = [(1 << k) | rng.getrandbits(k) for k in range(r)]
    bits = list(basis)
    for _ in range(m - r):
        acc = 0
        for b in basis:
            if rng.getrandbits(1):
                acc ^= b
        bits.append(acc)
    rng.shuffle(bits)
    dim = max(r, 1)
    return Gf2Collection(dim, tuple(Gf2Vector(dim, b) for b in bits))


def xor_of(collection: Gf2Collection, indices) -> int:
    acc = 0
    for i in indices:
        acc ^= collection.vector(i).bits
    return acc


def brute_rank(collection: Gf2Collection) -> int:
    """Rank as log2 of the span size, enumerated vector by vector."""
    span = {0}
    for v in collection.vectors:
        span |= {x ^ v.bits for x in span}
    return len(span).bit_length() - 1


def subset_xor_table(bits: list[int], m: int) -> np.ndarray:
    """Entry s is the XOR over the indices selected by mask s."""
    table = np.zeros(1 << m, dtype=np.uint64)
    for i, v in enumerate(bits):
        lo = 1 << i
        table[lo : 2 * lo] = table[:lo] ^ np.uint64(v)
    return table


def popcount_table(m: int) -> np.ndarray:
    pop = np.zeros(1 << m, dtype=np.uint8)
    for i in range(m):
        lo = 1 << i
        pop[lo : 2 * lo] = pop[:lo] + 1
    return pop


def brute_best_zero_sum(collection: Gf2Collection) -> tuple[int, tuple[int, ...]]:
    """(max size, lexicographically least index set) over all zero-sum subsets."""
    bits = [v.bits for v in collection.vectors]
    m = len(bits)
    table = subset_xor_table(bits, m)
    zero_masks = np.nonzero(table == 0)[0]
    sizes = popcount_table(m)[zero_masks]
    best_size = int(sizes.max())
    candidates = zero_masks[sizes == best_size]
    best_set = min(
        tuple(j + 1 for j in range(m) if (int(c) >> j) & 1) for c in candidates
    )
    return best_size, best_set


def random_valid_profile(rng: random.Random, spread: int = 6) -> ManifoldProfile:
    """Uniform-ish profile satisfying both admissibility invariants."""
    b1 = rng.randint(0, spread)
    b2 = rng.randint(0, 2 * spread)
    chi = b2 + 2 - 2 * b1
    sigma = rng.randint(-b2, b2)
    return ManifoldProfile(
        name=f"rnd-{sigma}-{chi}-{b1}",
        signature=sigma,
        euler_characteristic=chi,
        b1_f2=b1,
    )


def random_family(
    rng: random.Random,
    dim: int,
    size: int,
    *,
    same_sign: bool = False,
    zero_class_sum: bool = False,
    max_genus: int = 8,
    max_abs_e: int = 20,
) -> SurfaceFamily:
    """Random family; optionally force the two check hypotheses to hold."""
    sign = rng.choice((1, -1))
    members = []
    for _ in range(size):
        g = rng.randint(1, max_genus)
        e = rng.randint(0, max_abs_e) * sign if same_sign else rng.randint(
            -max_abs_e, max_abs_e
        )
        members.append(
            SurfaceDatum(
                genus=g,
                euler_number=e,
                mod2_class=Gf2Vector(dim, rng.getrandbits(dim) if dim else 0),
            )
        )
    if zero_class_sum:
        acc = 0
        for s in members[:-1]:
            acc ^= s.mod2_class.bits
        last = members[-1]
        members[-1] = SurfaceDatum(
            genus=last.genus,
            euler_number=last.euler_number,
            mod2_class=Gf2Vector(dim, acc),
        )
    return SurfaceFamily(ambient_dim=dim, members=tuple(members))
