"""The constructive certificate, index for index, and the exact solver's memory.

The constructive certificate is defined as J ∪ I: J the indices outside the
greedy basis, I the basis subset whose XOR equals the XOR over J. The
reference below builds it from the two public steps (greedy_basis, then
coordinates), so it pins the exact index set, not just its size and XOR.
"""

from __future__ import annotations

import random
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from excess_kit.gf2 import (
    Gf2Collection,
    Gf2Vector,
    coordinates,
    greedy_basis,
    max_zero_sum_subset,
    zero_sum_subcollection,
)

from helpers import xor_of
from test_fuzz import FUZZ


@st.composite
def collections(draw) -> Gf2Collection:
    """Up to 60 vectors: all zero, repeats of a few vectors, or random."""
    dim = draw(st.sampled_from((0, 1, 2, 3, 4, 64)))
    m = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(("zero", "repeats", "random")))
    if kind == "zero":
        bits = st.just(0)
    elif kind == "repeats":
        pool = draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=1, max_size=4))
        bits = st.sampled_from(pool)
    else:
        bits = st.integers(0, (1 << dim) - 1)
    vectors = draw(st.lists(bits, min_size=m, max_size=m))
    return Gf2Collection(dim, tuple(Gf2Vector(dim, b) for b in vectors))


@FUZZ
@given(collections())
def test_certificate_is_the_rest_and_its_basis_coordinates(collection):
    basis = greedy_basis(collection)
    rest = frozenset(range(1, len(collection) + 1)) - frozenset(basis)
    target = Gf2Vector(collection.dim, xor_of(collection, rest))
    expected = rest | coordinates(collection, basis, target)
    assert zero_sum_subcollection(collection).indices == expected


def test_full_rank_solve_peak_memory():
    """A full-rank m = 32 solve visits 2^17 nodes; each costs under 90 bytes."""
    rng = random.Random(1)
    vectors = tuple(Gf2Vector(64, rng.getrandbits(64)) for _ in range(32))
    collection = Gf2Collection(64, vectors)
    tracemalloc.start()
    try:
        cert = max_zero_sum_subset(collection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.size == 0
    assert peak < 11 * 2**20
