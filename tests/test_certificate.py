"""The constructive certificate, index for index, and the exact solver's memory.

The constructive certificate is defined as J ∪ I: J the indices outside the
greedy basis, I the basis subset whose XOR equals the XOR over J. The
reference below builds it from the two public steps (greedy_basis, then
coordinates), so it pins the exact index set, not just its size and XOR.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excess_kit.errors import EffortExceeded
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
from test_solver import ranked_collection


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
    """A kernel scan over 2^16 nodes peaks under 256 bytes per vector.

    m vectors of rank m - 16 cost 2^16 kernel nodes and far more DP entries,
    so the scan runs. It keeps the m - r kernel relations and one running
    mask, O(m) memory whatever the number of nodes it visits.
    """
    for m in (32, 64):
        collection = ranked_collection(random.Random(m), m, m - 16)
        with pytest.raises(EffortExceeded) as exc_info:
            max_zero_sum_subset(collection, effort_limit=1)
        assert (exc_info.value.needed, exc_info.value.unit) == (1 << 16, "nodes")
        tracemalloc.start()
        try:
            cert = max_zero_sum_subset(collection, effort_limit=1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xor_of(collection, cert.indices) == 0 and cert.size >= 16
        assert peak < 256 * m
