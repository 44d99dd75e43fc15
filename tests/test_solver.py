"""The exact maximum zero-sum solver: both strategies, budgets, memory, determinism."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from excess_kit.errors import EffortExceeded
from excess_kit.gf2 import (
    Gf2Collection,
    Gf2Vector,
    _reverse_pass,
    _scan_kernel,
    _trace_syndromes,
    max_zero_sum_subset,
    zero_sum_subcollection,
)

from helpers import (
    brute_best_zero_sum, brute_rank, random_collection, ranked_collection, vecs, xor_of,
)

# The bytes per syndrome DP table entry the README states.
DP_BYTES_PER_ENTRY = 10


def test_examples():
    assert max_zero_sum_subset(vecs("10", "10", "01")).indices == {1, 2}
    assert max_zero_sum_subset(vecs("10")).indices == frozenset()
    assert max_zero_sum_subset(vecs("11", "10", "01")).indices == {1, 2, 3}


def test_empty_collection():
    assert max_zero_sum_subset(Gf2Collection(3, ())).size == 0


def cheaper_cost(c: Gf2Collection) -> int:
    """min(2^(m - r) kernel scan nodes, syndrome DP entries), from brute-force ranks.

    The DP has one table of 2^(rank) entries per prefix of the vectors taken
    in reverse index order.
    """
    m = len(c)
    reversed_vectors = c.vectors[::-1]
    dp = sum(
        1 << brute_rank(Gf2Collection(c.dim, reversed_vectors[:k])) for k in range(1, m + 1)
    )
    return min(1 << (m - brute_rank(c)), dp)


def test_matches_brute_force_on_random_collections_up_to_length_12():
    rng = random.Random(411)
    for _ in range(300):
        c = random_collection(rng, max_dim=10, max_len=12, min_len=1)
        cert = max_zero_sum_subset(c)
        size, indices = brute_best_zero_sum(c)
        assert cert.size == size
        assert cert.sorted_indices() == indices
        assert xor_of(c, cert.indices) == 0


def test_matches_brute_force_at_lengths_21_to_23():
    # the brute-force table of 2^m subset sums stays affordable at these lengths
    rng = random.Random(59)
    for _ in range(25):
        dim = rng.randint(1, 24)
        m = rng.randint(21, 23)
        c = Gf2Collection(
            dim, tuple(Gf2Vector(dim, rng.getrandbits(dim)) for _ in range(m))
        )
        cert = max_zero_sum_subset(c)
        size, indices = brute_best_zero_sum(c)
        assert (cert.size, cert.sorted_indices()) == (size, indices)


def test_never_below_constructive_certificate():
    rng = random.Random(83)
    for _ in range(200):
        c = random_collection(rng, max_dim=12, max_len=16)
        assert (
            max_zero_sum_subset(c).size >= zero_sum_subcollection(c).size
        )


def test_worker_count_does_not_change_result():
    rng = random.Random(2718)
    for _ in range(12):
        dim = rng.randint(1, 20)
        m = rng.randint(21, 26)
        c = Gf2Collection(
            dim, tuple(Gf2Vector(dim, rng.getrandbits(dim)) for _ in range(m))
        )
        results = {
            max_zero_sum_subset(c, workers=w).sorted_indices() for w in (1, 4, 16)
        }
        assert len(results) == 1


def test_effort_budget_refused_with_fallback_payload():
    rng = random.Random(5)
    c = Gf2Collection(
        6, tuple(Gf2Vector(6, rng.getrandbits(6)) for _ in range(16))
    )
    with pytest.raises(EffortExceeded) as exc_info:
        max_zero_sum_subset(c, effort_limit=100)
    err = exc_info.value
    assert err.needed > err.budget == 100
    assert xor_of(c, err.certificate.indices) == 0
    assert err.certificate.size >= 0


def test_effort_budget_allows_exact_when_large_enough():
    c = vecs("110", "011", "101")
    assert max_zero_sum_subset(c, effort_limit=8).indices == {1, 2, 3}


def test_negative_effort_rejected():
    with pytest.raises(ValueError):
        max_zero_sum_subset(vecs("1"), effort_limit=-1)


def test_effort_budget_refuses_below_the_cheaper_cost_and_solves_above_it():
    rng = random.Random(9)
    c = Gf2Collection(
        8, tuple(Gf2Vector(8, rng.getrandbits(8)) for _ in range(22))
    )
    needed = cheaper_cost(c)
    assert 1000 < needed <= 1 << 12
    with pytest.raises(EffortExceeded) as exc_info:
        max_zero_sum_subset(c, effort_limit=1000)
    assert exc_info.value.needed == needed
    assert xor_of(c, exc_info.value.certificate.indices) == 0
    cert = max_zero_sum_subset(c, effort_limit=1 << 12)
    assert cert.size >= zero_sum_subcollection(c).size


def test_tie_break_is_lexicographic():
    # two disjoint zero-sum pairs: their union is the unique maximum
    c = vecs("10", "10", "01", "01")
    assert max_zero_sum_subset(c).sorted_indices() == (1, 2, 3, 4)
    # force a genuine tie: two pairs, max size 2 after removing overlap
    c2 = vecs("11", "11", "11")
    # any two of the three indices XOR to zero; lexicographically least wins
    assert max_zero_sum_subset(c2).sorted_indices() == (1, 2)


@pytest.mark.parametrize("strategy", [_scan_kernel, _trace_syndromes])
def test_each_strategy_matches_brute_force_at_every_rank(strategy):
    rng = random.Random(1978)
    shapes = [(m, r) for m in range(15) for r in range(m + 1)]
    for m, r in shapes * 3:
        c = ranked_collection(rng, m, r)
        assert brute_rank(c) == r
        digits = strategy(_reverse_pass(c)[0])
        assert len(digits) == m
        chosen = tuple(i + 1 for i, d in enumerate(digits) if d == "1")
        assert (len(chosen), chosen) == brute_best_zero_sum(c)


def test_needed_is_the_cheaper_strategy_cost():
    rng = random.Random(10)
    for m, r in [(6, 3), (9, 2), (12, 9), (14, 4), (14, 7)]:
        c = ranked_collection(rng, m, r)
        with pytest.raises(EffortExceeded) as exc_info:
            max_zero_sum_subset(c, effort_limit=1)
        assert exc_info.value.needed == cheaper_cost(c)


def test_refusal_names_the_unit_of_the_cheaper_strategy():
    # 60 vectors of rank 10: the DP's 53,246 entries are far cheaper than
    # 2^50 kernel nodes, so the refusal counts table entries.
    c = ranked_collection(random.Random(1), 60, 10)
    with pytest.raises(EffortExceeded) as exc_info:
        max_zero_sum_subset(c, effort_limit=1000)
    err = exc_info.value
    assert err.unit == "table entries" and err.needed == cheaper_cost(c) < 1 << 50
    assert str(err).startswith(f"exact search needs ~{err.needed} table entries, budget is 1000; ")
    # 8 vectors of rank 5: 2^3 kernel nodes undercut the DP.
    c = ranked_collection(random.Random(2), 8, 5)
    with pytest.raises(EffortExceeded) as exc_info:
        max_zero_sum_subset(c, effort_limit=1)
    assert exc_info.value.unit == "nodes"
    assert str(exc_info.value).startswith("exact search needs ~8 nodes, budget is 1; ")


def test_full_rank_solve_fits_a_budget_of_one():
    rng = random.Random(64)
    c = ranked_collection(rng, 64, 64)
    assert max_zero_sum_subset(c, effort_limit=1).size == 0


@pytest.mark.parametrize("m, r", [(24, 8), (60, 10), (30, 12)])
def test_dp_peak_memory_is_bounded_by_the_cost(m, r):
    # 2^(m - r) kernel nodes cost more than the DP here, so the DP runs.
    c = ranked_collection(random.Random(m * r), m, r)
    with pytest.raises(EffortExceeded) as exc_info:
        max_zero_sum_subset(c, effort_limit=1)
    needed = exc_info.value.needed
    assert needed < 1 << (m - r)
    tracemalloc.start()
    try:
        cert = max_zero_sum_subset(c, effort_limit=needed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xor_of(c, cert.indices) == 0 and cert.size >= m - r
    assert peak <= DP_BYTES_PER_ENTRY * needed
