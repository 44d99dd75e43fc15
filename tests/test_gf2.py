"""Vectors, collections, rank, bases, and the constructive zero-sum certificate."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from excess_kit.errors import NotABasis, NotInSpan
from excess_kit.gf2 import (
    Gf2Collection,
    Gf2Vector,
    coordinates,
    greedy_basis,
    rank,
    zero_sum_subcollection,
)

from helpers import brute_rank, random_collection, vecs, xor_of


class TestGf2Vector:
    def test_roundtrip_string(self):
        v = Gf2Vector.from_string("01101")
        assert v.dim == 5
        assert v.to01() == "01101"
        assert v.weight == 3
        assert [v[i] for i in range(5)] == [0, 1, 1, 0, 1]

    def test_xor_and_zero(self):
        a = Gf2Vector.from_string("1100")
        b = Gf2Vector.from_string("0110")
        assert (a ^ b).to01() == "1010"
        assert (a ^ a).is_zero
        assert Gf2Vector.zero(4).is_zero

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            Gf2Vector.from_string("10") ^ Gf2Vector.from_string("100")

    def test_bits_out_of_range(self):
        for dim, bits, message in [
            (2, 4, "bits out of range for dimension 2"),
            (3, 8, "bits out of range for dimension 3"),
            (3, -1, "bits out of range for dimension 3"),
            (-1, 0, "dim must be nonnegative"),
        ]:
            with pytest.raises(ValueError) as err:
                Gf2Vector(dim, bits)
            assert str(err.value) == message

    def test_range_check_builds_no_power_of_two(self):
        # A profile's b2_f2 may have 20 digits; 1 << dim would not fit in memory.
        tracemalloc.start()
        try:
            v = Gf2Vector(10**20, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.is_zero and peak < 1024
        assert Gf2Vector(10**20, 1 << (10**6)).weight == 1

    def test_index_out_of_range(self):
        v = Gf2Vector(3, 5)
        assert [v[i] for i in range(3)] == [1, 0, 1]
        for bad in (3, -1):
            with pytest.raises(IndexError):
                v[bad]

    def test_from_bits(self):
        assert Gf2Vector.from_bits([1, 0, 1]).to01() == "101"
        with pytest.raises(ValueError):
            Gf2Vector.from_bits([0, 2])

    def test_empty_vector(self):
        v = Gf2Vector.from_string("")
        assert v.dim == 0 and v.is_zero and v.to01() == ""


class TestCollection:
    def test_one_based_indexing(self):
        c = vecs("10", "01")
        assert c.vector(1).to01() == "10"
        assert c.vector(2).to01() == "01"
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                c.vector(bad)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Gf2Collection.from_strings(["10", "100"])
        with pytest.raises(ValueError):
            Gf2Collection(2, (Gf2Vector(3, 0),))


class TestRank:
    def test_examples(self):
        assert rank(vecs("10", "01", "11")) == 2
        assert rank(vecs("000", "000")) == 0
        assert rank(Gf2Collection(5, ())) == 0

    def test_permutation_and_zero_append_invariance(self):
        rng = random.Random(101)
        for _ in range(50):
            c = random_collection(rng, max_dim=10, max_len=12)
            r = rank(c)
            shuffled = list(c.vectors)
            rng.shuffle(shuffled)
            assert rank(Gf2Collection(c.dim, tuple(shuffled))) == r
            padded = Gf2Collection(c.dim, c.vectors + (Gf2Vector.zero(c.dim),))
            assert rank(padded) == r

    def test_against_span_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            c = random_collection(rng, max_dim=8, max_len=10)
            assert rank(c) == brute_rank(c)


class TestGreedyBasis:
    def test_examples(self):
        assert greedy_basis(vecs("10", "10", "01")) == (1, 3)
        assert greedy_basis(vecs("00", "11")) == (2,)
        assert greedy_basis(Gf2Collection(3, ())) == ()

    def test_is_earliest_independent_scan(self):
        # every prefix of the chosen indices must already be forced: the
        # vector at each skipped index depends on the kept ones before it
        rng = random.Random(13)
        for _ in range(60):
            c = random_collection(rng, max_dim=6, max_len=10)
            basis = greedy_basis(c)
            assert len(basis) == rank(c)
            kept: list[int] = []
            for i in range(1, len(c) + 1):
                prefix = Gf2Collection(
                    c.dim, tuple(c.vector(j) for j in kept + [i])
                )
                if i in basis:
                    assert rank(prefix) == len(kept) + 1
                    kept.append(i)
                else:
                    assert rank(prefix) == len(kept)


class TestCoordinates:
    def test_examples(self):
        c = vecs("10", "01")
        assert coordinates(c, [1, 2], Gf2Vector.from_string("11")) == {1, 2}
        assert coordinates(c, [1, 2], Gf2Vector.zero(2)) == frozenset()
        with pytest.raises(NotInSpan):
            coordinates(vecs("10"), [1], Gf2Vector.from_string("01"))

    def test_target_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="target dimension differs"):
            coordinates(vecs("10", "01"), [1, 2], Gf2Vector.from_string("110"))

    def test_dependent_basis_rejected(self):
        c = vecs("10", "10")
        with pytest.raises(NotABasis):
            coordinates(c, [1, 2], Gf2Vector.from_string("10"))

    def test_inverts_subset_xor(self):
        rng = random.Random(23)
        for _ in range(80):
            c = random_collection(rng, max_dim=8, max_len=12)
            basis = greedy_basis(c)
            picked = frozenset(i for i in basis if rng.random() < 0.5)
            target = Gf2Vector(c.dim, xor_of(c, picked))
            assert coordinates(c, basis, target) == picked


class TestZeroSumSubcollection:
    def test_examples(self):
        assert zero_sum_subcollection(vecs("10", "01", "11")).indices == {1, 2, 3}
        zeros = vecs("000", "000", "000", "000")
        assert zero_sum_subcollection(zeros).indices == {1, 2, 3, 4}
        assert zero_sum_subcollection(vecs("1")).indices == frozenset()

    def test_empty_collection(self):
        cert = zero_sum_subcollection(Gf2Collection(4, ()))
        assert cert.size == 0

    def test_certificate_properties(self):
        rng = random.Random(37)
        for _ in range(200):
            c = random_collection(rng, max_dim=10, max_len=20)
            cert = zero_sum_subcollection(c)
            assert xor_of(c, cert.indices) == 0
            assert cert.size >= len(c) - rank(c)
            if len(c) > c.dim:
                assert cert.size > 0
