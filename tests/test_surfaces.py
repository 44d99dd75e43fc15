"""Surface records, tubing arithmetic, sign classes, admissible Euler sets."""

from __future__ import annotations

import functools
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excess_kit.errors import DimensionMismatch, EmptyFamily, InvalidGenus
from excess_kit.gf2 import Gf2Vector
from excess_kit.surfaces import (
    SignClass,
    SurfaceDatum,
    SurfaceFamily,
    TubedSurface,
    bundle_to_surface,
    massey_admissible_set,
    massey_check,
    sign_class,
    tube,
)
from helpers import datum, family


class TestSurfaceDatum:
    def test_euler_characteristic(self):
        assert datum(1, 0).euler_characteristic == 1
        assert datum(2, 0).euler_characteristic == 0
        assert datum(5, 0).euler_characteristic == -3

    def test_orientable_genus_rejected(self):
        with pytest.raises(InvalidGenus):
            datum(0, 2)
        with pytest.raises(InvalidGenus):
            datum(-1, 2)


class TestSurfaceFamily:
    def test_empty_rejected(self):
        with pytest.raises(EmptyFamily, match="^a surface family needs at least one member$"):
            SurfaceFamily(ambient_dim=0, members=())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            family(datum(1, 2, "10"), dim=3)
        with pytest.raises(DimensionMismatch) as err:
            family(datum(1, 2, "10"), datum(1, 2, "1"), datum(1, 2, "100"), dim=2)
        assert str(err.value) == "member 2 has class dimension 1, family ambient dimension is 2"


class TestTube:
    def test_two_klein_bottles(self):
        t = tube(family(datum(1, 2), datum(1, 2)))
        assert (t.genus, t.euler_number, t.euler_characteristic) == (2, 4, 0)
        assert t.mod2_class.is_zero

    def test_single_member_identity(self):
        t = tube(family(datum(3, -6, "01"), dim=2))
        assert (t.genus, t.euler_number, t.euler_characteristic) == (3, -6, -1)
        assert t.mod2_class.to01() == "01"

    def test_tubed_surface_needs_matching_euler_characteristic(self):
        with pytest.raises(ValueError, match="euler_characteristic 1 != 2 - genus"):
            TubedSurface(2, 0, 1, Gf2Vector.zero(0))

    def test_three_planes_classes_cancel(self):
        t = tube(
            family(
                datum(1, -2, "10"), datum(1, -2, "01"), datum(1, -2, "11"), dim=2
            )
        )
        assert (t.genus, t.euler_number, t.euler_characteristic) == (3, -6, -1)
        assert t.mod2_class.to01() == "00"

    def test_associativity_as_arithmetic(self):
        rng = random.Random(11)
        for _ in range(100):
            dim = rng.randint(0, 5)
            members = tuple(
                SurfaceDatum(
                    genus=rng.randint(1, 6),
                    euler_number=rng.randint(-9, 9),
                    mod2_class=Gf2Vector(dim, rng.getrandbits(dim) if dim else 0),
                )
                for _ in range(rng.randint(1, 6))
            )
            whole = tube(SurfaceFamily(ambient_dim=dim, members=members))
            # fold pairwise left to right through intermediate one-surface data
            acc = members[0]
            for nxt in members[1:]:
                partial = tube(SurfaceFamily(ambient_dim=dim, members=(acc, nxt)))
                acc = SurfaceDatum(
                    genus=partial.genus,
                    euler_number=partial.euler_number,
                    mod2_class=partial.mod2_class,
                )
            assert (whole.genus, whole.euler_number, whole.mod2_class) == (
                acc.genus,
                acc.euler_number,
                acc.mod2_class,
            )
            assert whole.euler_characteristic == 2 - whole.genus


class TestSignClass:
    def test_examples(self):
        assert sign_class(family(datum(1, 2), datum(1, 4), datum(1, 0))) is SignClass.NON_NEGATIVE
        assert sign_class(family(datum(1, 2), datum(1, -2))) is SignClass.MIXED
        assert sign_class(family(datum(1, 0), datum(1, 0))) is SignClass.NON_NEGATIVE

    def test_nonpositive(self):
        assert sign_class(family(datum(1, -2), datum(1, 0))) is SignClass.NON_POSITIVE

    def test_no_cancellation_when_one_sided(self):
        rng = random.Random(29)
        for _ in range(100):
            sign = rng.choice((1, -1))
            es = [rng.randint(0, 9) * sign for _ in range(rng.randint(1, 6))]
            f = family(*(datum(1, e) for e in es))
            if sign_class(f) is not SignClass.MIXED:
                assert abs(sum(es)) == sum(abs(e) for e in es)


class TestMassey:
    def test_admissible_sets(self):
        assert massey_admissible_set(1) == [-2, 2]
        assert massey_admissible_set(2) == [-4, 0, 4]
        assert massey_admissible_set(3) == [-6, -2, 2, 6]

    def test_set_shape(self):
        for g in range(1, 40):
            values = massey_admissible_set(g)
            assert len(values) == g + 1
            assert values == sorted(values)
            assert [-v for v in values] == sorted(-v for v in values)[::-1]
            assert set(values) == {-v for v in values}
            for e in values:
                assert abs(e) <= 2 * g
                assert (e - 2 * g) % 4 == 0

    def test_check_examples(self):
        assert massey_check(1, 2)
        assert not massey_check(2, 2)
        assert not massey_check(5, -12)

    def test_check_agrees_with_set_membership(self):
        for g in range(1, 15):
            admissible = set(massey_admissible_set(g))
            for e in range(-2 * g - 5, 2 * g + 6):
                assert massey_check(g, e) == (e in admissible)

    def test_invalid_genus(self):
        with pytest.raises(InvalidGenus):
            massey_admissible_set(0)
        with pytest.raises(InvalidGenus):
            massey_check(-1, 0)


class TestBundleToSurface:
    def test_transfer_is_exact(self):
        v = Gf2Vector.from_string("101")
        s = bundle_to_surface(1, 4, v)
        assert (s.genus, s.euler_number, s.mod2_class) == (1, 4, v)
        s2 = bundle_to_surface(2, 0, Gf2Vector.zero(0))
        assert (s2.genus, s2.euler_number) == (2, 0)

    def test_invalid_genus(self):
        with pytest.raises(InvalidGenus):
            bundle_to_surface(0, 2, Gf2Vector.zero(0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SurfaceDatum(genus=0, euler_number=2, mod2_class=Gf2Vector.zero(0)),
        lambda: TubedSurface(
            genus=0, euler_number=2, euler_characteristic=2, mod2_class=Gf2Vector.zero(0)
        ),
        lambda: massey_admissible_set(0),
        lambda: massey_check(0, 0),
        lambda: bundle_to_surface(0, 2, Gf2Vector.zero(0)),
    ],
    ids=["SurfaceDatum", "TubedSurface", "massey_admissible_set", "massey_check",
         "bundle_to_surface"],
)
def test_genus_zero_message_is_shared(build):
    with pytest.raises(InvalidGenus) as err:
        build()
    assert str(err.value) == "nonorientable genus must be >= 1, got 0"


# Euler numbers of every sign, zero often, and up to the 4000-digit cap.
EULERS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-50, 50),
    st.integers(-(10**4000) + 1, 10**4000 - 1),
)


@st.composite
def families(draw) -> SurfaceFamily:
    """Families of up to 8 members, a third of them kept to each sign side."""
    dim = draw(st.integers(0, 70))
    side = draw(st.sampled_from([1, -1, None]))
    members = []
    for _ in range(draw(st.integers(1, 8))):
        e = draw(EULERS)
        bits = draw(st.integers(0, 2**dim - 1))
        members.append(
            SurfaceDatum(
                genus=draw(st.integers(1, 10**6)),
                euler_number=e if side is None else side * abs(e),
                mod2_class=Gf2Vector(dim, bits),
            )
        )
    return SurfaceFamily(ambient_dim=dim, members=tuple(members))


@given(fam=families())
def test_tube_is_the_sum_of_its_members(fam):
    genus = sum(s.genus for s in fam.members)
    bits = functools.reduce(operator.xor, (s.mod2_class.bits for s in fam.members))
    assert tube(fam) == TubedSurface(
        genus=genus,
        euler_number=sum(s.euler_number for s in fam.members),
        euler_characteristic=2 - genus,
        mod2_class=Gf2Vector(fam.ambient_dim, bits),
    )


@given(fam=families())
def test_sign_class_is_its_definition(fam):
    es = [s.euler_number for s in fam.members]
    if all(e >= 0 for e in es):
        expected = SignClass.NON_NEGATIVE
    elif all(e <= 0 for e in es):
        expected = SignClass.NON_POSITIVE
    else:
        expected = SignClass.MIXED
    assert sign_class(fam) is expected
