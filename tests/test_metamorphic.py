"""Soundness properties of the obstruction as metamorphic tests.

Each test changes an input in a way the mathematics says cannot change the
answer (or can change it only one way) and compares the two runs. None of
them restates the budget formula, so a formula error shared by the code and
an oracle still shows here.

- Connected-sum monotonicity: a family in M is a family in M#N once its
  classes are padded with zeros. Obstructed in M#N implies Obstructed in M.
- Tubing invariance: two same-sign members replaced by their tube (genus
  and Euler number add, classes XOR) keep the verdict, lhs and rhs.
- Massey in S^4: a same-sign family whose Euler numbers are all admissible
  for their genus is never Obstructed in s4.
- Symmetries: permuting the members, or reversing orientation (negating the
  signature and every Euler number), keeps the verdict, lhs and rhs.
- Plane corollary: a genus-1 same-sign family with |e| > 2 and more than B
  members is Obstructed by the audit, constructive and exact alike.
"""

from __future__ import annotations

from hypothesis import assume, given
from hypothesis import strategies as st

from excess_kit.engine import Verdict, excess_check, plane_family_audit
from excess_kit.gf2 import Gf2Vector
from excess_kit.manifolds import ManifoldProfile, plane_bound
from excess_kit.surfaces import (
    SurfaceDatum,
    SurfaceFamily,
    massey_admissible_set,
    massey_check,
)
from test_fuzz import FUZZ

S4 = ManifoldProfile("s4", 0, 2, 0)


@st.composite
def profiles(draw, max_b1: int = 2, max_b2: int = 4) -> ManifoldProfile:
    """A valid profile: b2 = chi - 2 + 2*b1 >= |signature|."""
    b1 = draw(st.integers(0, max_b1))
    b2 = draw(st.integers(0, max_b2))
    sigma = draw(st.integers(-b2, b2))
    return ManifoldProfile(f"m{sigma}.{b2}.{b1}", sigma, b2 + 2 - 2 * b1, b1)


@st.composite
def families(draw, dim: int, min_size: int = 1) -> SurfaceFamily:
    """Mostly same-sign families, often with zero class sum, so all verdicts occur."""
    sign = draw(st.sampled_from((1, -1, 0)))  # 0: each member takes its own sign
    members = []
    for _ in range(draw(st.integers(min_size, 5))):
        e = draw(st.integers(0, 40)) * (sign or draw(st.sampled_from((1, -1))))
        bits = draw(st.integers(0, (1 << dim) - 1))
        members.append(SurfaceDatum(draw(st.integers(1, 4)), e, Gf2Vector(dim, bits)))
    if draw(st.booleans()):
        rest = 0
        for s in members[:-1]:
            rest ^= s.mod2_class.bits
        last = members[-1]
        members[-1] = SurfaceDatum(last.genus, last.euler_number, Gf2Vector(dim, rest))
    return SurfaceFamily(dim, tuple(members))


def outcome(report) -> tuple:
    return report.verdict, report.lhs, report.rhs, report.failed_hypothesis


@FUZZ
@given(m=profiles(), n=profiles(), data=st.data())
def test_connected_sum_monotonicity(m, n, data):
    family = data.draw(families(m.b2_f2))
    m_sum_n = ManifoldProfile(
        f"{m.name}#{n.name}",
        m.signature + n.signature,
        m.euler_characteristic + n.euler_characteristic - 2,
        m.b1_f2 + n.b1_f2,
    )
    dim = m_sum_n.b2_f2
    padded = SurfaceFamily(
        dim,
        tuple(
            SurfaceDatum(s.genus, s.euler_number, Gf2Vector(dim, s.mod2_class.bits))
            for s in family.members
        ),
    )
    in_m, in_sum = excess_check(m, family), excess_check(m_sum_n, padded)
    assert in_sum.lhs == in_m.lhs
    assert in_sum.failed_hypothesis == in_m.failed_hypothesis
    if in_sum.verdict is Verdict.OBSTRUCTED:
        assert in_m.verdict is Verdict.OBSTRUCTED


@FUZZ
@given(m=profiles(), data=st.data())
def test_tubing_two_same_sign_members_keeps_the_outcome(m, data):
    family = data.draw(families(m.b2_f2, min_size=2))
    members = family.members
    pairs = [
        (i, j)
        for i in range(len(members))
        for j in range(i + 1, len(members))
        if members[i].euler_number * members[j].euler_number >= 0
    ]
    assume(pairs)
    i, j = data.draw(st.sampled_from(pairs))
    a, b = members[i], members[j]
    joined = SurfaceDatum(
        a.genus + b.genus, a.euler_number + b.euler_number, a.mod2_class ^ b.mod2_class
    )
    rest = [s for k, s in enumerate(members) if k not in (i, j)]
    tubed = SurfaceFamily(family.ambient_dim, (*rest[:i], joined, *rest[i:]))
    assert outcome(excess_check(m, tubed)) == outcome(excess_check(m, family))


@FUZZ
@given(data=st.data())
def test_massey_admissible_same_sign_family_is_never_obstructed_in_s4(data):
    sign = data.draw(st.sampled_from((1, -1)))
    members = []
    for _ in range(data.draw(st.integers(1, 6))):
        genus = data.draw(st.integers(1, 30))
        euler = sign * data.draw(
            st.sampled_from([e for e in massey_admissible_set(genus) if e >= 0])
        )
        assert massey_check(genus, euler)
        members.append(SurfaceDatum(genus, euler, Gf2Vector.zero(0)))
    report = excess_check(S4, SurfaceFamily(0, tuple(members)))
    assert report.verdict is Verdict.BOUND_SATISFIED
    assert report.lhs <= report.rhs


@FUZZ
@given(m=profiles(), data=st.data())
def test_permutation_and_orientation_reversal_keep_the_outcome(m, data):
    family = data.draw(families(m.b2_f2))
    expected = outcome(excess_check(m, family))

    order = data.draw(st.permutations(range(len(family))))
    permuted = SurfaceFamily(family.ambient_dim, tuple(family.members[k] for k in order))
    assert outcome(excess_check(m, permuted)) == expected

    reversed_m = ManifoldProfile(
        m.name + "-bar", -m.signature, m.euler_characteristic, m.b1_f2
    )
    reversed_family = SurfaceFamily(
        family.ambient_dim,
        tuple(
            SurfaceDatum(s.genus, -s.euler_number, s.mod2_class) for s in family.members
        ),
    )
    assert outcome(excess_check(reversed_m, reversed_family)) == expected


@FUZZ
@given(m=profiles(max_b2=2), data=st.data())
def test_plane_family_over_its_budget_is_obstructed_in_both_modes(m, data):
    # Keep B, and so the exact solver's member count, small: D <= 8, B <= 20.
    assume(abs(m.signature) + m.b2_f2 <= 2)
    sign = data.draw(st.sampled_from((1, -1)))
    count = plane_bound(m) + data.draw(st.integers(1, 3))
    dim = m.b2_f2
    planes = SurfaceFamily(
        dim,
        tuple(
            SurfaceDatum(
                1,
                sign * data.draw(st.integers(3, 12)),
                Gf2Vector(dim, data.draw(st.integers(0, (1 << dim) - 1))),
            )
            for _ in range(count)
        ),
    )
    for use_exact in (False, True):
        audit = plane_family_audit(m, planes, use_exact=use_exact)
        assert audit.verdict is Verdict.OBSTRUCTED
