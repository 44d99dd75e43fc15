"""Profile validation and the two budget constants."""

from __future__ import annotations

import random

import pytest

from excess_kit.errors import NegativeB2, SignatureExceedsRank
from excess_kit.manifolds import (
    BudgetReport,
    ManifoldProfile,
    budget_report,
    excess_budget,
    plane_bound,
    validate_profile,
)

from helpers import random_valid_profile


def profile(sigma: int, chi: int, b1: int) -> ManifoldProfile:
    return ManifoldProfile(
        name="t", signature=sigma, euler_characteristic=chi, b1_f2=b1
    )


def test_b2_derivation():
    assert profile(0, 2, 0).b2_f2 == 0
    assert profile(0, 4, 0).b2_f2 == 2
    assert profile(0, 2, 1).b2_f2 == 2
    assert profile(3, 7, 2).b2_f2 == 9


def test_validate_accepts_sphere_like():
    p = profile(0, 2, 0)
    assert validate_profile(p) is p


def test_validate_rejections():
    with pytest.raises(NegativeB2):
        validate_profile(profile(0, 1, 0))
    with pytest.raises(SignatureExceedsRank):
        validate_profile(profile(3, 3, 0))
    negative_b1 = ManifoldProfile(name="x", signature=0, euler_characteristic=6, b1_f2=-1)
    with pytest.raises(ValueError) as err:
        validate_profile(negative_b1)
    assert str(err.value) == "x: b1_f2 is negative (-1)"


def test_validate_boundary_cases():
    validate_profile(profile(1, 3, 0))  # |sigma| == b2 is allowed
    validate_profile(profile(-2, 4, 0))
    with pytest.raises(SignatureExceedsRank):
        validate_profile(profile(-3, 4, 0))


def test_excess_budget_examples():
    assert excess_budget(profile(0, 2, 0)) == 0
    assert excess_budget(profile(1, 3, 0)) == 8
    assert excess_budget(profile(0, 2, 1)) == 8


def test_plane_bound_examples():
    assert plane_bound(profile(0, 2, 0)) == 0
    assert plane_bound(profile(1, 3, 0)) == 18
    assert plane_bound(profile(0, 2, 1)) == 20


def test_budget_report_fields():
    report = budget_report(profile(1, 3, 0))
    assert report == BudgetReport(b2_f2=1, d_of_m=8, b_of_m=18)


def test_budget_forms_agree_on_random_profiles():
    rng = random.Random(97)
    for _ in range(500):
        p = random_valid_profile(rng)
        d = excess_budget(p)
        assert d == 4 * (abs(p.signature) + p.b2_f2)
        assert d >= 0
        assert plane_bound(p) == 2 * (p.b2_f2 + d) >= 0


def test_plane_bound_monotone_in_b2_at_fixed_sigma():
    for sigma in (-2, 0, 3):
        previous = None
        for b2 in range(abs(sigma), abs(sigma) + 10):
            chi = b2 + 2  # b1 = 0
            value = plane_bound(profile(sigma, chi, 0))
            if previous is not None:
                assert value >= previous
            previous = value


def test_validate_matches_direct_recheck():
    rng = random.Random(181)
    for _ in range(500):
        sigma = rng.randint(-6, 6)
        chi = rng.randint(-4, 12)
        b1 = rng.randint(0, 4)
        p = profile(sigma, chi, b1)
        b2 = chi - 2 + 2 * b1
        should_pass = b2 >= 0 and abs(sigma) <= b2
        if should_pass:
            validate_profile(p)
        else:
            with pytest.raises((NegativeB2, SignatureExceedsRank)):
                validate_profile(p)
