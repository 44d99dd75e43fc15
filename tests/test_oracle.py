"""excess_check against a closed-form oracle written from the raw inputs.

The oracle reads only the profile's three integers and each member's
(genus, Euler number, class bits); it shares no code with the package.
Random multi-member families on many profiles are checked for the verdict,
lhs, rhs, the failing hypothesis and every trace step's
(label, lhs, rel, rhs).
"""

from __future__ import annotations

import random

from excess_kit.engine import excess_check
from excess_kit.gf2 import Gf2Vector
from excess_kit.manifolds import ManifoldProfile
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

FIXED_PROFILES = (
    (0, 2, 0),  # sphere
    (0, 0, 1),  # b1 > 0, b2 = 0
    (1, 3, 0),
    (-1, 3, 0),
    (0, 4, 0),
    (-16, 24, 0),
    (2, 2, 2),
    (-3, 1, 3),
)


def _compare(a: int, b: int) -> str:
    return "<=" if a <= b else ">="


def oracle(profile: tuple[int, int, int], members: list[tuple[int, int, int]]):
    """(verdict, lhs, rhs, failed_hypothesis, steps) from the closed forms."""
    sigma, chi, b1 = profile
    b2 = chi - 2 + 2 * b1
    genus = sum(g for g, _, _ in members)
    euler = sum(e for _, e, _ in members)
    abs_euler = sum(abs(e) for _, e, _ in members)
    class_sum = 0
    for _, _, bits in members:
        class_sum ^= bits
    lhs = abs_euler - 2 * genus
    rhs = 4 * abs(sigma) + 8 * b1 + 4 * chi - 8

    steps = [
        ("tubed-genus", genus, "=", genus),
        ("tubed-euler-number", euler, "=", euler),
        ("tubed-euler-characteristic", 2 - genus, "=", 2 - genus),
    ]
    one_sided = all(e >= 0 for _, e, _ in members) or all(e <= 0 for _, e, _ in members)
    failing = [name for name, ok in (("same-sign", one_sided), ("class-sum", class_sum == 0)) if not ok]
    if failing:
        return "HypothesisFailure", lhs, rhs, "+".join(failing), steps

    chi_cover = 2 * chi - (2 - genus)
    doubled = 4 * sigma - euler
    b2_cover = 2 * chi + genus - 4 + 4 * b1
    steps += [
        ("no-cancellation", abs(euler), "=", abs_euler),
        ("cover-euler-characteristic", chi_cover, "=", chi_cover),
        ("cover-signature-doubled", doubled, "=", doubled),
        ("signature-defect-doubled", abs(euler), "=", abs(euler)),
    ]
    if euler % 2 == 0:
        steps += [
            ("cover-signature", 2 * sigma - euler // 2, "=", 2 * sigma - euler // 2),
            ("ramification-euler", euler, "=", euler),
            ("signature-defect", abs(euler) // 2, "=", abs(euler) // 2),
        ]
    steps += [
        ("sum-abs-euler-vs-signatures", abs_euler, "<=", abs(doubled) + 4 * abs(sigma)),
        ("cover-rank-bound", b2_cover, "=", b2_cover),
        ("cover-signature-vs-rank", abs(doubled), _compare(abs(doubled), 2 * b2_cover), 2 * b2_cover),
        ("budget-forms-agree", rhs, "=", 4 * (abs(sigma) + b2)),
        ("excess-vs-budget", lhs, _compare(lhs, rhs), rhs),
    ]
    verdict = "Obstructed" if lhs > rhs else "BoundSatisfied"
    return verdict, lhs, rhs, None, steps


def random_profile(rng: random.Random) -> tuple[int, int, int]:
    if rng.random() < 0.4:
        return rng.choice(FIXED_PROFILES)
    b1 = rng.randint(0, 4)
    b2 = rng.randint(0, 12)
    return rng.randint(-b2, b2), b2 + 2 - 2 * b1, b1


def random_members(rng: random.Random, b2: int, budget: int) -> list[tuple[int, int, int]]:
    """2 to 7 members; about half the families meet both hypotheses."""
    size = rng.randint(2, 7)
    one_sided = rng.random() < 0.6
    zero_sum = rng.random() < 0.7
    sign = rng.choice((1, -1))
    reach = budget // size + 12
    members = []
    for _ in range(size):
        g = rng.randint(1, 7)
        e = sign * rng.randint(0, reach) if one_sided else rng.randint(-reach, reach)
        members.append((g, e, rng.getrandbits(b2) if b2 else 0))
    if zero_sum:
        acc = 0
        for _, _, bits in members[:-1]:
            acc ^= bits
        g, e, _ = members[-1]
        members[-1] = (g, e, acc)
    return members


def test_excess_check_matches_closed_form_oracle():
    rng = random.Random(8191)
    seen = set()
    for _ in range(3000):
        sigma, chi, b1 = random_profile(rng)
        b2 = chi - 2 + 2 * b1
        members = random_members(rng, b2, 4 * (abs(sigma) + b2))
        profile = ManifoldProfile(f"p{sigma}_{chi}_{b1}", sigma, chi, b1)
        family = SurfaceFamily(
            b2,
            tuple(
                SurfaceDatum(genus=g, euler_number=e, mod2_class=Gf2Vector(b2, bits))
                for g, e, bits in members
            ),
        )
        report = excess_check(profile, family)
        verdict, lhs, rhs, failed, steps = oracle((sigma, chi, b1), members)
        got = (
            report.verdict.value,
            report.lhs,
            report.rhs,
            report.failed_hypothesis,
            [(s.label, s.lhs, s.rel, s.rhs) for s in report.trace],
        )
        assert got == (verdict, lhs, rhs, failed, steps), (profile, members)
        seen.add((verdict, failed, sum(e for _, e, _ in members) % 2))
    # every verdict, every failing hypothesis, and both parities of the
    # total Euler number among families that reach the cover steps
    assert {v for v, _, _ in seen} == {"Obstructed", "BoundSatisfied", "HypothesisFailure"}
    assert {f for _, f, _ in seen} == {None, "same-sign", "class-sum", "same-sign+class-sum"}
    assert {p for v, _, p in seen if v != "HypothesisFailure"} == {0, 1}
