"""Acceptance suite: seven checks, one pass/fail line each under pytest -v.

Each test enforces its stated tolerance exactly (zero mismatches) and, where
a wall-clock budget applies, asserts the measured runtime against it.
"""

from __future__ import annotations

import random
import time

import pytest

from excess_kit.covers import branched_double_cover
from excess_kit.engine import (
    Verdict,
    batch_check,
    excess_check,
    plane_family_audit,
)
from excess_kit.errors import OddEulerNumber
from excess_kit.gf2 import (
    Gf2Collection,
    Gf2Vector,
    max_zero_sum_subset,
    rank,
    zero_sum_subcollection,
)
from excess_kit.manifolds import ManifoldProfile, plane_bound
from excess_kit.reports import (
    audit_document,
    canonical_json,
    certificate_document,
    report_document,
)
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily, TubedSurface

from helpers import brute_best_zero_sum, datum, family, random_valid_profile, xor_of

S4 = ManifoldProfile("s4", 0, 2, 0)


def report(name: str, detail: str) -> None:
    print(f"{name}: PASS ({detail})")


def test_criterion_1_massey_sweep_on_the_sphere():
    """Single surfaces in the sphere profile: Obstructed exactly when |e| > 2g."""
    started = time.perf_counter()
    mismatches = 0
    checks = 0
    for g in range(1, 65):
        for e in range(-200, 201):
            verdict = excess_check(S4, family(datum(g, e))).verdict
            expected = (
                Verdict.OBSTRUCTED if abs(e) > 2 * g else Verdict.BOUND_SATISFIED
            )
            mismatches += verdict is not expected
            checks += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s, budget is 5s"
    report("criterion 1 massey sweep", f"{checks} checks, {elapsed:.2f}s")


def test_criterion_2_constructive_zero_sum_certificates():
    """10,000 random collections: certificate XORs to zero, size >= m - rank."""
    rng = random.Random(94111)
    started = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        k = rng.randint(1, 32)
        m = rng.randint(0, 64)
        collection = Gf2Collection(
            k, tuple(Gf2Vector(k, rng.getrandbits(k)) for _ in range(m))
        )
        cert = zero_sum_subcollection(collection)
        ok = (
            xor_of(collection, cert.indices) == 0
            and cert.size >= m - rank(collection)
        )
        failures += not ok
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget is 10s"
    report("criterion 2 zero-sum certificates", f"10000 collections, {elapsed:.2f}s")


def test_criterion_3_exact_solver_matches_brute_force():
    """1,000 random collections, m <= 18: size and tie-broken index set agree."""
    rng = random.Random(271)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1_000):
        m = rng.randint(1, 18)
        k = rng.randint(1, 24)
        collection = Gf2Collection(
            k, tuple(Gf2Vector(k, rng.getrandbits(k)) for _ in range(m))
        )
        cert = max_zero_sum_subset(collection)
        size, indices = brute_best_zero_sum(collection)
        mismatches += (cert.size, cert.sorted_indices()) != (size, indices)
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s, budget is 60s"
    report("criterion 3 exact-solver oracle", f"1000 instances, {elapsed:.2f}s")


def test_criterion_4_branched_cover_identities():
    """10,000 random valid pairs: signature, Euler, and rank-bound identities."""
    rng = random.Random(62831)
    failures = 0
    for _ in range(10_000):
        m = random_valid_profile(rng)
        g = rng.randint(1, 12)
        e = 2 * rng.randint(-40, 40)
        surface = TubedSurface(
            genus=g,
            euler_number=e,
            euler_characteristic=2 - g,
            mod2_class=Gf2Vector.zero(m.b2_f2),
        )
        cover = branched_double_cover(m, surface)
        ok = (
            2 * cover.sigma_n == 4 * m.signature - e
            and cover.sigma_n == 2 * m.signature - e // 2
            and cover.chi_n == 2 * m.euler_characteristic - (2 - g)
            and cover.b2_f2_upper
            == 2 * m.euler_characteristic + g - 4 + 4 * m.b1_f2
        )
        failures += not ok
        odd_surface = TubedSurface(
            genus=g,
            euler_number=e + 1,
            euler_characteristic=2 - g,
            mod2_class=Gf2Vector.zero(m.b2_f2),
        )
        with pytest.raises(OddEulerNumber):
            branched_double_cover(m, odd_surface)
    assert failures == 0
    report("criterion 4 cover identities", "10000 pairs, plus odd-e rejections")


def test_criterion_5_plane_budget_of_the_sphere():
    """B(s4) = 0, and one plane with |e| > 2 is Obstructed whenever D = b2 = 0."""
    assert plane_bound(S4) == 0
    zero_budget_profiles = [
        S4,
        ManifoldProfile("chi0-b1-1", 0, 0, 1),
        ManifoldProfile("chi-minus2-b1-2", 0, -2, 2),
    ]
    for profile in zero_budget_profiles:
        assert plane_bound(profile) == 0 and profile.b2_f2 == 0
        for e in (3, 4, -5, 200):
            audit = plane_family_audit(profile, family(datum(1, e)))
            assert audit.verdict is Verdict.OBSTRUCTED
    report("criterion 5 plane budgets", "B(s4)=0; 12 single-plane audits obstructed")


def test_criterion_6_traces_self_validate():
    """1,000 hypothesis-satisfying families: replay true, budget forms agree."""
    rng = random.Random(1729)
    failures = 0
    for _ in range(1_000):
        m = random_valid_profile(rng)
        dim = m.b2_f2
        size = rng.randint(1, 6)
        sign = rng.choice((1, -1))
        members = []
        acc = 0
        for position in range(size):
            bits = rng.getrandbits(dim) if dim else 0
            if position == size - 1:
                bits = acc  # force the class sum to vanish
            acc ^= bits
            members.append(
                SurfaceDatum(
                    genus=rng.randint(1, 8),
                    euler_number=sign * rng.randint(0, 25),
                    mod2_class=Gf2Vector(dim, bits),
                )
            )
        result = excess_check(m, SurfaceFamily(dim, tuple(members)))
        direct = (
            4 * abs(m.signature)
            + 8 * m.b1_f2
            + 4 * m.euler_characteristic
            - 8
        )
        via_b2 = 4 * (abs(m.signature) + m.b2_f2)
        ok = (
            result.verdict is not Verdict.HYPOTHESIS_FAILURE
            and result.trace.replay()
            and direct == via_b2 == result.rhs
        )
        failures += not ok
    assert failures == 0
    report("criterion 6 trace replay", "1000 families, all steps true")


def test_criterion_7_determinism_across_worker_counts():
    """Byte-identical solver, batch, and audit outputs for 1, 4, 16 workers."""
    rng = random.Random(40961)

    solver_corpus = []
    for _ in range(20):
        k = rng.randint(1, 24)
        m = rng.randint(21, 25)
        solver_corpus.append(
            Gf2Collection(k, tuple(Gf2Vector(k, rng.getrandbits(k)) for _ in range(m)))
        )
    solver_bytes = {
        workers: "\n".join(
            canonical_json(certificate_document(max_zero_sum_subset(c, workers=workers)))
            for c in solver_corpus
        )
        for workers in (1, 4, 16)
    }
    assert solver_bytes[1] == solver_bytes[4] == solver_bytes[16]

    profile = ManifoldProfile("two", 0, 4, 0)
    families = []
    for _ in range(200):
        size = rng.randint(1, 5)
        sign = rng.choice((1, -1))
        members = []
        acc = 0
        for position in range(size):
            bits = rng.getrandbits(2) if position < size - 1 else acc
            acc ^= bits
            members.append(
                SurfaceDatum(
                    genus=rng.randint(1, 6),
                    euler_number=sign * rng.randint(0, 20),
                    mod2_class=Gf2Vector(2, bits),
                )
            )
        families.append(SurfaceFamily(2, tuple(members)))
    batch_bytes = {
        workers: "\n".join(
            canonical_json(report_document(r))
            for r in batch_check(profile, families, workers=workers)
        )
        for workers in (1, 4, 16)
    }
    assert batch_bytes[1] == batch_bytes[4] == batch_bytes[16]

    planes = SurfaceFamily(
        2,
        tuple(
            SurfaceDatum(
                genus=1,
                euler_number=rng.randint(3, 9),
                mod2_class=Gf2Vector(2, rng.getrandbits(2)),
            )
            for _ in range(24)
        ),
    )
    audit_bytes = {
        workers: canonical_json(
            audit_document(
                plane_family_audit(profile, planes, use_exact=True, workers=workers)
            )
        )
        for workers in (1, 4, 16)
    }
    assert audit_bytes[1] == audit_bytes[4] == audit_bytes[16]
    report(
        "criterion 7 determinism",
        "20 solver instances, 200-family batch, exact audit",
    )
