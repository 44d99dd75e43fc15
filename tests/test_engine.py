"""Verdicts, proof traces, the plane-family audit, and batch determinism."""

from __future__ import annotations

import random

import pytest

from excess_kit.engine import (
    TraceStep,
    Verdict,
    batch_check,
    check_hypotheses,
    excess_check,
    plane_family_audit,
)
from excess_kit.errors import (
    DimensionMismatch,
    EffortExceeded,
    EulerTooSmall,
    NotAPlaneFamily,
    SignatureExceedsRank,
)
from excess_kit.gf2 import Gf2Vector
from excess_kit.manifolds import ManifoldProfile, excess_budget
from excess_kit.surfaces import SignClass, SurfaceDatum, SurfaceFamily

from helpers import datum, family, random_family, random_valid_profile

S4 = ManifoldProfile("s4", 0, 2, 0)


class TestCheckHypotheses:
    def test_sphere_family_vacuous_classes(self):
        rec = check_hypotheses(S4, family(datum(1, 2), datum(1, 2)))
        assert rec.sign is SignClass.NON_NEGATIVE
        assert rec.class_sum.is_zero
        assert rec.both_hold and rec.failing() is None

    def test_mixed_signs(self):
        p = ManifoldProfile("two", 0, 4, 0)
        rec = check_hypotheses(
            p, family(datum(1, 2, "00"), datum(1, -4, "00"), dim=2)
        )
        assert rec.sign is SignClass.MIXED
        assert not rec.both_hold
        assert rec.failing() == "same-sign"

    def test_class_sum_failure(self):
        p = ManifoldProfile("two", 0, 4, 0)
        rec = check_hypotheses(
            p, family(datum(1, 2, "10"), datum(1, 2, "01"), dim=2)
        )
        assert rec.class_sum.to01() == "11"
        assert rec.failing() == "class-sum"

    def test_both_fail(self):
        p = ManifoldProfile("two", 0, 4, 0)
        rec = check_hypotheses(
            p, family(datum(1, 2, "10"), datum(1, -2, "01"), dim=2)
        )
        assert rec.failing() == "same-sign+class-sum"

    def test_dimension_mismatch(self):
        message = "family classes live in dimension 1, profile s4 has b2_f2 = 0"
        with pytest.raises(DimensionMismatch) as err:
            check_hypotheses(S4, family(datum(1, 2, "1"), dim=1))
        assert str(err.value) == message
        with pytest.raises(DimensionMismatch) as err:
            plane_family_audit(S4, family(datum(1, 4, "1"), dim=1))
        assert str(err.value) == message


class TestExcessCheck:
    def test_sphere_examples(self):
        r = excess_check(S4, family(datum(2, 8)))
        assert r.verdict is Verdict.OBSTRUCTED
        assert (r.lhs, r.rhs) == (4, 0)

        r2 = excess_check(S4, family(datum(1, 2)))
        assert r2.verdict is Verdict.BOUND_SATISFIED
        assert (r2.lhs, r2.rhs) == (0, 0)

        r3 = excess_check(S4, family(datum(1, 2), datum(1, -2)))
        assert r3.verdict is Verdict.HYPOTHESIS_FAILURE
        assert r3.failed_hypothesis == "same-sign"

    def test_invalid_profile_propagates(self):
        with pytest.raises(SignatureExceedsRank):
            excess_check(ManifoldProfile("bad", 3, 3, 0), family(datum(1, 2, "1"), dim=1))

    def test_trace_replays_and_budget_matches(self):
        rng = random.Random(331)
        for _ in range(150):
            m = random_valid_profile(rng)
            f = random_family(
                rng,
                dim=m.b2_f2,
                size=rng.randint(1, 5),
                same_sign=True,
                zero_class_sum=True,
            )
            report = excess_check(m, f)
            assert report.verdict in (Verdict.BOUND_SATISFIED, Verdict.OBSTRUCTED)
            assert report.trace.replay()
            assert report.rhs == excess_budget(m)
            assert report.lhs == sum(
                abs(s.euler_number) - 2 * s.genus for s in f.members
            )
            labels = [s.label for s in report.trace]
            assert labels.count("excess-vs-budget") == 1
            assert "budget-forms-agree" in labels

    def test_obstructed_iff_lhs_exceeds_rhs(self):
        rng = random.Random(97)
        for _ in range(200):
            m = random_valid_profile(rng, spread=3)
            f = random_family(
                rng, dim=m.b2_f2, size=rng.randint(1, 4),
                same_sign=True, zero_class_sum=True, max_abs_e=30,
            )
            report = excess_check(m, f)
            if report.lhs > report.rhs:
                assert report.verdict is Verdict.OBSTRUCTED
            else:
                assert report.verdict is Verdict.BOUND_SATISFIED

    def test_obstruction_always_carries_failing_cover_comparison(self):
        rng = random.Random(53)
        seen = 0
        for _ in range(400):
            m = random_valid_profile(rng, spread=2)
            f = random_family(
                rng, dim=m.b2_f2, size=rng.randint(1, 3),
                same_sign=True, zero_class_sum=True, max_abs_e=60,
            )
            report = excess_check(m, f)
            if report.verdict is not Verdict.OBSTRUCTED:
                continue
            seen += 1
            step = next(
                s for s in report.trace if s.label == "cover-signature-vs-rank"
            )
            assert step.rel == ">=" and step.lhs > step.rhs
        assert seen > 20  # the sweep must actually exercise obstructions

    def test_odd_euler_numbers_get_verdicts_not_errors(self):
        r = excess_check(S4, family(datum(1, 3)))
        assert r.verdict is Verdict.OBSTRUCTED
        assert any("doubled form" in n for n in r.notes)
        r2 = excess_check(S4, family(datum(2, 3)))
        assert r2.verdict is Verdict.BOUND_SATISFIED
        assert r2.trace.replay()

    def test_even_euler_traces_include_integer_cover_steps(self):
        r = excess_check(S4, family(datum(1, 2)))
        labels = {s.label for s in r.trace}
        assert {"cover-signature", "ramification-euler", "signature-defect"} <= labels

    def test_interim_violation_with_final_bound_holding(self):
        # |2 sigma(N)| can exceed the doubled rank bound while the final
        # excess comparison still passes; verdict follows the final bound
        p = ManifoldProfile("cp2-like", 1, 3, 0)
        r = excess_check(p, family(datum(1, -4, "0"), dim=1))
        assert r.verdict is Verdict.BOUND_SATISFIED
        assert (r.lhs, r.rhs) == (2, 8)
        step = next(s for s in r.trace if s.label == "cover-signature-vs-rank")
        assert step.lhs > step.rhs
        assert r.trace.replay()
        assert any("although the final excess bound holds" in n for n in r.notes)

    def test_zero_excess_append_never_flips_to_obstructed(self):
        rng = random.Random(17)
        for _ in range(100):
            m = random_valid_profile(rng, spread=3)
            f = random_family(
                rng, dim=m.b2_f2, size=rng.randint(1, 4),
                same_sign=True, zero_class_sum=True,
            )
            before = excess_check(m, f)
            side = 1 if all(s.euler_number >= 0 for s in f.members) else -1
            g = rng.randint(1, 4)
            extra = SurfaceDatum(
                genus=g,
                euler_number=side * 2 * g,
                mod2_class=Gf2Vector.zero(m.b2_f2),
            )
            after = excess_check(
                m, SurfaceFamily(m.b2_f2, f.members + (extra,))
            )
            assert after.lhs == before.lhs
            if before.verdict is Verdict.BOUND_SATISFIED:
                assert after.verdict is Verdict.BOUND_SATISFIED

    def test_hypothesis_failure_trace_is_tubing_only(self):
        r = excess_check(S4, family(datum(1, 2), datum(1, -4)))
        assert r.verdict is Verdict.HYPOTHESIS_FAILURE
        assert [s.label for s in r.trace] == [
            "tubed-genus",
            "tubed-euler-number",
            "tubed-euler-characteristic",
        ]
        assert r.trace.replay()

    def test_trace_step_rejects_an_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation '<'"):
            TraceStep("x", 1, "<", 2, "anchor")

    @pytest.mark.parametrize(
        "members",
        [
            [(1, 2, "00"), (1, 6, "00")],  # both hypotheses hold
            [(1, 2, "00"), (1, -6, "00")],  # mixed signs
            [(1, -2, "10"), (2, 6, "00")],  # nonzero class sum
            [(1, 10, "11"), (1, 4, "11"), (2, 6, "00")],  # obstructed
        ],
    )
    def test_a_column_family_is_checked_without_building_members(self, members):
        profile = ManifoldProfile("two", 0, 4, 0)
        columns = SurfaceFamily._from_columns(
            2,
            tuple([g for g, _, _ in members]),
            tuple([e for _, e, _ in members]),
            tuple([Gf2Vector.from_string(c).bits for _, _, c in members]),
        )
        twin = family(*(datum(g, e, c) for g, e, c in members), dim=2)
        assert excess_check(profile, columns) == excess_check(profile, twin)
        assert "members" not in vars(columns)


class TestPlaneFamilyAudit:
    def test_single_plane_on_sphere(self):
        audit = plane_family_audit(S4, family(datum(1, 4)))
        assert audit.verdict is Verdict.OBSTRUCTED
        assert audit.member_count == 1
        assert audit.b_of_m == 0
        assert audit.zero_sum_indices == (1,)
        assert audit.subfamily_report is not None
        assert audit.subfamily_report.verdict is Verdict.OBSTRUCTED
        count_step = audit.trace.steps[0]
        assert (count_step.lhs, count_step.rhs) == (1, 0)

    def test_count_bound_alone_obstructs(self):
        # 19 same-sign planes against B = 18
        p = ManifoldProfile("cp2-like", 1, 3, 0)
        members = tuple(datum(1, 4, "0") for _ in range(19))
        audit = plane_family_audit(p, SurfaceFamily(1, members))
        assert audit.b_of_m == 18
        assert audit.verdict is Verdict.OBSTRUCTED

    def test_non_plane_rejected(self):
        with pytest.raises(NotAPlaneFamily):
            plane_family_audit(S4, family(datum(2, 8)))

    def test_small_euler_rejected(self):
        with pytest.raises(EulerTooSmall):
            plane_family_audit(S4, family(datum(1, 2)))
        with pytest.raises(EulerTooSmall):
            plane_family_audit(S4, family(datum(1, -1)))

    def test_refused_certificate_numbers_the_majority(self):
        # Members 2-7 are the majority; the refusal's certificate counts
        # them 1-6, while the audit itself reports family positions.
        p = ManifoldProfile("two", 0, 4, 0)
        planes = family(datum(1, 3, "00"), *(datum(1, -3, "00") for _ in range(6)), dim=2)
        audit = plane_family_audit(p, planes)
        assert audit.majority_indices == audit.zero_sum_indices == (2, 3, 4, 5, 6, 7)
        with pytest.raises(EffortExceeded) as err:
            plane_family_audit(p, planes, use_exact=True, effort_limit=1)
        assert err.value.certificate.sorted_indices() == (1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("use_exact", [False, True], ids=["constructive", "exact"])
    @pytest.mark.parametrize("size", [1, 3], ids=["fits-the-rank", "overflows"])
    def test_a_negative_effort_limit_is_refused_on_every_path(self, size, use_exact):
        # b2_f2 = 2: one plane fits inside the mod-2 rank, three overflow it.
        p = ManifoldProfile("two", 0, 4, 0)
        planes = family(*(datum(1, 4, "10") for _ in range(size)), dim=2)
        audit = plane_family_audit(p, planes, use_exact=use_exact)
        assert (audit.zero_sum_indices is None) is (size == 1)
        for audited in (planes, family(datum(2, 8, "01"), dim=2)):
            with pytest.raises(ValueError) as info:
                plane_family_audit(p, audited, use_exact=use_exact, effort_limit=-5)
            assert type(info.value) is ValueError
            assert str(info.value) == "effort_limit must be nonnegative"

    def test_majority_tie_breaks_nonnegative(self):
        p = ManifoldProfile("two", 0, 4, 0)
        audit = plane_family_audit(
            p, family(datum(1, 4, "10"), datum(1, -4, "01"), dim=2)
        )
        assert audit.majority_sign is SignClass.NON_NEGATIVE
        assert audit.majority_indices == (1,)

    def test_majority_fits_in_rank_skips_zero_sum(self):
        p = ManifoldProfile("two", 0, 4, 0)
        audit = plane_family_audit(
            p, family(datum(1, 4, "10"), datum(1, -4, "01"), dim=2)
        )
        assert audit.zero_sum_indices is None
        assert audit.subfamily_report is None
        assert audit.verdict is Verdict.BOUND_SATISFIED
        assert any("fits inside the mod-2 rank" in n for n in audit.notes)

    def test_zero_sum_subfamily_never_fails_hypotheses(self):
        rng = random.Random(73)
        for _ in range(120):
            m = random_valid_profile(rng, spread=2)
            size = rng.randint(1, 8)
            sign = rng.choice((1, -1))
            members = tuple(
                SurfaceDatum(
                    genus=1,
                    euler_number=sign * rng.randint(3, 9),
                    mod2_class=Gf2Vector(
                        m.b2_f2, rng.getrandbits(m.b2_f2) if m.b2_f2 else 0
                    ),
                )
                for _ in range(size)
            )
            audit = plane_family_audit(m, SurfaceFamily(m.b2_f2, members))
            assert audit.trace.replay()
            if audit.subfamily_report is not None:
                assert (
                    audit.subfamily_report.verdict is not Verdict.HYPOTHESIS_FAILURE
                )
                n = len(audit.zero_sum_indices)
                assert n >= len(audit.majority_indices) - m.b2_f2
                assert n >= 1

    def test_exact_flag_never_shrinks_the_subfamily(self):
        rng = random.Random(41)
        for _ in range(40):
            m = random_valid_profile(rng, spread=2)
            size = rng.randint(1, 8)
            members = tuple(
                SurfaceDatum(
                    genus=1,
                    euler_number=rng.randint(3, 9),
                    mod2_class=Gf2Vector(
                        m.b2_f2, rng.getrandbits(m.b2_f2) if m.b2_f2 else 0
                    ),
                )
                for _ in range(size)
            )
            planes = SurfaceFamily(m.b2_f2, members)
            plain = plane_family_audit(m, planes)
            exact = plane_family_audit(m, planes, use_exact=True)
            assert exact.exact_used and not plain.exact_used
            if plain.zero_sum_indices is not None:
                assert len(exact.zero_sum_indices) >= len(plain.zero_sum_indices)
            assert exact.verdict in (Verdict.OBSTRUCTED, Verdict.BOUND_SATISFIED)


class TestBatchCheck:
    def test_order_and_worker_independence(self):
        rng = random.Random(1009)
        m = ManifoldProfile("two", 0, 4, 0)
        families = [
            random_family(
                rng, dim=2, size=rng.randint(1, 4),
                same_sign=True, zero_class_sum=True,
            )
            for _ in range(40)
        ]
        sequential = batch_check(m, families, workers=1)
        for w in (4, 16):
            parallel = batch_check(m, families, workers=w)
            assert parallel == sequential
        for f, report in zip(families, sequential):
            assert report == excess_check(m, f)
