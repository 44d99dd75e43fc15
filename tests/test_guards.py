"""The internal guards: each raises AssertionError when its invariant is broken.

Exit 1 means Obstructed and nothing else, so a broken invariant must never
reach a verdict. Each test breaks one invariant by patching the function it
rests on and checks that its guard refuses the result; through the CLI the
refusal is an internal error, exit 3.
"""

from __future__ import annotations

import pytest

from excess_kit import cli, engine, gf2
from excess_kit.engine import excess_check, plane_family_audit
from excess_kit.gf2 import Gf2Collection, SubsetCertificate, zero_sum_subcollection
from excess_kit.manifolds import ManifoldProfile
from helpers import datum, family

S4 = ManifoldProfile("s4", 0, 2, 0)
TWO = ManifoldProfile("two", 0, 4, 0)  # b2_f2 = 2


def test_an_untrue_trace_step_is_refused():
    with pytest.raises(AssertionError, match=r"^untrue step x: 1 <= 0$"):
        engine._TraceBuilder().add("x", 1, "<=", 0, "anchor")


def test_the_trace_has_one_entry_per_step():
    report = excess_check(S4, family(datum(1, 2)))
    assert len(report.trace) == len(report.trace.steps) > 0


def break_the_budget(monkeypatch):
    """Make every budget -1.

    For genus 1 and e 2 in s4, lhs 0 > -1 then, though the cover rank
    comparison is 2 vs 2 and does not fail.
    """
    monkeypatch.setattr(engine, "excess_budget", lambda m: -1)


def test_an_obstruction_without_a_failing_cover_comparison_is_refused(monkeypatch):
    break_the_budget(monkeypatch)
    with pytest.raises(AssertionError, match="^obstructed without a failing cover comparison$"):
        excess_check(S4, family(datum(1, 2)))


def test_the_cli_exits_3_not_1_on_a_refused_obstruction(monkeypatch, tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n", encoding="utf-8")
    break_the_budget(monkeypatch)
    code = cli.run(["check", "--manifold", "s4", "--family", str(path)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == (
        "internal error: AssertionError: obstructed without a failing cover comparison\n"
    )


def test_an_empty_exact_certificate_on_overflow_is_refused(monkeypatch):
    monkeypatch.setattr(
        engine, "max_zero_sum_subset", lambda classes, limit: SubsetCertificate(frozenset())
    )
    with pytest.raises(AssertionError, match="^exact certificate empty despite overflow$"):
        plane_family_audit(S4, family(datum(1, 4)), use_exact=True, effort_limit=1 << 10)


def test_a_subfamily_whose_classes_do_not_sum_to_zero_is_refused(monkeypatch):
    monkeypatch.setattr(
        engine, "zero_sum_subcollection", lambda classes: SubsetCertificate(frozenset({1}))
    )
    planes = family(datum(1, 4, "10"), datum(1, 4, "01"), datum(1, 4, "11"), dim=2)
    with pytest.raises(AssertionError, match="^zero-sum subfamily failed hypotheses$"):
        plane_family_audit(TWO, planes)


def test_a_certificate_that_does_not_xor_to_zero_is_refused(monkeypatch):
    monkeypatch.setattr(gf2._Eliminator, "insert", lambda self, mask: 0)
    with pytest.raises(AssertionError, match="^certificate does not XOR to zero$"):
        zero_sum_subcollection(Gf2Collection.from_strings(["10", "01"]))
