"""The benchmark's own tests, at tiny size.

Run from the repository root with `python -m pytest -q bench/tests`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import excess_kit
from excess_kit import engine
from excess_kit.engine import Verdict
from xkbench import gen, oracle, tracing
from xkbench.oracle import WrongOutput
from xkbench.worker import Checker, Loop, run_cycle, run_cycles
from xkbench.workloads import WORKLOADS

from conftest import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _workload(name: str, tmp_path, monkeypatch):
    spec = gen.generate(name, 5, str(tmp_path / name), tiny=True)
    with open(tmp_path / name / "ops.json", encoding="utf-8") as fh:
        light = json.load(fh)
    monkeypatch.setenv("EXCESS_KIT_CATALOG", spec["catalog"])
    return WORKLOADS[name](light), spec


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["screen", "exact", "cli"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in lines[:-1]), m["name"]
    if not trace:
        assert any(line.startswith("ops_failed_ratio ") for line in lines)


def test_missing_package_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "screen", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_flipped_verdict_is_caught(tmp_path, monkeypatch):
    workload, spec = _workload("screen", tmp_path, monkeypatch)
    real = engine.excess_check
    flip = {Verdict.OBSTRUCTED: Verdict.BOUND_SATISFIED, Verdict.BOUND_SATISFIED: Verdict.OBSTRUCTED}

    def flipped(m, family):
        report = real(m, family)
        return dataclasses.replace(report, verdict=flip.get(report.verdict, report.verdict))

    monkeypatch.setattr(engine, "excess_check", flipped)
    with pytest.raises(WrongOutput, match=r"workload screen, batch 0 .*verdict"):
        run_cycles(workload, Checker(workload, spec), 0, 0, inproc=False)


def test_non_zero_sum_certificate_is_caught(tmp_path, monkeypatch):
    workload, spec = _workload("exact", tmp_path, monkeypatch)

    def planted(collection, effort_limit=0, *, workers=1):
        first = next(i for i, v in enumerate(collection.vectors, start=1) if not v.is_zero)
        return excess_kit.SubsetCertificate(frozenset({first}))

    monkeypatch.setattr(excess_kit, "max_zero_sum_subset", planted)
    with pytest.raises(WrongOutput, match=r"workload exact, op \d+ .*does not XOR to zero"):
        run_cycles(workload, Checker(workload, spec), 0, 0, inproc=False)


def test_effort_exceeded_counts_as_failed_not_wrong(tmp_path, monkeypatch):
    workload, spec = _workload("exact", tmp_path, monkeypatch)
    loop = run_cycles(workload, Checker(workload, spec), 0, 0, inproc=False)
    over_budget = sum(o["regime"] == "over-budget" for o in spec["ops"])
    assert over_budget > 0
    assert loop.refused == over_budget
    assert loop.failed == 0
    assert loop.ok == loop.attempted - over_budget
    assert len(loop.samples) == loop.ok


def test_spans_link_to_parents_and_self_time_is_nonnegative(tmp_path, monkeypatch):
    workload, spec = _workload("exact", tmp_path, monkeypatch)
    tracer = tracing.Tracer()
    original = engine.max_zero_sum_subset
    restore = tracing.patch(tracer.wrap)
    try:
        run_cycle(workload, Checker(workload, spec), Loop(), inproc=False, tracer=tracer)
    finally:
        restore()
    assert engine.max_zero_sum_subset is original
    by_id = {s.sid: s for s in tracer.spans}
    assert all(s.self_ns >= 0 for s in tracer.spans)
    for s in tracer.spans:
        if s.name == "op":
            assert s.parent is None
        else:
            parent = by_id[s.parent]
            assert parent.op == s.op
            assert parent.start_ns <= s.start_ns and s.end_ns <= parent.end_ns
    solver_parents = {by_id[s.parent].name for s in tracer.spans if s.name == "gf2.max_zero_sum_subset"}
    assert solver_parents == {"op", "engine.plane_family_audit"}
    assert any(s.name == "manifolds.validate_profile" and by_id[s.parent].name == "engine.excess_check"
               for s in tracer.spans)


def test_screen_never_calls_the_exact_solver(tmp_path, monkeypatch):
    workload, spec = _workload("screen", tmp_path, monkeypatch)
    tracer = tracing.Tracer()
    restore = tracing.patch(tracer.wrap)
    try:
        run_cycle(workload, Checker(workload, spec), Loop(), inproc=True, tracer=tracer)
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer, 1, gen.REGIMES)
    assert metrics["gf2.max_zero_sum_subset.calls"][0] == 0
    assert metrics["gf2.zero_sum_subcollection.calls"][0] == len(workload.ops)
    verdicts = {v: metrics[f"engine.verdict.{v}"][0] for v in gen.VERDICTS}
    assert all(verdicts.values()), verdicts


def test_brute_force_oracle_picks_the_lex_least_largest_set():
    # 1 ^ 2 ^ 3 = 0 and 8 ^ 8 = 0: the largest zero-sum set is all five.
    assert oracle.brute_max_zero_sum([1, 2, 3, 8, 8]) == (1, 2, 3, 4, 5)
    # Any two of three equal vectors sum to zero; the lex-least pair wins.
    assert oracle.brute_max_zero_sum([3, 3, 3]) == (1, 2)
    assert oracle.brute_max_zero_sum([1, 2, 4]) == ()
