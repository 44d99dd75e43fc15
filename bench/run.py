"""Layered benchmark of excess-kit: screen, exact and cli workloads.

Run from the repository root:

    python3 bench/run.py --workload screen --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1        # every workload, untraced and traced

For one workload this generates its inputs from the seed under
.bench_work/, measures set-up in fresh processes, runs the workload in its
own process and prints each metric by name and unit, then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run. Any output that disagrees with
the oracles fails the command (exit 1) and names the workload and the
operation. The package is imported from src/, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("screen", "exact", "cli")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs and few samples, for the benchmark's own tests")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "excess_kit", "__init__.py")):
        print(f"bench: no package source at {src}/excess_kit; run from the repository root", file=sys.stderr)
        return 2
    bench = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, bench)
    if args.workload == "all":
        return _run_all(args)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench]))
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny, root, env)


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, timeout=2 * WORKER_TIMEOUT_S)
            status = status or proc.returncode
    return status


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool, root: str, env: dict) -> int:
    from xkbench import gen

    # One directory per workload and mode, replaced by each run, so that
    # runs over many seeds do not pile up inputs and span files.
    work = os.path.join(root, ".bench_work", f"{workload}-t{trace}")
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(workload, seed, work, tiny=tiny)
    worker = [sys.executable, "-m", "xkbench.worker", "--workload", workload, "--dir", work]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            start = time.monotonic_ns()
            proc = subprocess.run(worker + ["--seconds", "0", "--setup-only"], env=env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                print(f"bench: workload {workload}: set-up failed", file=sys.stderr)
                return 1
            setup.append(_ready_ns(proc.stdout) - start)
    start = time.monotonic_ns()
    cmd = worker + ["--seconds", str(seconds), "--trace", str(trace)] + (["--min-ok", "10"] if tiny else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: workload {workload}: worker killed after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[0].startswith("ready "):
        print(f"bench: workload {workload}: worker exited with {proc.returncode} before set-up ended", file=sys.stderr)
        return 1
    setup.append(_ready_ns(proc.stdout) - start)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"bench: workload {workload}: worker exited with {proc.returncode} without a result", file=sys.stderr)
        return 1
    header = (f"# workload {workload} seed {seed} seconds {seconds:g} trace {trace}: nproc {os.cpu_count()}, "
              f"machine {platform.machine()}, python {platform.python_version()}")
    print(header)
    if "wrong" in result:
        print(f"WRONG OUTPUT: {result['wrong']}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for err in result["errors"]:
        print(f"failed operation: {err}")
    metrics = _layer_lines(result) if trace else _end_to_end_lines(workload, result, setup)
    print(f"digest sha256:{result['digest']} (first cycle, operation order)")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _ready_ns(stdout: str) -> int:
    return int(stdout.splitlines()[0].split()[1])


def _end_to_end_lines(workload: str, r: dict, setup_ns: list[int]) -> dict:
    attempted = r["attempted"]
    not_verified = r["refused"] + r["failed"]
    metrics = {
        "ops_per_s": (r["ops_per_s"], "1/s"),
        "op_ms_p50": (r["p50"], "ms"),
        "op_ms_p90": (r["p90"], "ms"),
        "ops_ok_ratio": (r["ok"] / attempted, "ratio"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
    }
    regime = workload == "exact"
    notes = {
        "ops_per_s": f"{r['ok']} verified operations in {r['timed_s']:.2f} s timed, {r['cycles']} cycles",
        "op_ms_p50": f"n={r['n']}" + (f", regime {r['tag_p50']}" if regime else ""),
        "op_ms_p90": f"n={r['n']}, {r['beyond']} beyond" + (f", regime {r['tag_p90']}" if regime else ""),
        "ops_ok_ratio": f"{r['ok']} of {attempted}",
        "peak_rss_mb": "largest child process" if workload == "cli" else "workload process",
        "setup_s": f"median of {len(setup_ns)} fresh processes",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<17} {value:.6g} {unit}  ({notes[name]})")
    print(f"{'ops_failed_ratio':<17} {not_verified / attempted:.6g} ratio  "
          f"({not_verified} of {attempted} without a verified result: EffortExceeded {r['refused']}, "
          f"errors {r['failed']})")
    return metrics


def _layer_lines(r: dict) -> dict:
    metrics = {name: tuple(vu) for name, vu in r["layers"].items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    print(f"(per traced cycle, over {r['cycles']} cycles; {r['spans']} spans kept in memory, written to spans.jsonl)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
