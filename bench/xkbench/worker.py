"""One workload in its own process: set-up, the timed loop, the traced run.

    PYTHONPATH=src:bench python -m xkbench.worker --workload W --dir D \\
        --seconds S --trace 0|1 [--setup-only] [--min-ok N]

D holds the inputs `gen.generate` wrote. The process prints
`ready <monotonic_ns>` once set-up is done: the interpreter has started,
excess_kit is imported, the catalog is loaded and one warm-up operation
has run. With --setup-only it then exits. Otherwise it runs whole cycles
over the workload's operations, one client in a closed loop, and prints
one JSON line with the raw results.

Each operation's first outcome is checked against the oracles; every later
outcome of the same operation must have the same bytes. Checks run between
operations, outside the timed intervals. Modules needed only after set-up
are imported late, so that set-up time is the package's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--min-ok", type=int, default=110)
    args = p.parse_args(argv)

    from .workloads import WORKLOADS

    with open(os.path.join(args.dir, "ops.json"), encoding="utf-8") as fh:
        light = json.load(fh)
    os.environ["EXCESS_KIT_CATALOG"] = light["catalog"]
    workload = WORKLOADS[args.workload](light)
    workload.ops[0].run()
    print("ready", time.monotonic_ns(), flush=True)
    if args.setup_only:
        return 0

    from .oracle import WrongOutput

    with open(os.path.join(args.dir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = measure(workload, spec, args.seconds, args.trace, args.dir, args.min_ok)
    except WrongOutput as exc:
        print(json.dumps({"wrong": str(exc)}), flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


class Checker:
    """Full oracle check on an operation's first outcome, byte equality after."""

    def __init__(self, workload, spec: dict):
        self.workload = workload
        self.spec = spec
        self.first: dict[int, tuple[str, bytes]] = {}

    def __call__(self, i: int, outcome) -> None:
        import hashlib

        from .oracle import WrongOutput

        key = (outcome.status, hashlib.sha256(outcome.output).digest())
        label = f"workload {self.workload.name}, {self.workload.ops[i].label}"
        seen = self.first.get(i)
        if seen is None:
            try:
                self.workload.check(self.spec, i, outcome)
            except WrongOutput as exc:
                raise WrongOutput(f"{label}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise WrongOutput(f"{label}: malformed output ({type(exc).__name__}: {exc})") from None
            self.first[i] = key
        elif seen != key:
            raise WrongOutput(f"{label}: output differs from the first run of the same operation")

    def digest(self) -> str:
        """sha256 over the operations' output digests, in operation order."""
        import hashlib

        h = hashlib.sha256()
        for i in range(len(self.workload.ops)):
            h.update(self.first[i][1])
        return h.hexdigest()


class Loop:
    """Counts and latencies of one timed loop."""

    def __init__(self):
        self.attempted = self.ok = self.refused = self.failed = self.cycles = 0
        self.timed = 0.0
        self.samples: list[tuple[float, str]] = []
        self.errors: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return self.ok / self.timed if self.timed else 0.0


def run_cycle(workload, check: Checker, loop: Loop, inproc: bool, tracer=None) -> None:
    """One pass over the operations, one client in a closed loop."""
    clock = time.perf_counter
    for i, op in enumerate(workload.ops):
        fn = op.inproc if inproc else op.run
        start = clock()
        try:
            outcome = tracer.run_op(op.tag, fn) if tracer else fn()
        except Exception as exc:  # an operation that raises is a failed operation
            loop.timed += clock() - start
            loop.attempted += 1
            loop.failed += 1
            loop.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - start
        loop.timed += elapsed
        loop.attempted += 1
        check(i, outcome)
        if outcome.status == "ok":
            loop.ok += 1
            loop.samples.append((elapsed * 1e3, op.tag))
        else:
            loop.refused += 1
    loop.cycles += 1


def run_cycles(workload, check: Checker, seconds: float, min_ok: int, inproc: bool) -> Loop:
    """Whole cycles until `seconds` of timed wall time.

    Runs on until at least `min_ok` operations have succeeded, so that p90
    has ten samples beyond it, but never past four times `seconds`.
    """
    loop = Loop()
    while True:
        run_cycle(workload, check, loop, inproc)
        if loop.timed >= seconds and (loop.ok >= min_ok or loop.timed >= 4 * seconds):
            return loop


def run_traced(workload, check: Checker, seconds: float, tracer) -> tuple[Loop, Loop]:
    """Untraced and traced cycles in turn, `seconds` of timed wall time in all.

    Alternating makes a drift in machine speed during the run move both
    rates alike, so their ratio is the tracing overhead.
    """
    from . import tracing

    plain, traced = Loop(), Loop()
    while plain.timed + traced.timed < seconds or not traced.cycles:
        run_cycle(workload, check, plain, inproc=True)
        restore = tracing.patch(tracer.wrap)
        try:
            run_cycle(workload, check, traced, inproc=True, tracer=tracer)
        finally:
            restore()
    return plain, traced


def percentiles(samples: list[tuple[float, str]]) -> dict:
    """p50 and p90 over successful latencies, with the tag each falls on."""
    import statistics

    ordered = sorted(samples)
    values = [v for v, _ in ordered]
    out = {"n": len(values)}
    if len(values) < 2:
        v = values[0] if values else 0.0
        return dict(out, p50=v, p90=v, beyond=0, tag_p50="", tag_p90="")
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    for name, q, cut in (("p50", 0.5, cuts[4]), ("p90", 0.9, cuts[8])):
        pos = (len(values) - 1) * q
        tags = {ordered[int(pos)][1], ordered[min(int(pos) + 1, len(values) - 1)][1]}
        out[name] = cut
        out[f"tag_{name}"] = "/".join(sorted(tags))
    out["beyond"] = sum(v > out["p90"] for v in values)
    return out


def _peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload, spec: dict, seconds: float, trace: int, root: str, min_ok: int) -> dict:
    check = Checker(workload, spec)
    if hasattr(workload, "prepare"):
        workload.prepare(spec)
    if not trace:
        loop = run_cycles(workload, check, seconds, min_ok, inproc=False)
        return {
            "attempted": loop.attempted,
            "ok": loop.ok,
            "refused": loop.refused,
            "failed": loop.failed,
            "cycles": loop.cycles,
            "timed_s": loop.timed,
            "ops_per_s": loop.ops_per_s,
            "errors": loop.errors[:5],
            **percentiles(loop.samples),
            "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli"),
            "digest": check.digest(),
        }
    from . import tracing
    from .gen import REGIMES

    tracer = tracing.Tracer(tracing.file_sizes(root))
    plain, traced = run_traced(workload, check, seconds, tracer)
    tracer.write(os.path.join(root, "spans.jsonl"))
    layers = tracing.layer_metrics(tracer, traced.cycles, REGIMES)
    layers["gf2.max_zero_sum_subset.peak_alloc_mb"] = (_solver_peak_alloc_mb(workload), "MB")
    layers.update(_startup_ms())
    run_ms = percentiles(plain.samples)["p50"] if workload.name == "cli" else 0.0
    layers["cli.run_ms"] = (run_ms, "ms")
    layers["trace.ops_per_s_untraced"] = (plain.ops_per_s, "1/s")
    layers["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
    overhead = 1 - traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": (plain.errors + traced.errors)[:5],
        "cycles": traced.cycles,
        "spans": len(tracer.spans),
        "layers": layers,
        "digest": check.digest(),
    }


def _solver_peak_alloc_mb(workload) -> float:
    """Largest tracemalloc peak inside one max_zero_sum_subset call, one cycle."""
    import tracemalloc

    from . import tracing

    peaks = []

    def measured(name, fn):
        def call(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return call

    restore = tracing.patch(measured, ["gf2.max_zero_sum_subset"])
    tracemalloc.start()
    try:
        for op in workload.ops:
            try:
                op.inproc()
            except Exception:  # counted and reported by the timed loops
                pass
    finally:
        tracemalloc.stop()
        restore()
    return max(peaks, default=0) / 2**20


def _startup_ms(reps: int = 9) -> dict:
    """Median start-up of a bare interpreter and of `import excess_kit.cli`.

    The two kinds of process alternate, so a drift in machine speed moves
    both medians alike. The waits take no timeout: with one, Popen.wait
    polls with sleeps of up to 50 ms, which would round every sample up.
    """
    import statistics
    import subprocess

    samples: dict[str, list[float]] = {"pass": [], "import excess_kit.cli": []}
    for _ in range(reps):
        for code, times in samples.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append((time.perf_counter() - start) * 1e3)
    interpreter = statistics.median(samples["pass"])
    return {
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (statistics.median(samples["import excess_kit.cli"]) - interpreter, "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
