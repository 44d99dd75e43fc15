"""In-memory span tracing of the package's public functions.

`patch` rebinds every excess_kit module attribute that holds one of the
TRACED functions to a wrapper, so calls that cross modules (engine calling
`max_zero_sum_subset`, fileio calling `validate_profile`) nest as child
spans. Nothing in the package's source is edited, and the function `patch`
returns puts the originals back. Spans stay in memory until the run writes
them.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time
import types
from typing import Callable, NamedTuple

MODULES = ("fileio", "manifolds", "surfaces", "covers", "engine", "gf2", "reports", "cli")

TRACED = (
    "fileio.read_family_file",
    "fileio.load_catalog",
    "fileio.read_vector_file",
    "manifolds.validate_profile",
    "manifolds.excess_budget",
    "surfaces.tube",
    "covers.branched_double_cover",
    "engine.check_hypotheses",
    "engine.excess_check",
    "engine.plane_family_audit",
    "engine.batch_check",
    "gf2.zero_sum_subcollection",
    "gf2.max_zero_sum_subset",
    "reports.report_document",
    "reports.audit_document",
    "reports.canonical_json",
    "cli.run",
)


class Span(NamedTuple):
    op: int
    sid: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    self_ns: int
    error: str | None
    tag: str | None


def patch(make_wrapper: Callable[[str, Callable], Callable], names=TRACED) -> Callable[[], None]:
    """Rebind each named function, wherever a package module holds it.

    Returns the function that restores the originals.
    """
    modules = [importlib.import_module("excess_kit")] + [
        importlib.import_module(f"excess_kit.{m}") for m in MODULES
    ]
    wrappers = {}
    for qual in names:
        mod, attr = qual.split(".")
        fn = getattr(importlib.import_module(f"excess_kit.{mod}"), attr)
        wrappers[fn] = make_wrapper(qual, fn)
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))

    def restore() -> None:
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return restore


class Tracer:
    """Records one span per wrapped call, plus counts taken at the same calls.

    Spans of one operation share `op`; `tag` is the operation's regime or
    input type. Self time is the span's duration minus its children's.
    """

    def __init__(self, file_sizes: dict[str, int] | None = None):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.file_sizes = file_sizes or {}
        self._stack: list[list[int]] = []
        self._next = 0
        self.op = 0
        self.tag: str | None = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def run_op(self, tag: str, fn: Callable):
        """Run one operation under a root span named `op`, with a fresh id."""
        self.op += 1
        self.tag = tag
        return self.call("op", fn)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack
        if not stack and name != "op":
            # Outside an operation (the output checks): not part of any span.
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else None
        self._next += 1
        frame = [self._next, 0]
        stack.append(frame)
        error = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans.append(
                Span(self.op, frame[0], parent, name, start, end, end - start - frame[1], error, self.tag)
            )
        self._count(name, args, result)
        return result

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "fileio.read_family_file":
            c["fileio.bytes_parsed"] += self.file_sizes.get(args[0], 0)
            c["fileio.members_parsed"] += len(result[1])
        elif name == "fileio.read_vector_file":
            c["fileio.bytes_parsed"] += self.file_sizes.get(args[0], 0)
        elif name == "engine.excess_check":
            c["engine.trace_steps"] += len(result.trace)
            c[f"engine.verdict.{result.verdict.value}"] += 1
        elif name == "reports.canonical_json":
            c["reports.bytes_out"] += len(result)

    def write(self, path: str) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def file_sizes(root: str) -> dict[str, int]:
    """Sizes of every input file under root, for the bytes-parsed count."""
    sizes = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            sizes[p] = os.path.getsize(p)
    return sizes


BUSY = (
    "fileio.read_family_file",
    "fileio.load_catalog",
    "fileio.read_vector_file",
    "engine.batch_check",
    "engine.excess_check",
    "surfaces.tube",
    "engine.check_hypotheses",
    "engine.plane_family_audit",
    "gf2.zero_sum_subcollection",
    "reports.report_document",
    "reports.audit_document",
    "reports.canonical_json",
)
SELF = ("engine.excess_check", "engine.plane_family_audit")
CALLS = (
    "fileio.read_family_file",
    "fileio.load_catalog",
    "engine.excess_check",
    "covers.branched_double_cover",
    "manifolds.excess_budget",
    "manifolds.validate_profile",
    "gf2.zero_sum_subcollection",
    "gf2.max_zero_sum_subset",
)
COUNTS = (
    "fileio.bytes_parsed",
    "fileio.members_parsed",
    "engine.trace_steps",
    "engine.verdict.Obstructed",
    "engine.verdict.BoundSatisfied",
    "engine.verdict.HypothesisFailure",
    "reports.bytes_out",
)
COUNT_UNITS = {"fileio.bytes_parsed": "bytes/cycle", "reports.bytes_out": "bytes/cycle"}
SOLVER = "gf2.max_zero_sum_subset"


def layer_metrics(tracer: Tracer, cycles: int, regimes) -> dict[str, tuple[float, str]]:
    """Per-cycle busy time, self time and counts, keyed by metric name."""
    busy: collections.Counter = collections.Counter()
    self_t: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    solver_busy: collections.Counter = collections.Counter()
    refused = 0
    for s in tracer.spans:
        busy[s.name] += s.end_ns - s.start_ns
        self_t[s.name] += s.self_ns
        calls[s.name] += 1
        if s.name == SOLVER:
            solver_busy[s.tag] += s.end_ns - s.start_ns
            refused += s.error == "EffortExceeded"
    out: dict[str, tuple[float, str]] = {}
    for name in BUSY:
        out[f"{name}.busy_s"] = (busy[name] / 1e9 / cycles, "s/cycle")
    for name in SELF:
        out[f"{name}.self_s"] = (self_t[name] / 1e9 / cycles, "s/cycle")
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name] / cycles, "count/cycle")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / cycles, COUNT_UNITS.get(name, "count/cycle"))
    for regime in regimes:
        out[f"{SOLVER}.busy_s.{regime}"] = (solver_busy[regime] / 1e9 / cycles, "s/cycle")
    out[f"{SOLVER}.effort_exceeded"] = (refused / cycles, "count/cycle")
    n = calls[SOLVER]
    out[f"{SOLVER}.success_ratio"] = ((n - refused) / n if n else 0.0, "ratio")
    return out
