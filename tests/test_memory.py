"""Repeated calls keep memory flat: a call leaves nothing behind for the next.

A screening caller audits many families in one long-running process, so
each public per-call operation is warmed up and then run many more times,
and the number of blocks the interpreter has allocated
(`sys.getallocatedblocks()`) may not grow with the number of calls.

On CPython, tuple() over a generator or an iterator such as map() allocates
a guessed length and resizes the result to fit, so the tuple is freed to
the free list of a different size from the one it was taken from. Each call then takes a
fresh block and parks one more tuple on a free list, up to 2,000 per size,
and the process grows with the number of calls. The package builds every
tuple from a list, and this test pins that.

The inputs keep every tuple below 20 items: CPython frees a 20-item tuple
to a free list that it takes from only for shorter tuples, so any workload
fills that list whatever the package does. The cyclic collector is paused
while an operation runs, because a full collection empties the free lists
and would hide the growth this test looks for; a young-generation
collection after each call frees the call's reference cycles (argparse
makes some) without touching the free lists.
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys

import pytest

from excess_kit import cli, reports
from excess_kit.engine import batch_check, check_hypotheses, excess_check, plane_family_audit
from excess_kit.fileio import read_family_file, read_vector_file
from excess_kit.gf2 import (
    Gf2Collection,
    Gf2Vector,
    greedy_basis,
    max_zero_sum_subset,
    zero_sum_subcollection,
)
from excess_kit.manifolds import ManifoldProfile
from excess_kit.surfaces import SurfaceFamily, sign_class, tube

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="counts CPython's allocated blocks"
)

WARM_UP = 50
CALLS = 1000
# Every operation measures 2 blocks on CPython 3.11 (the measurement's own
# ints); a tuple built from a generator leaves one block per call, so CALLS
# calls of any such operation read far above this.
SLACK = 50

# b2_f2 = 4, D = 16, B = 40.
PROFILE = ManifoldProfile("flat", signature=0, euler_characteristic=6, b1_f2=0)
PROFILE_TEXT = "name: flat\nsignature: 0\neuler_characteristic: 6\nb1_f2: 0\n"

# Seven same-sign members whose classes XOR to zero: both hypotheses hold,
# so excess_check records its whole trace.
MEMBERS = [
    (1, 3, "1000"), (2, 5, "0100"), (1, 7, "1100"), (3, 4, "0010"),
    (1, 9, "0001"), (2, 6, "0011"), (1, 3, "0000"),
]
# Thirteen planes: nine with e > 0 (the majority, over b2_f2 = 4, so a
# zero-sum subfamily is forced) and four with e < 0.
PLANES = [(1, 3 + i, format(i % 16, "04b")) for i in range(1, 10)] + [
    (1, -3 - i, format(i, "04b")) for i in range(4)
]
# Eleven vectors of dimension 4.
VECTORS = [format((5 * i + 3) % 16, "04b") for i in range(11)]


def family_text(members, ambient: str, comments: bool = False) -> str:
    note = "# a comment sends the file to the line scan\n" if comments else ""
    blocks = "".join(
        f"[surface]\n{note}genus: {g}\neuler_number: {e}\nclass: {c}\n" for g, e, c in members
    )
    return f"ambient: {ambient}\n{blocks}"


def family_of(members) -> SurfaceFamily:
    return SurfaceFamily._from_columns(
        4,
        tuple([g for g, _, _ in members]),
        tuple([e for _, e, _ in members]),
        tuple([Gf2Vector.from_string(c).bits for _, _, c in members]),
    )


class Inputs:
    """Files under a test's directory, and the values the operations take."""

    def __init__(self, tmp_path):
        profile_path = tmp_path / "flat.txt"
        profile_path.write_text(PROFILE_TEXT, encoding="utf-8")
        self.ambient = str(profile_path)
        for name, text in [
            ("plain", family_text(MEMBERS, self.ambient)),
            ("scanned", family_text(MEMBERS, self.ambient, comments=True)),
            ("planes", family_text(PLANES, self.ambient)),
            ("vectors", "".join(line + "\n" for line in VECTORS)),
        ]:
            path = tmp_path / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            setattr(self, f"{name}_path", str(path))
        self.family, self.planes = family_of(MEMBERS), family_of(PLANES)
        self.families = [family_of(MEMBERS[:k]) for k in range(1, len(MEMBERS) + 1)]
        self.collection = Gf2Collection(4, tuple([Gf2Vector.from_string(v) for v in VECTORS]))
        self.report = excess_check(PROFILE, self.family)
        self.audit = plane_family_audit(PROFILE, self.planes)


def cli_run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(list(argv))


# Each public per-call operation, as a call on the inputs.
OPERATIONS = {
    "read_family_file plain": lambda x: read_family_file(x.plain_path),
    "read_family_file scanned": lambda x: read_family_file(x.scanned_path),
    "read_vector_file": lambda x: read_vector_file(x.vectors_path),
    "tube": lambda x: tube(x.family),
    "sign_class": lambda x: sign_class(x.family),
    "check_hypotheses": lambda x: check_hypotheses(PROFILE, x.family),
    "excess_check": lambda x: excess_check(PROFILE, x.family),
    "batch_check": lambda x: batch_check(PROFILE, x.families),
    "plane_family_audit": lambda x: plane_family_audit(PROFILE, x.planes),
    "plane_family_audit exact": lambda x: plane_family_audit(PROFILE, x.planes, use_exact=True),
    "greedy_basis": lambda x: greedy_basis(x.collection),
    "zero_sum_subcollection": lambda x: zero_sum_subcollection(x.collection),
    "max_zero_sum_subset": lambda x: max_zero_sum_subset(x.collection),
    "report_document": lambda x: reports.canonical_json(reports.report_document(x.report)),
    "audit_document": lambda x: reports.canonical_json(reports.audit_document(x.audit)),
    "cli check": lambda x: cli_run(
        "check", "--manifold", x.ambient, "--family", x.plain_path, "--format", "json"
    ),
    "cli audit --exact": lambda x: cli_run(
        "audit", "--manifold", x.ambient, "--planes", x.planes_path, "--exact"
    ),
}


# The type attribute cache keeps a reference to each name it has looked up,
# up to 4,096 names; argparse looks up a new string per parser it builds.
clear_type_cache = getattr(sys, "_clear_internal_caches", None) or sys._clear_type_cache


def block_growth(operation, warm_up: int = WARM_UP, calls: int = CALLS) -> int:
    """Blocks allocated over `calls` calls that follow `warm_up` calls."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(warm_up):
            operation()
            gc.collect(0)
        clear_type_cache()
        before = sys.getallocatedblocks()
        for _ in range(calls):
            operation()
            gc.collect(0)
        clear_type_cache()
        return sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", OPERATIONS)
def test_repeated_calls_keep_allocated_blocks_flat(tmp_path, name):
    inputs, operation = Inputs(tmp_path), OPERATIONS[name]
    growth = block_growth(lambda: operation(inputs))
    assert growth <= SLACK, f"{name}: {growth} blocks over {CALLS} calls"


def test_the_block_count_sees_a_tuple_built_from_a_generator():
    # The measurement itself bites: the pattern the package avoids grows by
    # about one block per call.
    items = list(range(7))
    growth = block_growth(lambda: tuple(i for i in items))
    assert growth >= CALLS // 2
