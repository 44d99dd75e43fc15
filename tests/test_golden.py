"""Golden bytes: canonical JSON and text output of the verdict path.

A seeded corpus of excess checks, batches, plane audits (constructive and
exact) and exact zero-sum solves is rendered to canonical JSON and to text,
and compared byte for byte with the files under tests/data/. The corpus
spans profiles with nonzero signature, positive b1 and b2 = 0, families
with odd total Euler number, and all three verdicts. A fixed set of CLI
invocations, one or more per command, pins the exit code, stdout and stderr
of ``cli.run``.

The expected files are written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py

Only do that for an intended change of output, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import random
import tempfile
from unittest import mock

from excess_kit.cli import run
from excess_kit.engine import Verdict, batch_check, excess_check, plane_family_audit
from excess_kit.fileio import CATALOG_ENV_VAR
from excess_kit.gf2 import Gf2Collection, Gf2Vector, max_zero_sum_subset
from excess_kit.manifolds import ManifoldProfile, excess_budget
from excess_kit.reports import (
    audit_document,
    canonical_json,
    certificate_document,
    render_audit_text,
    render_report_text,
    report_document,
)
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

DATA = pathlib.Path(__file__).parent / "data"
SEED = 20240611

# (name, signature, euler_characteristic, b1_f2)
PROFILES = (
    ManifoldProfile("s4", 0, 2, 0),  # b2 = 0
    ManifoldProfile("s1xs3", 0, 0, 1),  # b1 > 0, b2 = 0
    ManifoldProfile("cp2", 1, 3, 0),  # signature != 0
    ManifoldProfile("b1-two", -2, 4, 2),  # b1 > 0, signature != 0, b2 = 6
    ManifoldProfile("k3", -16, 24, 0),  # b2 = 22
    ManifoldProfile("s2xs2", 0, 4, 0),  # b2 = 2
)

FAMILIES_PER_PROFILE = 6


def _classes(rng: random.Random, dim: int, size: int, zero_sum: bool) -> list[int]:
    bits = [rng.getrandbits(dim) if dim else 0 for _ in range(size)]
    if zero_sum:
        acc = 0
        for b in bits[:-1]:
            acc ^= b
        bits[-1] = acc
    return bits


def check_corpus() -> list[tuple[ManifoldProfile, list[SurfaceFamily]]]:
    """Per profile: families with both hypotheses holding, and some without.

    Euler numbers scale with the profile's budget so that both Obstructed
    and BoundSatisfied occur; odd Euler numbers are allowed throughout.
    """
    rng = random.Random(SEED)
    corpus = []
    for profile in PROFILES:
        dim = profile.b2_f2
        budget = excess_budget(profile)
        families = []
        for k in range(FAMILIES_PER_PROFILE):
            size = rng.randint(1, 4)
            hypotheses_hold = k % 3 != 2
            sign = rng.choice((1, -1))
            genera = [rng.randint(1, 6) for _ in range(size)]
            reach = (budget + 2 * sum(genera)) // size + 6
            if hypotheses_hold:
                eulers = [sign * rng.randint(0, reach) for _ in range(size)]
            else:
                eulers = [rng.randint(-reach, reach) for _ in range(size)]
            bits = _classes(rng, dim, size, zero_sum=hypotheses_hold or k % 2 == 1)
            members = tuple(
                SurfaceDatum(genus=g, euler_number=e, mod2_class=Gf2Vector(dim, b))
                for g, e, b in zip(genera, eulers, bits)
            )
            families.append(SurfaceFamily(dim, members))
        corpus.append((profile, families))
    return corpus


def audit_corpus() -> list[tuple[ManifoldProfile, SurfaceFamily]]:
    """Genus-1 families: some fit the rank, some force a zero-sum subfamily.

    Majorities of the 23-member families run to about 20, where the exact
    audits hand the solver its longest inputs.
    """
    rng = random.Random(SEED + 1)
    corpus = []
    for profile in PROFILES:
        dim = profile.b2_f2
        for size in (3, dim + 2, 23):
            lean = rng.choice((1, -1))
            members = []
            for _ in range(size):
                sign = lean if rng.random() < 0.8 else -lean
                members.append(
                    SurfaceDatum(
                        genus=1,
                        euler_number=sign * rng.randint(3, 9),
                        mod2_class=Gf2Vector(dim, rng.getrandbits(dim) if dim else 0),
                    )
                )
            corpus.append((profile, SurfaceFamily(dim, tuple(members))))
    return corpus


def solver_corpus() -> list[Gf2Collection]:
    """Collections of length 0 to 26 at low, full and high rank."""
    rng = random.Random(SEED + 2)
    corpus = []
    for m in list(range(0, 27)) + [9, 14, 17, 21, 24]:
        dim = rng.choice((1, 3, 6, 12, 24))
        corpus.append(
            Gf2Collection(dim, tuple(Gf2Vector(dim, rng.getrandbits(dim)) for _ in range(m)))
        )
    return corpus


def _block(name: str, body: str) -> str:
    return f"=== {name}\n{body}\n"


def _render_reports(check) -> str:
    """Blocks for every corpus family, reports produced by check(profile, families)."""
    out = []
    for profile, families in check_corpus():
        for i, report in enumerate(check(profile, families), start=1):
            name = f"{profile.name} #{i}"
            out.append(_block(f"{name} json", canonical_json(report_document(report))))
            out.append(_block(f"{name} text", render_report_text(report)))
    return "".join(out)


def render_checks() -> str:
    return _render_reports(lambda p, families: [excess_check(p, f) for f in families])


def render_batches() -> str:
    return _render_reports(batch_check)


def render_audits() -> str:
    out = []
    for i, (profile, planes) in enumerate(audit_corpus(), start=1):
        for exact in (False, True):
            audit = plane_family_audit(profile, planes, use_exact=exact)
            name = f"{profile.name} #{i} {'exact' if exact else 'constructive'}"
            out.append(_block(f"{name} json", canonical_json(audit_document(audit))))
            out.append(_block(f"{name} text", render_audit_text(audit)))
    return "".join(out)


def render_solves() -> str:
    out = []
    for i, collection in enumerate(solver_corpus(), start=1):
        cert = max_zero_sum_subset(collection)
        name = f"m={len(collection)} dim={collection.dim} #{i}"
        out.append(_block(f"{name} json", canonical_json(certificate_document(cert))))
        out.append(_block(f"{name} text", str(cert)))
    return "".join(out)


# Input files for the CLI corpus; "{dir}" stands for the directory they live in.
CLI_FILES = {
    "s2xs2.txt": "name: s2xs2\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n",
    "obstructed.txt": "ambient: s4\n[surface]\ngenus: 2\neuler_number: 8\nclass:\n",
    "satisfied.txt": "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n",
    "mixed.txt": (
        "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
        "[surface]\ngenus: 3\neuler_number: -2\nclass:\n"
    ),
    "plane.txt": "ambient: s4\n[surface]\ngenus: 1\neuler_number: 4\nclass:\n",
    "fit.txt": (
        "ambient: {dir}/s2xs2.txt\n"
        "[surface]\ngenus: 1\neuler_number: 4\nclass: 10\n"
        "[surface]\ngenus: 1\neuler_number: -5\nclass: 01\n"
    ),
    "overflow.txt": (
        "ambient: {dir}/s2xs2.txt\n"
        "[surface]\ngenus: 1\neuler_number: 9\nclass: 10\n"
        "[surface]\ngenus: 1\neuler_number: 9\nclass: 10\n"
        "[surface]\ngenus: 1\neuler_number: 5\nclass: 01\n"
    ),
    "nonplane.txt": "ambient: s4\n[surface]\ngenus: 2\neuler_number: 4\nclass:\n",
    "vectors.txt": "# six vectors of length 4\n1100\n0110\n0011\n1001\n1111\n1010\n",
    "head_duplicate.txt": (
        "ambient: s4\nambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
    ),
    "head_unknown.txt": (
        "ambient: s4\ncolor: red\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
    ),
    "head_surface_field.txt": (
        "ambient: s4\ngenus: 1\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
    ),
    "head_missing.txt": "# no ambient\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n",
    "head_empty.txt": "ambient:\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n",
    "head_no_colon.txt": "ambient s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n",
    "head_catalog.txt": (
        "# extra profiles\nname: extra\n"
        "[profile]\nname: extra\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"
    ),
}

# (case name, argv) or (case name, argv, extra catalog path); "{dir}" as in
# CLI_FILES.
CLI_CASES = (
    ("check text obstructed", "check --manifold s4 --family {dir}/obstructed.txt"),
    (
        "check json obstructed",
        "check --manifold s4 --family {dir}/obstructed.txt --format json",
    ),
    ("check text satisfied", "check --manifold s4 --family {dir}/satisfied.txt"),
    (
        "check json satisfied",
        "check --manifold s4 --family {dir}/satisfied.txt --format json",
    ),
    ("check text hypothesis", "check --manifold s4 --family {dir}/mixed.txt"),
    ("check json hypothesis", "check --manifold s4 --family {dir}/mixed.txt --format json"),
    (
        "check ambient mismatch",
        "check --manifold {dir}/s2xs2.txt --family {dir}/satisfied.txt",
    ),
    ("audit text count", "audit --manifold s4 --planes {dir}/plane.txt"),
    ("audit json count", "audit --manifold s4 --planes {dir}/plane.txt --format json"),
    ("audit text fit", "audit --manifold {dir}/s2xs2.txt --planes {dir}/fit.txt"),
    (
        "audit json fit",
        "audit --manifold {dir}/s2xs2.txt --planes {dir}/fit.txt --format json",
    ),
    ("audit text overflow", "audit --manifold {dir}/s2xs2.txt --planes {dir}/overflow.txt"),
    (
        "audit json overflow exact",
        "audit --manifold {dir}/s2xs2.txt --planes {dir}/overflow.txt --exact --format json",
    ),
    (
        "audit text overflow exact",
        "audit --manifold {dir}/s2xs2.txt --planes {dir}/overflow.txt --exact",
    ),
    ("audit not a plane family", "audit --manifold s4 --planes {dir}/nonplane.txt"),
    ("catalog list", "catalog list"),
    ("catalog show known", "catalog show s4"),
    ("catalog show unknown", "catalog show missing"),
    ("bound catalog", "bound --manifold s4"),
    ("bound file", "bound --manifold {dir}/s2xs2.txt"),
    ("cover valid", "cover --manifold {dir}/s2xs2.txt --genus 3 --euler 6 --class 00"),
    ("cover odd euler", "cover --manifold s4 --genus 1 --euler 3"),
    ("cover genus 0", "cover --manifold s4 --genus 0 --euler 0"),
    (
        "cover wrong class length",
        "cover --manifold {dir}/s2xs2.txt --genus 1 --euler 2 --class 1",
    ),
    ("tube", "tube --family {dir}/mixed.txt"),
    ("zerosum constructive", "zerosum --vectors {dir}/vectors.txt"),
    ("zerosum exact", "zerosum --vectors {dir}/vectors.txt --exact"),
    ("zerosum over budget", "zerosum --vectors {dir}/vectors.txt --exact --effort 3"),
    ("massey valid", "massey --genus 3"),
    ("massey genus 0", "massey --genus 0"),
    ("family head duplicate ambient", "tube --family {dir}/head_duplicate.txt"),
    ("family head unknown field", "tube --family {dir}/head_unknown.txt"),
    ("family head surface field", "tube --family {dir}/head_surface_field.txt"),
    ("family head missing ambient", "tube --family {dir}/head_missing.txt"),
    ("family head empty ambient", "tube --family {dir}/head_empty.txt"),
    ("family head no colon", "tube --family {dir}/head_no_colon.txt"),
    ("catalog head field", "catalog list", "{dir}/head_catalog.txt"),
)

CLI_DIR = "<dir>"


def render_cli() -> str:
    """Exit code, stdout and stderr of each CLI case, temporary paths masked.

    A case runs with the extra catalog it names, and with none otherwise,
    whatever the environment says.
    """
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for filename, text in CLI_FILES.items():
            (pathlib.Path(tmp) / filename).write_text(text.format(dir=tmp), encoding="utf-8")
        for name, command, *catalog in CLI_CASES:
            env = {CATALOG_ENV_VAR: catalog[0].format(dir=tmp)} if catalog else {}
            stdout, stderr = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ):
                os.environ.pop(CATALOG_ENV_VAR, None)
                os.environ.update(env)
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = run(command.format(dir=tmp).split())
            prefix = "".join(f"{key}={value} " for key, value in env.items())
            body = (
                f"$ {prefix}excess-kit {command.format(dir=CLI_DIR)}\n"
                f"exit: {code}\n"
                f"--- stdout\n{stdout.getvalue()}"
                f"--- stderr\n{stderr.getvalue()}"
            )
            out.append(_block(name, body.replace(tmp, CLI_DIR)))
    return "".join(out)


GOLDEN = {
    "golden_check.txt": render_checks,
    "golden_audit.txt": render_audits,
    "golden_solve.txt": render_solves,
    "golden_cli.txt": render_cli,
}


def _blocks(text: str) -> list[str]:
    return text.split("\n=== ")


def _assert_same(actual: str, filename: str) -> None:
    expected = (DATA / filename).read_text(encoding="utf-8")
    if actual == expected:
        return
    got, want = _blocks(actual), _blocks(expected)
    for a, b in zip(got, want):
        assert a == b, f"{filename}: first differing block:\n{b}\n--- got ---\n{a}"
    assert len(got) == len(want), f"{filename}: {len(got)} blocks, expected {len(want)}"


def test_excess_check_bytes():
    _assert_same(render_checks(), "golden_check.txt")


def test_batch_check_bytes_match_single_checks():
    _assert_same(render_batches(), "golden_check.txt")


def test_plane_audit_bytes():
    _assert_same(render_audits(), "golden_audit.txt")


def test_exact_solver_bytes():
    _assert_same(render_solves(), "golden_solve.txt")


def test_cli_bytes():
    _assert_same(render_cli(), "golden_cli.txt")


def test_corpus_covers_every_verdict_and_odd_euler_totals():
    verdicts = set()
    odd_with_hypotheses = 0
    for profile, families in check_corpus():
        for family in families:
            report = excess_check(profile, family)
            verdicts.add(report.verdict)
            total = sum(s.euler_number for s in family.members)
            odd_with_hypotheses += (
                total % 2 == 1 and report.verdict is not Verdict.HYPOTHESIS_FAILURE
            )
    assert verdicts == set(Verdict)
    assert odd_with_hypotheses > 0
    audits = {
        plane_family_audit(p, planes).verdict for p, planes in audit_corpus()
    }
    assert audits == {Verdict.OBSTRUCTED, Verdict.BOUND_SATISFIED}


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for filename, render in GOLDEN.items():
        (DATA / filename).write_text(render(), encoding="utf-8")
        print(f"wrote {DATA / filename}")
