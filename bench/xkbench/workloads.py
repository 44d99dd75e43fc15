"""The three workloads: their operations, and the checks on each outcome.

An operation calls the package only through public functions, looked up on
their module at call time so that the tracer's wrappers apply. Checks
compare an outcome with the oracles and run outside the timed region.

- screen: one operation is a screening batch for one catalog profile: load
  the catalog, parse 40 small families, one large family and one plane
  file, `batch_check` the families, audit the planes constructively, and
  build and serialize a document for every result.
- exact: one operation is one exact solve, by the `zerosum --exact` path
  (read a vector file, `max_zero_sum_subset`) or the `audit --exact` path
  (read a plane file, `plane_family_audit(use_exact=True)`, serialize).
- cli: one operation is one `python -m excess_kit.cli` process from a fixed
  command mix, malformed inputs included.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import excess_kit
from excess_kit import cli, fileio, reports
from excess_kit.errors import EffortExceeded

from . import oracle
from .oracle import WrongOutput, expect

VERDICT_EXIT = {"BoundSatisfied": 0, "Obstructed": 1, "HypothesisFailure": 2}


class Outcome(NamedTuple):
    """status is "ok", or "refused" for a checked EffortExceeded."""

    status: str
    output: bytes
    detail: object


class Op(NamedTuple):
    label: str
    tag: str
    run: Callable[[], Outcome]
    inproc: Callable[[], Outcome]


class Screen:
    name = "screen"

    def __init__(self, light: dict):
        self.ops = []
        for i, b in enumerate(light["batches"]):
            run = self._runner(b)
            self.ops.append(Op(f"batch {i} ({b['profile']})", b["profile"], run, run))

    @staticmethod
    def _runner(batch: dict) -> Callable[[], Outcome]:
        paths = [f["path"] for f in batch["families"]]
        planes_path = batch["planes"]["path"]

        def run() -> Outcome:
            catalog = fileio.load_catalog()
            parsed = [fileio.read_family_file(p, catalog) for p in paths]
            profile = parsed[0][0]
            found = excess_kit.batch_check(profile, [fam for _, fam in parsed])
            _, planes = fileio.read_family_file(planes_path, catalog)
            audit = excess_kit.plane_family_audit(profile, planes)
            texts = [reports.canonical_json(reports.report_document(r)) for r in found]
            texts.append(reports.canonical_json(reports.audit_document(audit)))
            return Outcome("ok", "\n".join(texts).encode(), (parsed, found, audit, texts))

        return run

    def check(self, spec: dict, i: int, outcome: Outcome) -> None:
        batch = spec["batches"][i]
        profile = spec["profiles"][batch["profile"]]
        parsed, found, audit, texts = outcome.detail
        for ambient, _ in parsed:
            expect("ambient", ambient.name, batch["profile"])
        for j, (fam, report, text) in enumerate(zip(batch["families"], found, texts)):
            what = os.path.basename(fam["path"])
            expect(f"{what} member count", len(parsed[j][1]), len(fam["members"]))
            if not report.trace.replay():
                raise WrongOutput(f"{what}: trace does not replay")
            _check_canonical(text, what)
            oracle.check_report_doc(profile, fam["members"], json.loads(text), what)
        if not audit.trace.replay() or (
            audit.subfamily_report is not None and not audit.subfamily_report.trace.replay()
        ):
            raise WrongOutput("planes: audit trace does not replay")
        _check_canonical(texts[-1], "planes")
        oracle.check_audit_doc(profile, batch["planes"]["members"], json.loads(texts[-1]), "planes", exact=False)


def _check_canonical(text: str, what: str) -> None:
    if reports.canonical_json(json.loads(text)) != text:
        raise WrongOutput(f"{what}: canonical JSON does not re-serialize to the same bytes")


class Exact:
    name = "exact"

    def __init__(self, light: dict):
        # The first load_catalog() belongs to set-up, like the import.
        catalog = fileio.load_catalog()
        self.ops = []
        for i, o in enumerate(light["ops"]):
            run = self._zerosum(o["path"]) if o["kind"] == "zerosum" else self._audit(o["path"], catalog)
            label = f"op {i} ({o['regime']} {o['kind']} m={o['m']} rank={o['rank']})"
            self.ops.append(Op(label, o["regime"], run, run))

    @staticmethod
    def _zerosum(path: str) -> Callable[[], Outcome]:
        def run() -> Outcome:
            collection = fileio.read_vector_file(path)
            try:
                cert = excess_kit.max_zero_sum_subset(collection)
            except EffortExceeded as exc:
                return _refused(exc)
            return Outcome("ok", str(cert).encode(), cert.sorted_indices())

        return run

    @staticmethod
    def _audit(path: str, catalog) -> Callable[[], Outcome]:
        def run() -> Outcome:
            profile, planes = fileio.read_family_file(path, catalog)
            try:
                audit = excess_kit.plane_family_audit(profile, planes, use_exact=True)
            except EffortExceeded as exc:
                return _refused(exc)
            text = reports.canonical_json(reports.audit_document(audit))
            return Outcome("ok", text.encode(), text)

        return run

    def check(self, spec: dict, i: int, outcome: Outcome) -> None:
        o = spec["ops"][i]
        if o["kind"] == "zerosum":
            masks = [oracle.bits_int(v) for v in o["vectors"]]
        else:
            masks = [oracle.bits_int(o["members"][j - 1][2]) for j in oracle.majority(o["members"])]
        floor = len(masks) - oracle.rank(masks)
        if outcome.status == "refused":
            needed, budget, cert = outcome.detail
            if needed <= budget:
                raise WrongOutput(f"refused although {needed} nodes fit the budget {budget}")
            oracle.check_zero_sum(masks, cert, floor, "attached constructive certificate")
            return
        constructive = _constructive_size(masks)
        if o["kind"] == "zerosum":
            chosen = outcome.detail
            oracle.check_zero_sum(masks, chosen, max(floor, constructive), "certificate")
            if len(masks) <= 16:
                expect("exact certificate", tuple(chosen), oracle.brute_max_zero_sum(masks))
        else:
            _check_canonical(outcome.detail, "audit")
            profile = spec["profiles"][o["profile"]]
            oracle.check_audit_doc(
                profile, o["members"], json.loads(outcome.detail), "audit", exact=True, floor=constructive
            )


def _refused(exc: EffortExceeded) -> Outcome:
    cert = exc.certificate
    text = f"EffortExceeded needed={exc.needed} budget={exc.budget} certificate={cert}"
    return Outcome("refused", text.encode(), (exc.needed, exc.budget, cert.sorted_indices()))


def _constructive_size(masks: list[int]) -> int:
    """Size of the package's constructive certificate on the same vectors."""
    dim = max((m.bit_length() for m in masks), default=0)
    vecs = tuple(excess_kit.Gf2Vector(dim, m) for m in masks)
    return excess_kit.zero_sum_subcollection(excess_kit.Gf2Collection(dim, vecs)).size


class Cli:
    name = "cli"

    def __init__(self, light: dict):
        fileio.load_catalog()
        src = os.path.dirname(os.path.dirname(os.path.abspath(excess_kit.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        self.ops = [
            Op(f"cmd {i} ({' '.join(c['argv'][:2])})", c["argv"][0], self._spawn(c["argv"], env), self._inproc(c["argv"]))
            for i, c in enumerate(light["commands"])
        ]
        self.reference: list[tuple[int, bytes]] | None = None

    @staticmethod
    def _spawn(argv: list[str], env: dict) -> Callable[[], Outcome]:
        cmd = [sys.executable, "-m", "excess_kit.cli", *argv]

        def run() -> Outcome:
            proc = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
            return Outcome("ok", b"%d\n" % proc.returncode + proc.stdout, (proc.returncode, proc.stdout, proc.stderr))

        return run

    @staticmethod
    def _inproc(argv: list[str]) -> Callable[[], Outcome]:
        def run() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            stdout = out.getvalue().encode()
            return Outcome("ok", b"%d\n" % code + stdout, (code, stdout, err.getvalue().encode()))

        return run

    def prepare(self, spec: dict) -> None:
        """Run the mix in-process once; every process must match these bytes."""
        self.reference = []
        for i, op in enumerate(self.ops):
            outcome = op.inproc()
            try:
                self._check_oracle(spec, i, outcome)
            except WrongOutput as exc:
                raise WrongOutput(f"workload cli, {op.label} in-process: {exc}") from None
            self.reference.append(outcome.detail[:2])

    def check(self, spec: dict, i: int, outcome: Outcome) -> None:
        code, stdout, _ = outcome.detail
        ref_code, ref_stdout = self.reference[i]
        expect("exit code versus in-process cli.run", code, ref_code)
        if stdout != ref_stdout:
            raise WrongOutput("stdout differs from in-process cli.run")
        self._check_oracle(spec, i, outcome)

    @staticmethod
    def _check_oracle(spec: dict, i: int, outcome: Outcome) -> None:
        c = spec["commands"][i]
        argv, kind = c["argv"], c["expect"]
        code, stdout, stderr = outcome.detail
        profile = spec["profiles"][argv[2]] if argv[0] in ("check", "audit") else None
        if kind == "error":
            expect("exit code", code, 2)
            lines = stderr.decode().splitlines()
            if len(lines) != 1 or "Traceback" in lines[0]:
                raise WrongOutput(f"stderr is not one message line: {stderr[:200]!r}")
            return
        if kind == "info":
            expect("exit code", code, 0)
        else:
            expect("exit code", code, VERDICT_EXIT[kind])
        text = stdout.decode()
        if argv[0] == "check":
            members = spec["families"][kind]["members"]
            expect("oracle verdict", oracle.excess_verdict(profile, members)[0], kind)
            if "json" in argv:
                oracle.check_report_doc(profile, members, json.loads(text), "check")
        elif argv[0] == "audit" and "json" in argv:
            oracle.check_audit_doc(profile, spec["plane_members"], json.loads(text), "audit", exact="--exact" in argv)
        elif argv[0] == "zerosum":
            masks = [oracle.bits_int(v) for v in spec["vectors"]]
            chosen = [int(x) for x in text.strip().strip("{}").split(",") if x]
            oracle.check_zero_sum(masks, chosen, len(masks) - oracle.rank(masks), "zerosum")
            if "--exact" in argv:
                expect("exact certificate", tuple(chosen), oracle.brute_max_zero_sum(masks))


WORKLOADS = {"screen": Screen, "exact": Exact, "cli": Cli}
