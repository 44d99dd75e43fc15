"""The command-line interface: outputs, exit codes, JSON round-trips."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from excess_kit import cli, engine
from excess_kit.cli import run
from excess_kit.fileio import CATALOG_ENV_VAR
from excess_kit.gf2 import DEFAULT_EFFORT_LIMIT
from excess_kit.reports import canonical_json
from helpers import invoke, write

S4_FAMILY_G2_E8 = "ambient: s4\n[surface]\ngenus: 2\neuler_number: 8\nclass:\n"
S4_FAMILY_G1_E2 = "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
S4_PLANE_E4 = "ambient: s4\n[surface]\ngenus: 1\neuler_number: 4\nclass:\n"
TWO = "name: two\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"
MIXED = (
    "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
    "[surface]\ngenus: 1\neuler_number: -2\nclass:\n"
)


def test_massey():
    code, out, _ = invoke("massey", "--genus", "2")
    assert code == 0
    assert out.strip() == "-4 0 4"


def test_massey_invalid_genus():
    code, _, err = invoke("massey", "--genus", "0")
    assert code == 2
    assert "genus" in err


class _HashSink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def test_massey_streams_a_large_genus_in_bounded_memory():
    genus = 10**6
    expected = hashlib.sha256(
        (" ".join(str(v) for v in range(-2 * genus, 2 * genus + 1, 4)) + "\n").encode()
    ).hexdigest()
    sink = _HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = run(["massey", "--genus", str(genus)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest() == expected
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_catalog_list_and_show():
    code, out, _ = invoke("catalog", "list")
    assert code == 0 and out.startswith("s4:")
    code, out, _ = invoke("catalog", "show", "s4")
    assert code == 0
    assert "b_of_m: 0" in out
    code, _, err = invoke("catalog", "show", "missing")
    assert code == 2 and "missing" in err


def test_catalog_list_merges_an_extra_catalog_in_name_order(tmp_path, monkeypatch):
    extra = "[profile]\nname: aaa\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"
    monkeypatch.setenv(CATALOG_ENV_VAR, write(tmp_path, "extra.txt", extra))
    assert invoke("catalog", "list") == (
        0,
        "aaa: signature 0, euler_characteristic 4, b1_f2 0, b2_f2 2, D 8, B 20\n"
        "s4: signature 0, euler_characteristic 2, b1_f2 0, b2_f2 0, D 0, B 0\n",
        "",
    )


def test_bound():
    code, out, _ = invoke("bound", "--manifold", "s4")
    assert code == 0
    assert "d_of_m: 0" in out and "b_of_m: 0" in out


def test_check_obstructed_exit_one(tmp_path):
    path = write(tmp_path, "family.txt", S4_FAMILY_G2_E8)
    code, out, _ = invoke("check", "--manifold", "s4", "--family", path)
    assert code == 1
    assert "verdict: Obstructed" in out


def test_check_bound_satisfied_exit_zero(tmp_path):
    path = write(tmp_path, "family.txt", S4_FAMILY_G1_E2)
    code, out, _ = invoke("check", "--manifold", "s4", "--family", path)
    assert code == 0
    assert "verdict: BoundSatisfied" in out


def test_check_hypothesis_failure_exit_two(tmp_path):
    path = write(tmp_path, "family.txt", MIXED)
    code, out, _ = invoke("check", "--manifold", "s4", "--family", path)
    assert code == 2
    assert "HypothesisFailure" in out and "same-sign" in out


def test_check_json_round_trips_and_matches_text(tmp_path):
    path = write(tmp_path, "family.txt", S4_FAMILY_G2_E8)
    code_json, out_json, _ = invoke(
        "check", "--manifold", "s4", "--family", path, "--format", "json"
    )
    document = json.loads(out_json)
    assert canonical_json(document) == out_json.rstrip("\n")
    code_text, out_text, _ = invoke(
        "check", "--manifold", "s4", "--family", path, "--format", "text"
    )
    assert code_json == code_text == 1
    assert document["verdict"] == "Obstructed"
    for step in document["trace"]:
        rendered = f"{step['label']}: {step['lhs']} {step['rel']} {step['rhs']}"
        assert rendered in out_text


def test_check_rejects_mismatched_ambient(tmp_path):
    other = write(
        tmp_path, "other.txt", "name: other\nsignature: 1\neuler_characteristic: 3\nb1_f2: 0\n"
    )
    path = write(tmp_path, "family.txt", S4_FAMILY_G1_E2)
    code, _, err = invoke("check", "--manifold", other, "--family", path)
    assert code == 2
    assert "ambient" in err


def test_audit_exit_codes(tmp_path):
    path = write(tmp_path, "family.txt", S4_PLANE_E4)
    code, out, _ = invoke("audit", "--manifold", "s4", "--planes", path)
    assert code == 1
    assert "verdict: Obstructed" in out
    code, out, _ = invoke("audit", "--manifold", "s4", "--planes", path, "--exact")
    assert code == 1 and "zero-sum mode: exact" in out


def test_audit_rejects_small_euler(tmp_path):
    path = write(tmp_path, "family.txt", S4_FAMILY_G1_E2)
    code, _, err = invoke("audit", "--manifold", "s4", "--planes", path)
    assert code == 2
    assert "|e|" in err


def test_audit_json(tmp_path):
    path = write(tmp_path, "family.txt", S4_PLANE_E4)
    code, out, _ = invoke("audit", "--manifold", "s4", "--planes", path, "--format", "json")
    assert code == 1
    document = json.loads(out)
    assert document["verdict"] == "Obstructed"
    assert document["subfamily_report"]["verdict"] == "Obstructed"
    assert canonical_json(document) == out.rstrip("\n")


def test_tube(tmp_path):
    text = (
        "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
        "[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
    )
    path = write(tmp_path, "family.txt", text)
    code, out, _ = invoke("tube", "--family", path)
    assert code == 0
    assert "genus: 2" in out and "euler_number: 4" in out
    assert "euler_characteristic: 0" in out


def family_commands(path: str) -> list[tuple[str, ...]]:
    return [
        ("check", "--manifold", "s4", "--family", path, "--format", "json"),
        ("tube", "--family", path),
        ("audit", "--manifold", "s4", "--planes", path, "--exact", "--format", "json"),
    ]


@pytest.mark.parametrize("blank", ["", "\n"], ids=["no-blank-line", "blank-line-before-block-2"])
@pytest.mark.parametrize("genus", [0, 1, 2])
def test_a_family_file_and_its_crlf_rewrite_give_the_same_results(
    tmp_path, genus, blank
):
    # A genus-0 block 2 makes the fast step doubt the plain file and hand it
    # to the scan; a CRLF file is always scanned. Both reach every consumer.
    text = (
        f"ambient: s4\n[surface]\ngenus: 1\neuler_number: 4\nclass:\n"
        f"{blank}[surface]\ngenus: {genus}\neuler_number: 6\nclass:\n"
    )
    path = tmp_path / "family.txt"
    results = {}
    for layout, ends in (("plain", "\n"), ("crlf", "\r\n")):
        path.write_bytes(text.replace("\n", ends).encode("ascii"))
        results[layout] = [invoke(*argv) for argv in family_commands(str(path))]
    assert results["crlf"] == results["plain"]
    check, tubed, audit = results["plain"]
    if genus == 0:
        line = text.split("\n").index("genus: 0") + 1
        assert check[0] == 2 and check[1] == ""
        assert check[2] == f"{path}:{line}: field 'genus' must be >= 1, got 0\n"
    else:
        assert check[0] == 1 and json.loads(check[1])["verdict"] == "Obstructed"
        assert check[2] == ""
        assert tubed[0] == 0 and tubed[1] and tubed[2] == ""
    if genus == 1:
        assert audit[0] == 1 and audit[2] == ""
        assert json.loads(audit[1])["verdict"] == "Obstructed"


def test_tube_nonempty_class_text(tmp_path):
    profile = write(tmp_path, "two.txt", TWO)
    text = (
        f"ambient: {profile}\n[surface]\ngenus: 1\neuler_number: 2\nclass: 10\n"
        "[surface]\ngenus: 1\neuler_number: 2\nclass: 11\n"
    )
    code, out, err = invoke("tube", "--family", write(tmp_path, "family.txt", text))
    assert code == 0 and err == ""
    assert out == "genus: 2\neuler_number: 4\neuler_characteristic: 0\nmod2_class: 01\n"


def test_cover():
    code, out, _ = invoke("cover", "--manifold", "s4", "--genus", "1", "--euler", "2")
    assert code == 0
    assert "sigma_n: -1" in out and "chi_n: 3" in out
    assert "ramification_euler: 1" in out


def test_a_profile_path_in_ambient_is_taken_from_the_current_directory(
    tmp_path, monkeypatch
):
    sub = tmp_path / "sub"
    sub.mkdir()
    write(sub, "p.txt", "name: sphere\nsignature: 0\neuler_characteristic: 2\nb1_f2: 0\n")
    write(sub, "f.txt", S4_FAMILY_G1_E2.replace("ambient: s4", "ambient: p.txt"))
    monkeypatch.chdir(tmp_path)
    family = os.path.join("sub", "f.txt")
    code, out, err = invoke("check", "--manifold", "s4", "--family", family)
    assert code == 2 and out == ""
    assert err == (
        f"{family}:1: profile reference 'p.txt' is neither a catalog name nor an existing file\n"
    )
    monkeypatch.chdir(sub)
    code, out, err = invoke("check", "--manifold", "s4", "--family", "f.txt")
    assert code == 0 and out and err == ""


def test_cover_violated_text():
    code, out, err = invoke("cover", "--manifold", "s4", "--genus", "1", "--euler", "6")
    assert code == 0 and err == ""
    assert out == (
        "sigma_n: -3\nchi_n: 3\nb1_f2_upper: 0\nb2_f2_upper: 1\n"
        "ramification_euler: 3\nconsistency: violated (3 > 1)\n"
    )


def test_cover_odd_euler():
    code, _, err = invoke("cover", "--manifold", "s4", "--genus", "1", "--euler", "3")
    assert code == 2 and "odd" in err


def test_cover_nonzero_class(tmp_path):
    profile = write(tmp_path, "p.txt", TWO)
    code, _, err = invoke(
        "cover", "--manifold", profile, "--genus", "1", "--euler", "2", "--class", "10"
    )
    assert code == 2 and "nonzero" in err


def test_cover_on_a_profile_with_huge_b1(tmp_path):
    profile = write(
        tmp_path,
        "p.txt",
        "name: huge\nsignature: 0\neuler_characteristic: 2\nb1_f2: 100000000000000000000\n",
    )
    code, out, err = invoke("cover", "--manifold", profile, "--genus", "1", "--euler", "2")
    assert code == 0 and err == ""
    assert "b2_f2_upper: 400000000000000000001\n" in out


def test_zerosum_constructive_and_exact(tmp_path):
    vectors = write(tmp_path, "v.txt", "10\n01\n11\n")
    code, out, _ = invoke("zerosum", "--vectors", vectors)
    assert code == 0 and out.strip() == "{1,2,3}"
    code, out, _ = invoke("zerosum", "--vectors", vectors, "--exact")
    assert code == 0 and out.strip() == "{1,2,3}"


def test_zerosum_effort_exceeded(tmp_path):
    vectors = write(tmp_path, "v.txt", "10\n" * 12)
    code, _, err = invoke("zerosum", "--vectors", vectors, "--exact", "--effort", "16")
    assert code == 2
    assert "budget" in err


def test_missing_file_is_exit_two():
    code, _, err = invoke("check", "--manifold", "s4", "--family", "/no/such/file")
    assert code == 2 and err


def test_parse_error_names_field_and_line(tmp_path):
    text = "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nklass:\n"
    path = write(tmp_path, "family.txt", text)
    code, _, err = invoke("check", "--manifold", "s4", "--family", path)
    assert code == 2
    assert "klass" in err and ":5:" in err


@pytest.mark.parametrize("argv", [["--help"], ["audit", "--help"]])
def test_help_exits_zero_with_usage(argv):
    code, out, err = invoke(*argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: excess-kit")


def test_effort_help_says_it_needs_exact():
    default = f"(0 = default 2^{DEFAULT_EFFORT_LIMIT.bit_length() - 1})"
    exact = "--exact use the exact zero-sum maximizer instead of the constructive one"
    for command in ("audit", "zerosum"):
        code, out, _ = invoke(command, "--help")
        assert code == 0
        help_text = " ".join(out.split())
        assert "used only with --exact" in help_text and default in help_text
        assert exact in help_text


def test_usage_error_exit_two():
    assert invoke("check")[0] == 2


def test_no_floats_anywhere_in_json(tmp_path):
    path = write(tmp_path, "family.txt", S4_PLANE_E4)
    _, out, _ = invoke("audit", "--manifold", "s4", "--planes", path, "--format", "json")

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--manifold", "s4", "--planes", "/no/such/file"),
        ("zerosum", "--vectors", "/no/such/file"),
    ],
)
@pytest.mark.parametrize("exact", [(), ("--exact",)])
def test_negative_effort_rejected_at_parse_time(argv, exact):
    code, out, err = invoke(*argv, *exact, "--effort", "-5")
    assert code == 2 and out == ""
    assert "--effort" in err and "nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zerosum", "--vectors"),
        ("check", "--manifold", "s4", "--family"),
        ("tube", "--family"),
    ],
)
def test_non_utf8_file_is_one_located_line(tmp_path, argv):
    path = write(tmp_path, "input.txt", b"ambient: s4\n[surface]\ngenus: 1\xff\n")
    code, out, err = invoke(*argv, path)
    assert code == 2 and out == ""
    assert err.startswith(f"{path}:3: invalid UTF-8: ")
    assert err.count("\n") == 1


def test_invalid_profile_file_message_is_located(tmp_path):
    profile = write(
        tmp_path, "p.txt", "name: x\nsignature: 0\neuler_characteristic: 1\nb1_f2: 0\n"
    )
    code, out, err = invoke("bound", "--manifold", profile)
    assert code == 2 and out == ""
    assert err.startswith(f"{profile}:1: x: b2_f2 = ")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check-obstructed", "massey"])
def test_a_closed_stdout_exits_141_and_writes_no_stderr(tmp_path, monkeypatch, command, buffered):
    # The reader is gone before the first write: exit 2 would claim bad
    # input and drop an Obstructed verdict's exit 1 without a word.
    family = write(tmp_path, "family.txt", S4_FAMILY_G2_E8)
    argv = {
        "check-obstructed": ["check", "--manifold", "s4", "--family", family, "--format", "json"],
        "massey": ["massey", "--genus", "3"],
    }[command]
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    result = run_in_a_process(argv, tmp_path, closed="stdout")
    assert (result.returncode, result.stderr) == (141, b"")


def run_in_a_process(
    argv: list[str], cwd, closed: str | None = None, flags: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    """Run `python [flags] -m excess_kit.cli argv` in cwd, with stdout and stderr captured.

    `closed`, "stdout" or "stderr", makes that stream a pipe with no reader instead.
    """
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    write_end = None
    if closed is not None:
        read_end, write_end = os.pipe()
        os.close(read_end)
        streams[closed] = write_end
    try:
        return subprocess.run(
            [sys.executable, *flags, "-m", "excess_kit.cli", *argv],
            env=env, cwd=cwd, timeout=60, **streams,
        )
    finally:
        if write_end is not None:
            os.close(write_end)


ERROR_ARGV = {
    "usage-error": ["check"],
    "missing-file": ["check", "--manifold", "s4", "--family", "missing.txt"],
    "unknown-profile": ["bound", "--manifold", "nope"],
}


@pytest.mark.parametrize("error", ERROR_ARGV)
def test_a_closed_stderr_keeps_exit_2_and_writes_no_stdout(tmp_path, error):
    # print() to a stderr with no reader raises BrokenPipeError; escaping
    # run, it would give the interpreter's status 1, the Obstructed code.
    result = run_in_a_process(ERROR_ARGV[error], tmp_path, closed="stderr")
    assert (result.returncode, result.stdout) == (2, b"")


class _ClosedStream:
    """A text stream whose reader is gone."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("stderr", [_ClosedStream(), None], ids=["closed", "absent"])
def test_error_codes_hold_without_a_working_stderr(tmp_path, monkeypatch, capsys, stderr):
    # With stderr None (a process started without fd 2), print() would
    # write the message to stdout instead.
    monkeypatch.chdir(tmp_path)
    family = write(tmp_path, "family.txt", S4_FAMILY_G1_E2)
    monkeypatch.setattr(sys, "stderr", stderr)
    codes = [run(argv) for argv in ERROR_ARGV.values()]

    def broken(*args, **kwargs):
        raise AssertionError("chain arithmetic broke")

    monkeypatch.setattr(engine, "excess_check", broken)
    codes.append(run(["check", "--manifold", "s4", "--family", family]))
    assert codes == [2, 2, 2, 3]
    assert capsys.readouterr().out == ""


def test_run_builds_one_parser_per_process(monkeypatch, capsys):
    build = cli.build_parser
    assert build() is not build()
    calls = []

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        codes = [run(argv) for argv in (["massey", "--genus", "2"], ["check"]) * 3]
    finally:
        cli._parser.cache_clear()
    assert (codes, len(calls)) == ([0, 2] * 3, 1)
    out = capsys.readouterr().out
    assert out == "-4 0 4\n" * 3


BAD_FAMILY = "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nklass:\n"
# argv, exit code and stderr line count: a usage error prints argparse's
# two usage lines at 80 columns, then its error line.
PROCESS_COMMANDS = {
    "check-json": (
        ["check", "--manifold", "s4", "--family", "family.txt", "--format", "json"], 1, 0
    ),
    "audit-exact": (["audit", "--manifold", "s4", "--planes", "planes.txt", "--exact"], 1, 0),
    "massey": (["massey", "--genus", "3"], 0, 0),
    "parse-error": (["check", "--manifold", "s4", "--family", "bad.txt"], 2, 1),
    "usage-error": (["check"], 2, 3),
}


def write_process_inputs(directory) -> None:
    write(directory, "family.txt", S4_FAMILY_G2_E8)
    write(directory, "planes.txt", S4_PLANE_E4)
    write(directory, "bad.txt", BAD_FAMILY)


@pytest.mark.parametrize("command", ["check-json", "usage-error"])
def test_run_freezes_no_object(tmp_path, monkeypatch, command):
    # main freezes the collector just before the process exits; run, which
    # library callers use, leaves the collector as it found it.
    write_process_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv, expected, _ = PROCESS_COMMANDS[command]
    before = gc.get_freeze_count()
    code, _, _ = invoke(*argv)
    assert (code, gc.get_freeze_count()) == (expected, before)


@pytest.mark.parametrize("command", PROCESS_COMMANDS)
def test_main_in_dev_mode_gives_run_s_output_and_code(tmp_path, monkeypatch, command):
    # main's exit path, the collector frozen and then sys.exit, under -X dev
    # and -W error: a warning at shutdown (an unclosed file, say) would add
    # to stderr or change the exit code.
    write_process_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv, expected, lines = PROCESS_COMMANDS[command]
    code, out, err = invoke(*argv)
    result = run_in_a_process(argv, tmp_path, flags=("-X", "dev", "-W", "error"))
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == (code, out, err)
    assert (code, err.count("\n")) == (expected, lines)
