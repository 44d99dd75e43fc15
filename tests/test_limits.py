"""Integers at any accepted length: the digit cap and the outputs past it.

Python refuses int/str conversion past a limit of 4300 digits by default,
which PYTHONINTMAXSTRDIGITS may lower to 640. Every integer field and
integer option is capped at 4000 digits, or 300 under a lower limit (the
`cap` fixture sets each limit), so whatever is derived from accepted input
(sums over many members included) prints and round-trips, and one digit
more is a located input error. The other tests run at Python's default
limit, which conftest.py holds whatever the environment says. Messages
about huge internal values (the exact solver's node count, the admissible
Euler numbers of a huge genus) must not depend on that conversion limit
either.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excess_kit import cli
from excess_kit.errors import EffortExceeded
from excess_kit.fileio import CATALOG_ENV_VAR, parse_decimal, read_family_file
from excess_kit.gf2 import SubsetCertificate
from excess_kit.reports import canonical_json
from helpers import LIMITS, invoke, write

# The cap at Python's default int/str limit, which every test but the
# `cap` fixture's runs under; and the lowest limit that
# PYTHONINTMAXSTRDIGITS accepts, with the cap under it.
CAP = LIMITS[0][1]
LOWEST_LIMIT, LOWEST_CAP = LIMITS[-1]


def family_text(members: list[tuple[str, str]], ambient: str = "s4") -> str:
    blocks = "".join(
        f"[surface]\ngenus: {g}\neuler_number: {e}\nclass:\n" for g, e in members
    )
    return f"ambient: {ambient}\n" + blocks


def test_family_at_the_cap_exits_by_its_verdict(tmp_path, cap):
    # Each member has excess 10^cap - 3, so the family is Obstructed in s4,
    # and its 60-member sums have more digits than any accepted field.
    big = "9" * cap
    family = write(tmp_path, "family.txt", family_text([("1", big)] * 60))
    lhs = 60 * (int(big) - 2)

    code, out, err = invoke("check", "--manifold", "s4", "--family", family)
    assert (code, err) == (1, "")
    assert f"excess (lhs): {lhs}\n" in out

    code, out, err = invoke(
        "check", "--manifold", "s4", "--family", family, "--format", "json"
    )
    assert (code, err) == (1, "")
    document = json.loads(out)
    assert document["verdict"] == "Obstructed" and document["lhs"] == lhs
    assert canonical_json(document) + "\n" == out

    code, out, err = invoke("tube", "--family", family)
    assert (code, err) == (0, "")
    assert f"euler_number: {60 * int(big)}\n" in out


def test_one_digit_over_the_cap_is_a_located_input_error(tmp_path, cap):
    over = "9" * (cap + 1)
    family = write(tmp_path, "family.txt", family_text([("1", "4"), ("1", over)]))
    for argv in (
        ("check", "--manifold", "s4", "--family", family),
        ("tube", "--family", family),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err == f"{family}:8: field 'euler_number' has more than {cap} digits\n"


def test_integer_options_over_the_cap_name_the_option_not_the_digits(cap):
    over = "-" + "1" * (cap + 1)
    for argv in (
        ("massey", "--genus", over[1:]),
        ("cover", "--manifold", "s4", "--genus", "1", "--euler", over),
        ("zerosum", "--vectors", "unused.txt", "--effort", over[1:]),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"argument {argv[-2]}: has more than {cap} digits\n")
        assert "1111" not in err


@st.composite
def near_cap(draw, signed: bool = True) -> str:
    """A decimal integer of CAP - 2 to CAP + 2 digits, leading zeros allowed."""
    length = draw(st.integers(CAP - 2, CAP + 2))
    lead = draw(st.sampled_from("0123456789"))
    rng = random.Random(draw(st.integers(0, 2**32)))
    digits = lead + "".join(rng.choices("0123456789", k=length - 1))
    sign = draw(st.sampled_from(("", "+", "-"))) if signed else ""
    return sign + digits


def within_cap(text: str) -> bool:
    return len(text.lstrip("+-")) <= CAP


@given(text=near_cap())
def test_parse_decimal_near_the_cap(text):
    if within_cap(text):
        assert parse_decimal(text) == int(text)
    else:
        try:
            parse_decimal(text)
        except ValueError as exc:
            assert str(exc) == f"more than {CAP} digits"
        else:
            raise AssertionError("an integer over the cap was accepted")


@given(genus=near_cap(signed=False), euler=near_cap())
def test_family_fields_near_the_cap(tmp_path_factory, genus, euler):
    directory = tmp_path_factory.mktemp("cap")
    family = write(directory, "family.txt", family_text([(genus, euler)]))
    code, out, err = invoke(
        "check", "--manifold", "s4", "--family", family, "--format", "json"
    )
    if not within_cap(genus):
        assert (code, out) == (2, "")
        assert err == f"{family}:3: field 'genus' has more than {CAP} digits\n"
    elif not within_cap(euler):
        assert (code, out) == (2, "")
        assert err == f"{family}:4: field 'euler_number' has more than {CAP} digits\n"
    else:
        lhs = abs(int(euler)) - 2 * int(genus)
        assert (code, err) == (1 if lhs > 0 else 0, "")
        assert json.loads(out)["lhs"] == lhs
        assert canonical_json(json.loads(out)) + "\n" == out


def profile_text(b1: str) -> str:
    """A profile with b2_f2 = 0 whatever b1_f2 is: chi = 2 - 2*b1."""
    return (
        f"name: big\nsignature: 0\neuler_characteristic: {2 - 2 * int(b1)}\n"
        f"b1_f2: {b1}\n"
    )


@given(b1=near_cap(signed=False))
def test_profile_and_catalog_fields_near_the_cap(tmp_path_factory, b1):
    directory = tmp_path_factory.mktemp("cap")
    profile = write(directory, "profile.txt", profile_text(b1))
    catalog = write(directory, "catalog.txt", "[profile]\n" + profile_text(b1))
    family = write(directory, "family.txt", family_text([("1", "4")], profile))
    # chi = 2 - 2*b1 can pass the cap before b1 does; it is read first.
    chi = str(2 - 2 * int(b1))
    runs = [
        (profile, 0, {}, ("check", "--manifold", profile, "--family", family)),
        (catalog, 1, {CATALOG_ENV_VAR: catalog}, ("catalog", "show", "big")),
    ]
    for path, offset, env, argv in runs:
        with mock.patch.dict(os.environ, env):
            code, out, err = invoke(*argv)
        if not within_cap(chi):
            assert (code, out) == (2, "")
            assert err == (
                f"{path}:{3 + offset}: field 'euler_characteristic' "
                f"has more than {CAP} digits\n"
            )
        elif not within_cap(b1):
            assert (code, out) == (2, "")
            assert err == f"{path}:{4 + offset}: field 'b1_f2' has more than {CAP} digits\n"
        elif offset:
            assert (code, err) == (0, "")
            assert f"b1_f2: {int(b1)}\n" in out
        else:
            assert (code, err) == (1, "")
            assert read_family_file(family)[0].euler_characteristic == int(chi)


@given(genus=near_cap(signed=False), euler=near_cap(), effort=near_cap(signed=False))
def test_integer_options_near_the_cap(tmp_path_factory, genus, euler, effort):
    vectors = write(tmp_path_factory.mktemp("cap"), "vectors.txt", "10\n01\n11\n")
    code, out, err = invoke("cover", "--manifold", "s4", "--genus", genus, "--euler", euler)
    if not within_cap(genus) or not within_cap(euler):
        option = "--genus" if not within_cap(genus) else "--euler"
        assert (code, out) == (2, "")
        assert err.endswith(f"argument {option}: has more than {CAP} digits\n")
    elif int(euler) % 2:
        assert (code, out) == (2, "")
    else:
        assert (code, err) == (0, "")
        assert f"sigma_n: {-int(euler) // 2}\n" in out

    code, out, err = invoke("zerosum", "--vectors", vectors, "--exact", "--effort", effort)
    if within_cap(effort):
        assert (code, out, err) == (0, "{1,2,3}\n", "")
    else:
        assert (code, out) == (2, "")
        assert err.endswith(f"argument --effort: has more than {CAP} digits\n")


def run_under_the_lowest_limit(
    argv: tuple[str, ...], env: dict[str, str], head: int = 0
) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter at LOWEST_LIMIT.

    With `head`, stdout is closed after its first `head` characters, as
    `| head -c` would close it.
    """
    source = os.path.dirname(os.path.dirname(cli.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "excess_kit.cli", *argv],
        env=os.environ | env | {"PYTHONPATH": source, "PYTHONINTMAXSTRDIGITS": str(LOWEST_LIMIT)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        encoding="utf-8",
    ) as process:
        if not head:
            out, err = process.communicate(timeout=60)
            return process.returncode, out, err
        out = process.stdout.read(head)
        process.stdout.close()
        err = process.stderr.read()
        return process.wait(timeout=60), out, err


@pytest.mark.parametrize("digits", [LOWEST_CAP, LOWEST_CAP + 1], ids=["at-the-cap", "past-the-cap"])
def test_every_command_under_the_lowest_interpreter_limit(tmp_path, digits):
    # At the cap every total prints and each command exits by its verdict;
    # one digit more is an input error at the field's line or the option.
    big = "9" * digits
    n = int(big)
    fields = f"name: big\nsignature: 0\neuler_characteristic: {big}\nb1_f2: 0\n"
    profile = write(tmp_path, "profile.txt", fields)
    catalog = write(tmp_path, "catalog.txt", "[profile]\n" + fields)
    family = write(tmp_path, "family.txt", family_text([("1", big)] * 2))
    budget = f"d_of_m: {4 * (n - 2)}\nb_of_m: {10 * (n - 2)}\n"
    lhs = f"excess (lhs): {2 * n - 4}\n"
    too_long = f"has more than {LOWEST_CAP} digits\n"
    chi_fault = f"field 'euler_characteristic' {too_long}"
    euler_fault = f"{family}:4: field 'euler_number' {too_long}"
    runs = [
        (("bound", "--manifold", profile), {}, 0, budget, f"{profile}:3: {chi_fault}"),
        (("catalog", "show", "big"), {CATALOG_ENV_VAR: catalog}, 0, budget,
         f"{catalog}:4: {chi_fault}"),
        (("check", "--manifold", "s4", "--family", family), {}, 1, lhs, euler_fault),
        (("check", "--manifold", "s4", "--family", family, "--format", "json"), {}, 1,
         f'"lhs": {2 * n - 4},\n', euler_fault),
        (("audit", "--manifold", "s4", "--planes", family), {}, 1, lhs, euler_fault),
        (("tube", "--family", family), {}, 0, f"euler_number: {2 * n}\n", euler_fault),
        (("cover", "--manifold", "s4", "--genus", big, "--euler", big[:-1] + "8"), {}, 0,
         f"sigma_n: {-(n - 1) // 2}\n", f"argument --genus: {too_long}"),
    ]
    for argv, env, verdict, total, fault in runs:
        code, out, err = run_under_the_lowest_limit(argv, env)
        if digits <= LOWEST_CAP:
            assert (code, err) == (verdict, "")
            assert total in out
        else:
            assert (code, out) == (2, "")
            assert err.endswith(fault)

    # massey streams 10^340 values; a closed stdout ends it.
    code, out, err = run_under_the_lowest_limit(("massey", "--genus", big), {}, head=4096)
    if digits <= LOWEST_CAP:
        assert (code, err) == (141, "")
        assert out.startswith(f"{-2 * n} {-2 * n + 4} ")
    else:
        assert (code, out) == (2, "")
        assert err.endswith(f"argument --genus: {too_long}")


def test_no_interpreter_limit_getter_means_the_4000_digit_cap(monkeypatch):
    # Python 3.10.0 to 3.10.6 have no sys.get_int_max_str_digits, and no limit.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert parse_decimal("9" * CAP) == 10**CAP - 1
    with pytest.raises(ValueError, match=f"^more than {CAP} digits$"):
        parse_decimal("9" * (CAP + 1))


class _OneWrite:
    """A stdout whose reader goes away after the first write."""

    def __init__(self):
        self.text = ""

    def write(self, text: str) -> int:
        if self.text:
            raise BrokenPipeError(32, "Broken pipe")
        self.text = text
        return len(text)

    def flush(self) -> None:
        pass


def test_massey_genus_past_sys_maxsize_streams_until_the_pipe_closes():
    sink, err = _OneWrite(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = cli.run(["massey", "--genus", "10000000000000000000"])
    assert (code, err.getvalue()) == (141, "")  # 128 + SIGPIPE, as for a closed pipe
    assert sink.text.startswith("-20000000000000000000 -19999999999999999996 ")
    assert len(sink.text.split()) == 4096


def test_effort_exceeded_message_for_a_node_count_past_the_conversion_limit(tmp_path):
    # 30,000 copies of one vector have rank 1: the kernel scan would visit
    # 2^29999 nodes, the syndrome DP fills 2 * 30,000 entries and solves it.
    vectors = write(tmp_path, "vectors.txt", "01\n" * 30_000)
    code, out, err = invoke("zerosum", "--vectors", vectors, "--exact")
    assert (code, err) == (0, "")
    assert out == "{" + ",".join(map(str, range(1, 30_001))) + "}\n"
    # 2^15000 + 2^15000 has 4516 digits, past the conversion limit.
    exc = EffortExceeded(2 * 2**15000, 1 << 22, SubsetCertificate(frozenset(range(1, 30_001))))
    assert str(exc) == (
        "exact search needs at least 2^15001 nodes, budget is 4194304; "
        "constructive certificate of size 30000 is attached"
    )


def test_vector_file_bit_string_fault_is_located(tmp_path):
    vectors = write(tmp_path, "vectors.txt", "10\n# comment\n1a\n")
    code, out, err = invoke("zerosum", "--vectors", vectors)
    assert (code, out) == (2, "")
    assert err == f"{vectors}:3: not a bit string: '1a'\n"
