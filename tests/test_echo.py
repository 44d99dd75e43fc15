"""A rejected value is quoted in its message at a bounded length.

Every message that quotes an input value does so through one helper: a
value of up to 64 characters keeps its full repr, a longer one shows the
repr of its first 64 characters and its length. So a 300,000-character
field, line or option still gives exit 2 and one short located stderr line.
Options this long exceed the OS limit on one argument, so they go to
cli.run in-process.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from unittest import mock

import pytest

from excess_kit import cli
from excess_kit.fileio import CATALOG_ENV_VAR, parse_decimal

LONG = 300_000
MAX_STDERR = 400
CUT = re.compile(r"\.\.\. \(\d+ characters\)")

SURFACE = "[surface]\ngenus: 1\neuler_number: 4\nclass:\n"
PROFILE = "[profile]\nname: {name}\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


# (file text, argv with {path} for the file, expected start of stderr)
FILE_SITES = {
    "line without a colon": (
        "ambient: s4\n[surface]\n" + "g" * LONG + "\n",
        ("tube", "--family", "{path}"),
        "{path}:3: expected 'field: value', got 'ggg",
    ),
    "unknown field": (
        "ambient: s4\n[surface]\n" + "k" * LONG + ": 1\n",
        ("tube", "--family", "{path}"),
        "{path}:3: unknown surface field 'kkk",
    ),
    "unknown section": (
        "ambient: s4\n[" + "s" * LONG + "]\n" + SURFACE,
        ("tube", "--family", "{path}"),
        "{path}:2: unknown section '[sss",
    ),
    "integer field": (
        "ambient: s4\n[surface]\ngenus: 1\neuler_number: " + "9" * 200_000 + "x\nclass:\n",
        ("check", "--manifold", "s4", "--family", "{path}"),
        "{path}:4: field 'euler_number' needs an integer, got '999",
    ),
    "class bit string": (
        "ambient: s4\n[surface]\ngenus: 1\neuler_number: 4\nclass: " + "2" * LONG + "\n",
        ("tube", "--family", "{path}"),
        "{path}:5: field 'class' is not a bit string: '222",
    ),
    "ambient reference": (
        "ambient: " + "a" * LONG + "\n" + SURFACE,
        ("tube", "--family", "{path}"),
        "{path}:1: profile reference 'aaa",
    ),
    "vector line": (
        "0" * LONG + "2\n",
        ("zerosum", "--vectors", "{path}"),
        "{path}:1: not a bit string: '000",
    ),
    "duplicate profile name": (
        PROFILE.format(name="n" * LONG) + PROFILE.format(name="n" * LONG),
        ("bound", "--manifold", "s4"),
        "{path}:6: duplicate profile name 'nnn",
    ),
}


@pytest.mark.parametrize("site", sorted(FILE_SITES))
def test_file_value_is_quoted_briefly(tmp_path, site):
    text, argv, prefix = FILE_SITES[site]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    env = {CATALOG_ENV_VAR: str(path)} if site == "duplicate profile name" else {}
    with mock.patch.dict(os.environ, env):
        code, out, err = invoke(*(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(prefix.format(path=path))
    assert err.count("\n") == 1
    assert CUT.search(err)
    assert len(err.encode("utf-8")) < MAX_STDERR


# (argv, expected start of the last stderr line)
OPTION_SITES = {
    "--manifold": (
        ("bound", "--manifold", "m" * LONG),
        "profile reference 'mmm",
    ),
    "--class": (
        ("cover", "--manifold", "s4", "--genus", "1", "--euler", "2", "--class", "2" * LONG),
        "not a bit string: '222",
    ),
    "catalog show": (
        ("catalog", "show", "c" * LONG),
        "unknown catalog profile 'ccc",
    ),
    "--genus": (
        ("massey", "--genus", "x" * LONG),
        "excess-kit massey: error: argument --genus: invalid int value: 'xxx",
    ),
}


@pytest.mark.parametrize("site", sorted(OPTION_SITES))
def test_option_value_is_quoted_briefly(site):
    argv, prefix = OPTION_SITES[site]
    code, out, err = invoke(*argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith(prefix)
    assert CUT.search(err)
    assert len(err.encode("utf-8")) < MAX_STDERR


def test_parse_decimal_quotes_briefly():
    with pytest.raises(ValueError) as exc_info:
        parse_decimal("9" * 200_000 + "x")
    message = str(exc_info.value)
    assert message.startswith("not a decimal integer: '999")
    assert message.endswith("... (200001 characters)")
    assert len(message) < MAX_STDERR


def test_quote_keeps_short_values_whole():
    from excess_kit.errors import _quote

    assert _quote("x" * 64) == repr("x" * 64)
    assert _quote("'\n") == repr("'\n")
    assert _quote("y" * 65) == repr("y" * 64) + "... (65 characters)"
