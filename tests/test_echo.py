"""A rejected value is quoted in its message at a bounded length.

Every message that quotes an input value does so through one helper: a
value of up to 64 characters keeps its full repr, a longer one shows the
repr of its first 64 characters and its length. So a 300,000-character
field, line or option still gives exit 2 and one short located stderr line.
Options this long exceed the OS limit on one argument, so they go to
cli.run in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
from unittest import mock

import pytest

from excess_kit import cli, fileio
from excess_kit.engine import excess_check
from excess_kit.errors import CatalogError, DimensionMismatch
from excess_kit.fileio import CATALOG_ENV_VAR, parse_decimal
from excess_kit.gf2 import Gf2Vector
from excess_kit.manifolds import ManifoldProfile
from excess_kit.surfaces import SurfaceDatum, SurfaceFamily

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
    "--family missing path": (
        ("tube", "--family", "p" * LONG),
        "[Errno 36] File name too long: 'ppp",
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


# argv whose rejected value argparse itself echoes; its wording is not pinned.
ARGPARSE_SITES = {
    "--format choice": ("check", "--manifold", "s4", "--family", "f", "--format", "j" * LONG),
    "command name": ("c" * LONG,),
    "catalog command": ("catalog", "c" * LONG),
    "extra argument": ("massey", "--genus", "1", "x" * LONG),
    "ambiguous option with a value": ("check", "--f=" + "x" * LONG),
    "--exact=value": ("audit", "--manifold", "s4", "--planes", "p", "--exact=" + "x" * LONG),
    "--help=value": ("check", "--help=" + "x" * LONG),
    "--format=choice": ("check", "--format=" + "j" * LONG),
}


@pytest.mark.parametrize("site", sorted(ARGPARSE_SITES))
def test_argparse_value_is_quoted_briefly(site):
    code, out, err = invoke(*ARGPARSE_SITES[site])
    assert code == 2
    assert out == ""
    assert len(CUT.findall(err)) == 1
    assert len(err.encode("utf-8")) < 600


def test_argparse_short_values_keep_their_bytes():
    code, _, err = invoke("check", "--manifold", "s4", "--family", "f", "--format", "j" * 64)
    assert code == 2
    assert repr("j" * 64) + " " in err
    code, _, err = invoke("massey", "--genus", "1", "x" * 64)
    assert code == 2
    assert err.endswith(": " + "x" * 64 + "\n")


# Usage errors with short values, one per kind of argparse rejection.
SHORT_USAGE_ERRORS = (
    (),
    ("check", "--manifold", "s4"),
    ("check", "--manifold", "s4", "--family", "f", "--format", "xml"),
    ("nope",),
    ("massey", "--genus", "1", "x"),
    ("check", "--f=x"),
    ("audit", "--exact=1"),
    ("massey", "--genus", "x"),
)


@pytest.mark.parametrize(
    "argv", SHORT_USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no command"
)
def test_usage_errors_match_stock_argparse(argv):
    err = io.StringIO()
    with mock.patch.object(cli._Parser, "error", argparse.ArgumentParser.error):
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc_info:
            cli.build_parser().parse_args(list(argv))
    assert invoke(*argv) == (exc_info.value.code, "", err.getvalue())


def profile_text(name: str, signature: int, chi: int) -> str:
    return f"name: {name}\nsignature: {signature}\neuler_characteristic: {chi}\nb1_f2: 0\n"


NAME = "n" * LONG

# (profile fields of a profile file named NAME, family text with {profile} for
# its path or None, argv with {profile} and {family})
NAME_SITES = {
    "family ambient differs from --manifold": (
        (0, 4),
        "ambient: {profile}\n[surface]\ngenus: 1\neuler_number: 4\nclass: 00\n",
        ("check", "--manifold", "s4", "--family", "{family}"),
    ),
    "class length differs from ambient b2": (
        (0, 4),
        "ambient: {profile}\n" + SURFACE,
        ("tube", "--family", "{family}"),
    ),
    "negative b2": ((0, 0), None, ("bound", "--manifold", "{profile}")),
    "signature exceeds b2": ((1, 2), None, ("bound", "--manifold", "{profile}")),
    "cover class dimension": (
        (0, 2),
        None,
        ("cover", "--manifold", "{profile}", "--genus", "1", "--euler", "2", "--class", "1"),
    ),
}


@pytest.mark.parametrize("site", sorted(NAME_SITES))
def test_profile_name_is_cut(tmp_path, site):
    (signature, chi), family_text, argv = NAME_SITES[site]
    profile = tmp_path / "profile.txt"
    profile.write_text(profile_text(NAME, signature, chi), encoding="utf-8")
    family = tmp_path / "family.txt"
    if family_text is not None:
        family.write_text(family_text.format(profile=profile), encoding="utf-8")
    code, out, err = invoke(*(a.format(profile=profile, family=family) for a in argv))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert len(CUT.findall(err)) == 1
    assert len(err.encode("utf-8")) < MAX_STDERR


def test_engine_dimension_message_cuts_the_name():
    profile = ManifoldProfile(NAME, signature=0, euler_characteristic=2, b1_f2=0)
    family = SurfaceFamily(1, (SurfaceDatum(1, 2, Gf2Vector.zero(1)),))
    with pytest.raises(DimensionMismatch) as exc_info:
        excess_check(profile, family)
    assert CUT.search(str(exc_info.value))
    assert len(str(exc_info.value)) < MAX_STDERR


def test_missing_catalog_path_is_cut():
    with pytest.raises(CatalogError) as exc_info:
        fileio.load_catalog(env={CATALOG_ENV_VAR: "c" * 100_000})
    assert str(exc_info.value).startswith(f"{CATALOG_ENV_VAR} points to a missing file: 'ccc")
    assert CUT.search(str(exc_info.value))
    assert len(str(exc_info.value)) < MAX_STDERR


def test_catalog_collision_message_cuts_the_name(tmp_path, monkeypatch):
    path = tmp_path / "extra.txt"
    path.write_text("[profile]\n" + profile_text(NAME, 0, 2), encoding="utf-8")
    monkeypatch.setattr(fileio, "builtin_catalog", lambda: fileio.read_catalog_file(str(path)))
    with pytest.raises(CatalogError) as exc_info:
        fileio.load_catalog(env={CATALOG_ENV_VAR: str(path)})
    assert CUT.search(str(exc_info.value))
    assert len(str(exc_info.value)) < MAX_STDERR


def test_short_bare_name_stays_bare():
    from excess_kit.errors import _bare

    assert _bare("x" * 64) == "x" * 64
    assert _bare("y" * 65) == repr("y" * 64) + "... (65 characters)"


@pytest.mark.parametrize("dim", [64, LONG])
def test_nonzero_cover_class_is_cut(tmp_path, dim):
    """A class of up to 64 bits is echoed whole, a longer one cut like any bit string."""
    profile = tmp_path / "profile.txt"
    profile.write_text(profile_text("wide", 0, dim + 2), encoding="utf-8")
    bits = "1" * dim
    code, out, err = invoke(
        "cover", "--manifold", str(profile), "--genus", "1", "--euler", "2", "--class", bits
    )
    shown = bits if dim <= 64 else f"{bits[:64]!r}... ({dim} characters)"
    assert code == 2 and out == ""
    assert err == f"branch surface class {shown} is nonzero mod 2\n"
    assert len(err.encode("utf-8")) < MAX_STDERR
