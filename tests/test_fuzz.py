"""Fuzzed input files through the CLI.

Arbitrary bytes and near-valid mutations of each file format (family,
profile, catalog, vectors) go to `tube`, `check`, `audit` and constructive
`zerosum` through cli.run. Whatever the input, a run must end in exit 0, 1
or 2 (never the internal-error code 3), print no traceback, and put at most
one line on stderr.

Edits confined to the head of family and catalog files (the lines before
the first block header) go to `tube` and `catalog list`; there a failed run
must print exactly one stderr line, located as `path:line:`.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from excess_kit import cli
from excess_kit.fileio import CATALOG_ENV_VAR

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=50)

FAMILY = (
    b"# family\nambient: s4\n\n[surface]\ngenus: 1\neuler_number: 4\nclass:\n"
    b"[surface]\ngenus: 1\neuler_number: 6\nclass:\n"
)
PROFILE = b"name: demo\nsignature: 1\neuler_characteristic: 3\nb1_f2: 0\n"
CATALOG = (
    b"[profile]\nname: extra\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"
    b"\n[profile]\nname: more\nsignature: -1\neuler_characteristic: 3\nb1_f2: 0\n"
)
VECTORS = b"# vectors\n1010\n0110\n1100\n0001\n1111\n"

# Values and fragments near the formats' edges: plausible values, bad bytes,
# non-ASCII digits, huge and signed integers, separators and headers.
TOKENS = [
    b"", b"0", b"1", b"2", b"-4", b"+6", b"00", b"01", b"s4", b"extra",
    b"\xff", b"\xc3", b"\x00", b"\r", b"\x0b", "\u2028".encode(),
    "\u0661\u0662".encode(), "\uff15".encode(), b"1_000", b"-", b"9" * 40,
    b"9" * 5000, b"0" * 300, b":", b" ", b"#", b"[", b"[surface]", b"[profile]",
    b"[other]", b"ambient: s4", b"genus: 1", b"class: 1", b"name: s4",
]


@st.composite
def near_valid(draw, seed: bytes) -> bytes:
    """The seed with one to three line edits: new value, insertion, deletion, copy."""
    lines = seed.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("value", "insert", "delete", "copy")))
        if edit == "value":
            key, sep, _ = lines[i].partition(b":")
            lines[i] = key + sep + b" " + draw(st.sampled_from(TOKENS))
        elif edit == "insert":
            pos = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:pos] + draw(st.sampled_from(TOKENS)) + lines[i][pos:]
        elif edit == "delete" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return b"\n".join(lines)


def inputs(seed: bytes):
    return st.one_of(st.binary(max_size=300), near_valid(seed))


# Keys a renamed head line may get: the family's own, block fields, near
# misses and none at all.
HEAD_KEYS = [b"ambient", b"name", b"genus", b"class", b"color", b"Ambient", b"", b"am bient"]

# A catalog seed with a head to edit: lines that belong in a [profile] block.
# The family seed's head is its `ambient` line.
CATALOG_HEAD = b"# extra profiles\nname: extra\nsignature: 0\n\n" + CATALOG


@st.composite
def head_edits(draw, seed: bytes, header: bytes) -> bytes:
    """The seed with one to three edits to content lines before the first header.

    An edit duplicates, drops, renames the key of or removes the colon from
    a head line, or moves it to the end of a block.
    """
    lines = seed.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        first = lines.index(header) if header in lines else len(lines)
        head = [i for i in range(first) if lines[i] and not lines[i].startswith(b"#")]
        if not head:
            break
        i = draw(st.sampled_from(head))
        edit = draw(st.sampled_from(("duplicate", "drop", "rename", "colon", "move")))
        if edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "drop":
            del lines[i]
        elif edit == "rename":
            _, sep, value = lines[i].partition(b":")
            lines[i] = draw(st.sampled_from(HEAD_KEYS)) + sep + value
        elif edit == "colon":
            lines[i] = lines[i].replace(b":", b"", 1)
        else:
            block_ends = [j for j in range(first + 1, len(lines)) if lines[j] == header]
            end = draw(st.sampled_from(block_ends + [len(lines)]))
            lines.insert(end, lines[i])
            del lines[i]
    return b"\n".join(lines)


def run_clean(argv: list[str], catalog: str | None = None) -> tuple[int, str]:
    """Run the CLI in-process, check the exit code and stderr shape.

    Returns the exit code and the stderr text.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop(CATALOG_ENV_VAR, None)
        if catalog is not None:
            os.environ[CATALOG_ENV_VAR] = catalog
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code, message)
    assert "Traceback" not in message
    assert len(message.splitlines()) <= 1, message
    return code, message


def assert_located(code: int, message: str, path: str) -> None:
    """Exit 0 with nothing on stderr, or exit 2 with one `path:line:` line."""
    assert code in (0, 2), (code, message)
    if code == 0:
        assert message == ""
    else:
        assert re.fullmatch(re.escape(path) + r":\d+: [^\n]+\n", message), message


def write(directory, name: str, data: bytes) -> str:
    path = directory / name
    path.write_bytes(data)
    return str(path)


@FUZZ
@given(data=inputs(FAMILY))
def test_family_files(tmp_path_factory, data):
    family = write(tmp_path_factory.mktemp("fuzz"), "family.txt", data)
    run_clean(["tube", "--family", family])
    run_clean(["check", "--manifold", "s4", "--family", family])
    run_clean(["audit", "--manifold", "s4", "--planes", family])


@FUZZ
@given(data=inputs(PROFILE))
def test_profile_files(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("fuzz")
    profile = write(directory, "profile.txt", data)
    family = write(
        directory,
        "family.txt",
        f"ambient: {profile}\n[surface]\ngenus: 1\neuler_number: 4\nclass: 0\n".encode(),
    )
    run_clean(["tube", "--family", family])
    run_clean(["check", "--manifold", profile, "--family", family])
    run_clean(["audit", "--manifold", profile, "--planes", family])


@FUZZ
@given(data=inputs(CATALOG))
def test_catalog_files(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("fuzz")
    catalog = write(directory, "catalog.txt", data)
    family = write(
        directory,
        "family.txt",
        b"ambient: extra\n[surface]\ngenus: 1\neuler_number: 4\nclass: 00\n",
    )
    run_clean(["tube", "--family", family], catalog)
    run_clean(["check", "--manifold", "extra", "--family", family], catalog)
    run_clean(["audit", "--manifold", "extra", "--planes", family], catalog)


@FUZZ
@given(data=inputs(VECTORS))
def test_vector_files(tmp_path_factory, data):
    vectors = write(tmp_path_factory.mktemp("fuzz"), "vectors.txt", data)
    run_clean(["zerosum", "--vectors", vectors])


@FUZZ
@given(data=head_edits(FAMILY, b"[surface]"))
def test_family_head_edits(tmp_path_factory, data):
    family = write(tmp_path_factory.mktemp("fuzz"), "family.txt", data)
    assert_located(*run_clean(["tube", "--family", family]), family)


@FUZZ
@given(data=head_edits(CATALOG_HEAD, b"[profile]"))
def test_catalog_head_edits(tmp_path_factory, data):
    catalog = write(tmp_path_factory.mktemp("fuzz"), "catalog.txt", data)
    assert_located(*run_clean(["catalog", "list"], catalog), catalog)
