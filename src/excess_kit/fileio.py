"""Strict parsers for the on-disk formats and the profile catalog.

All formats are UTF-8 text with lines ended by \\n, \\r\\n or \\r only. Blank
lines and `#` comments are ignored everywhere, fields are `key: value`
pairs, and block headers are bracketed section names. Unknown or duplicate
fields are errors — fixture typos must fail loudly, not silently default.

Every format is read by one loop, `_scan`, in a single pass over the decoded
text: it drops blank and comment lines and checks each line's form as it
goes, so these rules exist once for all four formats. Faults are reported in
two phases. First the scan reports the first fault of line form in file
order (an unknown section, a missing colon, an unknown or duplicate field).
Only when every line has its form are the values checked: the fields before
the first block (a family's `ambient` resolved), then the blocks in file
order, each built into its value once its fields have been checked.

A family file is read by a fast step or by the scan. A file in the plain
layout takes the fast step: it is ASCII with `\n` line ends and no comments,
an `ambient: <ref>` line, then `[surface]` blocks of `genus: <int>`,
`euler_number: <int>` and `class:` (then optionally a space and the bits) in
that order, each block after one blank line or none, with no other
whitespace around a line. One compiled match reads the ambient line and one
`findall` checks and reads every block. The patterns have checked the form
of each integer and class, so plain blocks are checked once more, for their
values only: the blocks are transposed, the digit cap and the class length
are tested once per column, each integer column is converted in one pass,
and each member's class text becomes one mask. int()'s conversion limit and
genus >= 1 come from int() and the family's column constructor. Any other
layout, and any plain file with a value the fast step doubts, takes the
scan, the only source of line numbers: its blocks go to the one checked loop
that raises the fault, so the values and faults of a family do not depend
on its layout.

Both paths end in the same build step: the genus, Euler and class-mask
columns go to `SurfaceFamily._from_columns`, and no member record is built
from a file. The family's `members` are built only if a caller asks for
them.
"""

from __future__ import annotations

import os
import re
import sys
from typing import NoReturn

from .errors import (
    CatalogError, InvalidGenus, NegativeB2, ParseError, SignatureExceedsRank, _bare, _quote,
)
from .gf2 import Gf2Collection, Gf2Vector
from .manifolds import ManifoldProfile, validate_profile
from .surfaces import SurfaceFamily

__all__ = [
    "read_vector_file",
    "read_profile_file",
    "read_catalog_file",
    "builtin_catalog",
    "load_catalog",
    "resolve_profile",
    "read_family_file",
    "parse_decimal",
    "CATALOG_ENV_VAR",
]

CATALOG_ENV_VAR = "EXCESS_KIT_CATALOG"

_PROFILE_FIELDS = ("name", "signature", "euler_characteristic", "b1_f2")
_SURFACE_FIELDS = ("genus", "euler_number", "class")

_Field = tuple[int, str]
_Fields = dict[str, _Field]
# One plain-layout block as _PLAIN_BLOCK's findall gives it: the genus,
# euler_number and class texts, then an empty group.
_Block = tuple[str, str, str, str]


def _split_lines(text: str) -> list[str]:
    """Lines ended by \\n, \\r\\n or \\r only, unlike str.splitlines()."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_text(path: str) -> str:
    """The file's text, decoded as UTF-8; a bad byte is a fault at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; it sits on their last line.
        line = len(_split_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(
            path, line, f"invalid UTF-8: {exc.reason} at byte offset {exc.start}"
        ) from None


def _scan(
    path: str, text: str, what: str, head_keys: tuple[str, ...], header: str = "",
    block_keys: tuple[str, ...] = (),
) -> tuple[_Fields, list[tuple[int, _Fields]], list[tuple[int, str]]]:
    """Read a file's text in one pass: its head fields, its blocks and its bare lines.

    A content line is a line stripped of surrounding whitespace that is
    neither blank nor a `#` comment. The content lines before the first
    `header` line are the head, `what` fields named in `head_keys`; each
    `header` line opens a block of fields named in `block_keys`. A field line
    is `key: value`, and a line without a colon, an unknown key and a key
    already in its head or block are faults. When there is a `header`, any
    other line that starts with `[` is an unknown section. A head with no
    field names keeps its content lines bare: a vector file's vectors, or a
    catalog's lines before its first block.

    Returns the head fields, one (header line number, {field: (line number,
    value)}) per block and the (line number, line) of each bare line.
    """
    head: _Fields = {}
    blocks: list[tuple[int, _Fields]] = []
    bare: list[tuple[int, str]] = []
    fields, keys = head, head_keys
    for number, line in enumerate(_split_lines(text), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line == header:
            fields, keys, what = {}, block_keys, header[1:-1]
            blocks.append((number, fields))
        elif header and line[0] == "[":
            raise ParseError(path, number, f"unknown section {_quote(line)}")
        elif not keys:
            bare.append((number, line))
        else:
            # The line is stripped, so the key ends and the value starts with
            # the only whitespace left to strip.
            key, sep, value = line.partition(":")
            if not sep:
                raise ParseError(path, number, f"expected 'field: value', got {_quote(line)}")
            key = key.rstrip()
            if key not in keys:
                raise ParseError(path, number, f"unknown {what} field {_quote(key)}")
            if key in fields:
                raise ParseError(path, number, f"duplicate field {key!r}")
            fields[key] = (number, value.lstrip())
    return head, blocks, bare


# A plain-layout family file (see the module docstring). _PLAIN_HEAD reads
# the ambient line, and its lookahead checks that a block follows.
# _PLAIN_BLOCK reads one block per match, with the blank line before it if
# any, or else the rest of the text into group 4, so that one findall both
# checks and reads the blocks. (One match over the whole file would keep a
# backtracking frame per block: 2.2 MB for a 1,305-member family.)
_PLAIN_HEAD = re.compile(r"ambient: ([!-~](?:[ -~]*[!-~])?)\n(?=\n?\[surface\]\n)")
_PLAIN_BLOCK = re.compile(
    r"\n?\[surface\]\ngenus: ([+-]?[0-9]+)\neuler_number: ([+-]?[0-9]+)\n"
    r"class:(?: ([01]*))?\n|([\s\S]+)"
)


def _plain_family(text: str) -> tuple[_Field, list[_Block]] | None:
    """The ambient field and blocks of a family text in the plain layout, for the fast step.

    Each block, after one blank line or none, is its genus, euler_number
    and class texts (and an empty fourth group). The fields carry no line
    numbers, which only the scan gives. Never raises: a text in any other
    layout gives None, and goes to the scan.
    """
    head = _PLAIN_HEAD.match(text)
    if head is None:
        return None
    blocks = _PLAIN_BLOCK.findall(text, head.end())
    if blocks[-1][3]:
        return None
    return (1, head[1]), blocks


def _scan_family(path: str, text: str) -> tuple[_Field | None, list[tuple[int, _Fields]]]:
    """The ambient field (None when missing) and _scan's blocks of a family text."""
    head, blocks, _ = _scan(path, text, "family", ("ambient",), "[surface]", _SURFACE_FIELDS)
    return head.get("ambient"), blocks


def _missing(path: str, start: int, key: str, what: str) -> NoReturn:
    """Raise the error for a missing field.

    A field is a nonempty tuple, so a required one is read as
    `fields.get(key) or _missing(...)`.
    """
    raise ParseError(path, start, f"{what} is missing field {key!r}")


# Python refuses int/str conversion past 4300 digits. A sum of m integers of
# at most _MAX_DIGITS digits has at most _MAX_DIGITS + log10(m) + 1 digits,
# so no integer derived from accepted input comes near that limit on output.
_MAX_DIGITS = 4000


class _TooManyDigits(ValueError):
    """A decimal integer longer than _MAX_DIGITS digits, or than int() accepts."""


def parse_decimal(text: str) -> int:
    """An optional sign followed by at most 4000 ASCII digits, as an int.

    Raises ValueError for anything else, including the non-ASCII digits,
    underscores and surrounding whitespace that int() would accept.
    """
    if not (text.isascii() and (text.isdigit() or (text[1:].isdigit() and text[0] in "+-"))):
        raise ValueError(f"not a decimal integer: {_quote(text)}")
    if len(text.lstrip("+-")) > _MAX_DIGITS:
        raise _TooManyDigits(f"more than {_MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        # The text is a decimal integer, so only the interpreter's conversion
        # limit refuses it: PYTHONINTMAXSTRDIGITS may set it below the cap.
        raise _TooManyDigits(
            f"more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's integer conversion limit"
        ) from None


def _int_field(path: str, start: int, fields: _Fields, key: str, what: str) -> tuple[int, int]:
    """(line number, value) of a required integer field."""
    num, raw = fields.get(key) or _missing(path, start, key, what)
    try:
        return num, parse_decimal(raw)
    except _TooManyDigits as exc:
        raise ParseError(path, num, f"field {key!r} has {exc}") from None
    except ValueError:
        raise ParseError(
            path, num, f"field {key!r} needs an integer, got {_quote(raw)}"
        ) from None


def read_vector_file(path: str) -> Gf2Collection:
    """Read one bit-string vector per line; all lines must share a length."""
    vectors: list[Gf2Vector] = []
    dim: int | None = None
    for number, line in _scan(path, _read_text(path), "vector", ())[2]:
        try:
            vector = Gf2Vector.from_string(line)
        except ValueError as exc:
            raise ParseError(path, number, str(exc)) from None
        if dim is None:
            dim = vector.dim
        elif vector.dim != dim:
            raise ParseError(
                path, number, f"vector length {vector.dim} differs from first length {dim}"
            )
        vectors.append(vector)
    return Gf2Collection(dim=dim or 0, vectors=tuple(vectors))


def _profile_from_fields(path: str, start: int, fields: _Fields) -> ManifoldProfile:
    """Build and validate one profile; `start` is its header line, 0 if none.

    An invalid profile keeps its exception class and gains the location of
    its header, or of its first field when it has no header.
    """
    num, name = fields.get("name") or _missing(path, start, "name", "profile")
    if not name:
        raise ParseError(path, num, "field 'name' is empty")
    _, signature = _int_field(path, start, fields, "signature", "profile")
    _, chi = _int_field(path, start, fields, "euler_characteristic", "profile")
    num, b1 = _int_field(path, start, fields, "b1_f2", "profile")
    if b1 < 0:
        raise ParseError(path, num, f"field 'b1_f2' must be nonnegative, got {b1}")
    profile = ManifoldProfile(
        name=name, signature=signature, euler_characteristic=chi, b1_f2=b1
    )
    try:
        return validate_profile(profile)
    except (NegativeB2, SignatureExceedsRank) as exc:
        line = start or min(number for number, _ in fields.values())
        raise type(exc)(f"{path}:{line}: {exc}") from None


def read_profile_file(path: str) -> ManifoldProfile:
    """Read a single profile: the four fields, no block header."""
    head = _scan(path, _read_text(path), "profile", _PROFILE_FIELDS)[0]
    return _profile_from_fields(path, 0, head)


def read_catalog_file(path: str) -> dict[str, ManifoldProfile]:
    """Read a catalog of [profile] blocks, each validated on load."""
    _, blocks, bare = _scan(
        path, _read_text(path), "catalog", (), "[profile]", _PROFILE_FIELDS
    )
    if bare:
        raise ParseError(path, bare[0][0], "field outside a [profile] block")
    profiles: dict[str, ManifoldProfile] = {}
    for start, fields in blocks:
        profile = _profile_from_fields(path, start, fields)
        if profile.name in profiles:
            raise ParseError(
                path, start, f"duplicate profile name {_quote(profile.name)}"
            )
        profiles[profile.name] = profile
    return profiles


def builtin_catalog() -> dict[str, ManifoldProfile]:
    """A new dict of s4 (homology 4-sphere), the one profile the acceptance suite certifies."""
    return {"s4": ManifoldProfile("s4", signature=0, euler_characteristic=2, b1_f2=0)}


def load_catalog(env: dict[str, str] | None = None) -> dict[str, ManifoldProfile]:
    """Built-in catalog merged with the optional environment catalog.

    A name appearing in both is an error: silently shadowing a shipped
    profile would change results without any visible input difference.
    """
    catalog = builtin_catalog()
    env_map = os.environ if env is None else env
    extra_path = env_map.get(CATALOG_ENV_VAR)
    if extra_path:
        if not os.path.isfile(extra_path):
            raise CatalogError(
                f"{CATALOG_ENV_VAR} points to a missing file: {_bare(extra_path)}"
            )
        for name, profile in read_catalog_file(extra_path).items():
            if name in catalog:
                raise CatalogError(
                    f"profile {_quote(name)} from {extra_path} collides with a catalog entry"
                )
            catalog[name] = profile
    return catalog


def resolve_profile(
    ref: str, catalog: dict[str, ManifoldProfile] | None = None
) -> ManifoldProfile:
    """Resolve a profile reference: catalog name first, then file path."""
    if catalog is None:
        catalog = load_catalog()
    if ref in catalog:
        return catalog[ref]
    if os.path.isfile(ref):
        return read_profile_file(ref)
    raise CatalogError(
        f"profile reference {_quote(ref)} is neither a catalog name nor an existing file"
    )


def read_family_file(
    path: str, catalog: dict[str, ManifoldProfile] | None = None
) -> tuple[ManifoldProfile, SurfaceFamily]:
    """Read a family file: an `ambient` reference, then [surface] blocks.

    Each member needs exact fields genus / euler_number / class; the class
    bit string must have length equal to the ambient profile's b2_f2 (empty
    when that is zero). Returns the ambient profile, used as resolved since
    catalogs and profile files are validated when loaded, and the family.

    A file in the plain layout (see the module docstring) takes the fast
    step, two compiled patterns. Any other layout, and a plain file with a
    value the fast step doubts, takes the line scan, the only source of line
    numbers; it gives the same values and the same faults, only more slowly.
    Either way the family is built from its columns, and builds its members
    when first asked for them.
    """
    text = _read_text(path)
    plain = _plain_family(text)
    ambient_field, blocks = _scan_family(path, text) if plain is None else plain
    ambient_line, ref = ambient_field or _missing(path, 0, "ambient", "family")
    if not ref:
        raise ParseError(path, ambient_line, "field 'ambient' is empty")
    try:
        ambient = resolve_profile(ref, catalog)
    except CatalogError as exc:
        raise ParseError(path, ambient_line, str(exc)) from None
    if not blocks:
        raise ParseError(path, ambient_line, "family has no [surface] blocks")

    family = None if plain is None else _plain_columns(blocks, ambient.b2_f2)
    if family is None:
        if plain is not None:
            # A plain text has no fault of line form, so this read cannot
            # raise: the checked loop names the doubted value's line.
            blocks = _scan_family(path, text)[1]
        family = _checked_columns(path, ambient, blocks)
    return ambient, family


def _plain_columns(blocks: list[_Block], dim: int) -> SurfaceFamily | None:
    """The family of plain-layout blocks, or None when any value may be at fault.

    _PLAIN_BLOCK has matched each integer to `[+-]?[0-9]+` and each class to
    `[01]*`, so only the value rules are left, and each is checked here
    once, column by column. The digit cap (by length, so a signed
    4000-digit value is left to the checked loop too) and the class length
    are tested first, and then each member's class text becomes its mask.
    The family is built from its columns in one step whose ValueError
    (int() past the interpreter's conversion limit) or InvalidGenus (genus
    < 1, from the column constructor) gives None, so those rules are stated
    only by their owners. Never raises: on None the scan reads the same
    text again and the checked loop raises the fault, so every message comes
    from that one loop.
    """
    genera, eulers, classes, _ = zip(*blocks)
    if max(map(len, genera)) > _MAX_DIGITS or max(map(len, eulers)) > _MAX_DIGITS:
        return None
    if set(map(len, classes)) != {dim}:
        return None
    try:
        return SurfaceFamily._from_columns(
            dim,
            tuple(list(map(int, genera))),
            tuple(list(map(int, eulers))),
            tuple([int(bits[::-1], 2) if bits else 0 for bits in classes]),
        )
    except (ValueError, InvalidGenus):  # int()'s limit, or genus < 1
        return None


def _checked_columns(
    path: str, ambient: ManifoldProfile, blocks: list[tuple[int, _Fields]]
) -> SurfaceFamily:
    """The family of _scan's blocks, each field checked and faults raised in order.

    Each block gives its genus, Euler number and class mask to the family's
    columns. The loop has enforced genus >= 1 and the class length, and
    read_family_file has refused an empty block list, so the column
    constructor cannot raise here.
    """
    dim = ambient.b2_f2
    genera, eulers, masks = [], [], []
    for start, fields in blocks:
        num, genus = _int_field(path, start, fields, "genus", "surface")
        if genus < 1:
            raise ParseError(path, num, f"field 'genus' must be >= 1, got {genus}")
        _, euler = _int_field(path, start, fields, "euler_number", "surface")
        num, raw = fields.get("class") or _missing(path, start, "class", "surface")
        try:
            mod2_class = Gf2Vector.from_string(raw)
        except ValueError:
            raise ParseError(
                path, num, f"field 'class' is not a bit string: {_quote(raw)}"
            ) from None
        if mod2_class.dim != dim:
            raise ParseError(
                path,
                num,
                f"field 'class' has length {mod2_class.dim}, ambient "
                f"{_quote(ambient.name)} needs {dim}",
            )
        genera.append(genus)
        eulers.append(euler)
        masks.append(mod2_class.bits)
    return SurfaceFamily._from_columns(dim, tuple(genera), tuple(eulers), tuple(masks))
