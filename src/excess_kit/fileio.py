"""Strict parsers for the on-disk formats and the profile catalog.

All formats are UTF-8 text with lines ended by \\n, \\r\\n or \\r only. Blank
lines and `#` comments are ignored everywhere, fields are `key: value`
pairs, and block headers are bracketed section names. Unknown or duplicate
fields are errors — fixture typos must fail loudly, not silently default.
"""

from __future__ import annotations

import os
import re
import sys

from .errors import CatalogError, NegativeB2, ParseError, SignatureExceedsRank, _bare, _quote
from .gf2 import Gf2Collection, Gf2Vector
from .manifolds import ManifoldProfile, validate_profile
from .surfaces import SurfaceDatum, SurfaceFamily

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
_HEAD_FIELDS: dict[str, tuple[str, ...]] = {"catalog": (), "family": ("ambient",)}

_Fields = dict[str, tuple[int, str]]


def _split_lines(text: str) -> list[str]:
    """Lines ended by \\n, \\r\\n or \\r only, unlike str.splitlines()."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line_number, stripped_text) of the content lines of a UTF-8 file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; it sits on their last line.
        line = len(_split_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(
            path, line, f"invalid UTF-8: {exc.reason} at byte offset {exc.start}"
        ) from None
    lines = []
    for number, raw in enumerate(_split_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((number, line))
    return lines


def _add_field(
    path: str, number: int, line: str, fields: _Fields, allowed: tuple[str, ...], what: str
) -> None:
    key, sep, value = line.partition(":")
    if not sep:
        raise ParseError(path, number, f"expected 'field: value', got {_quote(line)}")
    key = key.strip()
    if key not in allowed:
        raise ParseError(path, number, f"unknown {what} field {_quote(key)}")
    if key in fields:
        raise ParseError(path, number, f"duplicate field {key!r}")
    fields[key] = (number, value.strip())


def _split_blocks(
    path: str, kind: str, header: str, allowed: tuple[str, ...]
) -> tuple[_Fields, list[tuple[int, _Fields]]]:
    """Split a `kind` file into its head and the blocks opened by `header` lines.

    The head is the lines before the first header: the kind's head fields,
    read like block fields. A kind without head fields rejects a first line
    that is not a header, but only once every line's form has been checked.
    Returns the head fields and one (header line number, {field: (line
    number, value)}) per block.
    """
    head: _Fields = {}
    blocks: list[tuple[int, _Fields]] = []
    fields, keys, what = head, _HEAD_FIELDS[kind], kind
    lines = _read_lines(path)
    for number, line in lines:
        if line == header:
            fields, keys, what = {}, allowed, header.strip("[]")
            blocks.append((number, fields))
        elif line.startswith("["):
            raise ParseError(path, number, f"unknown section {_quote(line)}")
        elif keys:
            _add_field(path, number, line, fields, keys, what)
    if not _HEAD_FIELDS[kind] and lines and lines[0][1] != header:
        raise ParseError(path, lines[0][0], f"field outside a {header} block")
    return head, blocks


def _require(path: str, start: int, fields: _Fields, key: str, what: str) -> tuple[int, str]:
    if key not in fields:
        raise ParseError(path, start, f"{what} is missing field {key!r}")
    return fields[key]


_DECIMAL = re.compile(r"[+-]?[0-9]+")

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
    if not _DECIMAL.fullmatch(text):
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


def _int_field(
    path: str, start: int, fields: _Fields, key: str, what: str
) -> tuple[int, int]:
    """(line number, value) of a required integer field."""
    num, raw = _require(path, start, fields, key, what)
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
    for number, line in _read_lines(path):
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
    num, name = _require(path, start, fields, "name", "profile")
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
    fields: _Fields = {}
    for number, line in _read_lines(path):
        _add_field(path, number, line, fields, _PROFILE_FIELDS, "profile")
    return _profile_from_fields(path, 0, fields)


def read_catalog_file(path: str) -> dict[str, ManifoldProfile]:
    """Read a catalog of [profile] blocks, each validated on load."""
    _, blocks = _split_blocks(path, "catalog", "[profile]", _PROFILE_FIELDS)
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
    """
    head, blocks = _split_blocks(path, "family", "[surface]", _SURFACE_FIELDS)
    ambient_line, ref = _require(path, 0, head, "ambient", "family")
    if not ref:
        raise ParseError(path, ambient_line, "field 'ambient' is empty")
    try:
        ambient = resolve_profile(ref, catalog)
    except CatalogError as exc:
        raise ParseError(path, ambient_line, str(exc)) from None
    if not blocks:
        raise ParseError(path, ambient_line, "family has no [surface] blocks")

    members: list[SurfaceDatum] = []
    for start, fields in blocks:
        num, genus = _int_field(path, start, fields, "genus", "surface")
        if genus < 1:
            raise ParseError(path, num, f"field 'genus' must be >= 1, got {genus}")
        _, euler = _int_field(path, start, fields, "euler_number", "surface")
        num, raw = _require(path, start, fields, "class", "surface")
        try:
            mod2_class = Gf2Vector.from_string(raw)
        except ValueError:
            raise ParseError(
                path, num, f"field 'class' is not a bit string: {_quote(raw)}"
            ) from None
        if mod2_class.dim != ambient.b2_f2:
            raise ParseError(
                path,
                num,
                f"field 'class' has length {mod2_class.dim}, ambient "
                f"{_quote(ambient.name)} needs {ambient.b2_f2}",
            )
        members.append(SurfaceDatum(genus=genus, euler_number=euler, mod2_class=mod2_class))
    family = SurfaceFamily(ambient_dim=ambient.b2_f2, members=tuple(members))
    return ambient, family
