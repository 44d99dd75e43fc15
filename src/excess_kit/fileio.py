"""Strict parsers for the on-disk formats and the profile catalog.

All formats are line-oriented text: blank lines and `#` comments are
ignored everywhere, fields are `key: value` pairs, and block headers are
bracketed section names. Unknown or duplicate fields are errors — fixture
typos must fail loudly, not silently default.
"""

from __future__ import annotations

import os
import re
from importlib import resources

from .errors import CatalogError, ParseError
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


def _content_lines(path: str, text: str):
    """Yield (line_number, stripped_text) for content lines only."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _split_field(path: str, number: int, line: str) -> tuple[str, str]:
    key, sep, value = line.partition(":")
    if not sep:
        raise ParseError(path, number, f"expected 'field: value', got {line!r}")
    return key.strip(), value.strip()


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_decimal(text: str) -> int:
    """An optional sign followed by ASCII digits, as an int.

    Raises ValueError for anything else, including the non-ASCII digits,
    underscores and surrounding whitespace that int() would accept.
    """
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_int(path: str, number: int, field: str, value: str) -> int:
    try:
        return parse_decimal(value)
    except ValueError:
        raise ParseError(path, number, f"field {field!r} needs an integer, got {value!r}") from None


def read_vector_file(path: str) -> Gf2Collection:
    """Read one bit-string vector per line; all lines must share a length."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    vectors: list[Gf2Vector] = []
    dim: int | None = None
    for number, line in _content_lines(path, text):
        if line.strip("01"):
            raise ParseError(path, number, f"not a bit string: {line!r}")
        if dim is None:
            dim = len(line)
        elif len(line) != dim:
            raise ParseError(
                path, number, f"vector length {len(line)} differs from first length {dim}"
            )
        vectors.append(Gf2Vector.from_string(line))
    return Gf2Collection(dim=dim or 0, vectors=tuple(vectors))


class _FieldBlock:
    """Collects `key: value` fields with duplicate/unknown detection."""

    def __init__(self, path: str, allowed: tuple[str, ...], what: str):
        self.path = path
        self.allowed = allowed
        self.what = what
        self.fields: dict[str, tuple[int, str]] = {}
        self.start_line = 0

    def add(self, number: int, key: str, value: str) -> None:
        if key not in self.allowed:
            raise ParseError(
                self.path, number, f"unknown {self.what} field {key!r}"
            )
        if key in self.fields:
            raise ParseError(self.path, number, f"duplicate field {key!r}")
        self.fields[key] = (number, value)

    def require(self, key: str) -> tuple[int, str]:
        if key not in self.fields:
            raise ParseError(
                self.path,
                self.start_line,
                f"{self.what} is missing field {key!r}",
            )
        return self.fields[key]


def _profile_from_block(block: _FieldBlock) -> ManifoldProfile:
    path = block.path
    _, name = block.require("name")
    if not name:
        raise ParseError(path, block.require("name")[0], "field 'name' is empty")
    num, raw = block.require("signature")
    signature = _parse_int(path, num, "signature", raw)
    num, raw = block.require("euler_characteristic")
    chi = _parse_int(path, num, "euler_characteristic", raw)
    num, raw = block.require("b1_f2")
    b1 = _parse_int(path, num, "b1_f2", raw)
    if b1 < 0:
        raise ParseError(path, num, f"field 'b1_f2' must be nonnegative, got {b1}")
    return ManifoldProfile(
        name=name, signature=signature, euler_characteristic=chi, b1_f2=b1
    )


def read_profile_file(path: str) -> ManifoldProfile:
    """Read a single profile: the four fields, no block header."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = _FieldBlock(path, _PROFILE_FIELDS, "profile")
    for number, line in _content_lines(path, text):
        key, value = _split_field(path, number, line)
        block.add(number, key, value)
    profile = _profile_from_block(block)
    validate_profile(profile)
    return profile


def _read_catalog_text(path: str, text: str) -> dict[str, ManifoldProfile]:
    profiles: dict[str, ManifoldProfile] = {}
    block: _FieldBlock | None = None

    def finish(b: _FieldBlock | None) -> None:
        if b is None:
            return
        profile = _profile_from_block(b)
        validate_profile(profile)
        if profile.name in profiles:
            raise ParseError(
                path, b.start_line, f"duplicate profile name {profile.name!r}"
            )
        profiles[profile.name] = profile

    for number, line in _content_lines(path, text):
        if line == "[profile]":
            finish(block)
            block = _FieldBlock(path, _PROFILE_FIELDS, "profile")
            block.start_line = number
            continue
        if line.startswith("["):
            raise ParseError(path, number, f"unknown section {line!r}")
        if block is None:
            raise ParseError(path, number, "field outside a [profile] block")
        key, value = _split_field(path, number, line)
        block.add(number, key, value)
    finish(block)
    return profiles


def read_catalog_file(path: str) -> dict[str, ManifoldProfile]:
    """Read a catalog of [profile] blocks, each validated on load."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return _read_catalog_text(path, text)


def builtin_catalog() -> dict[str, ManifoldProfile]:
    """The catalog shipped with the package."""
    data = resources.files("excess_kit").joinpath("data/catalog.txt").read_text(
        encoding="utf-8"
    )
    return _read_catalog_text("<builtin catalog>", data)


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
                f"{CATALOG_ENV_VAR} points to a missing file: {extra_path}"
            )
        for name, profile in read_catalog_file(extra_path).items():
            if name in catalog:
                raise CatalogError(
                    f"profile {name!r} from {extra_path} collides with a catalog entry"
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
        f"profile reference {ref!r} is neither a catalog name nor an existing file"
    )


def read_family_file(
    path: str, catalog: dict[str, ManifoldProfile] | None = None
) -> tuple[ManifoldProfile, SurfaceFamily]:
    """Read a family file: an `ambient` reference, then [surface] blocks.

    Each member needs exact fields genus / euler_number / class; the class
    bit string must have length equal to the ambient profile's b2_f2 (empty
    when that is zero). Returns the resolved ambient profile and the family.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ambient: ManifoldProfile | None = None
    ambient_line = 0
    blocks: list[_FieldBlock] = []
    current: _FieldBlock | None = None
    for number, line in _content_lines(path, text):
        if line == "[surface]":
            current = _FieldBlock(path, _SURFACE_FIELDS, "surface")
            current.start_line = number
            blocks.append(current)
            continue
        if line.startswith("["):
            raise ParseError(path, number, f"unknown section {line!r}")
        key, value = _split_field(path, number, line)
        if current is None:
            if key != "ambient":
                raise ParseError(
                    path, number, f"expected 'ambient' before surfaces, got {key!r}"
                )
            if ambient is not None:
                raise ParseError(path, number, "duplicate field 'ambient'")
            if not value:
                raise ParseError(path, number, "field 'ambient' is empty")
            try:
                ambient = resolve_profile(value, catalog)
            except CatalogError as exc:
                raise ParseError(path, number, str(exc)) from None
            validate_profile(ambient)
            ambient_line = number
            continue
        current.add(number, key, value)
    if ambient is None:
        raise ParseError(path, 0, "missing field 'ambient'")
    if not blocks:
        raise ParseError(path, ambient_line, "family has no [surface] blocks")

    members: list[SurfaceDatum] = []
    for block in blocks:
        num, raw = block.require("genus")
        genus = _parse_int(path, num, "genus", raw)
        if genus < 1:
            raise ParseError(path, num, f"field 'genus' must be >= 1, got {genus}")
        num, raw = block.require("euler_number")
        euler = _parse_int(path, num, "euler_number", raw)
        num, raw = block.require("class")
        if raw.strip("01"):
            raise ParseError(path, num, f"field 'class' is not a bit string: {raw!r}")
        if len(raw) != ambient.b2_f2:
            raise ParseError(
                path,
                num,
                f"field 'class' has length {len(raw)}, ambient "
                f"{ambient.name!r} needs {ambient.b2_f2}",
            )
        members.append(
            SurfaceDatum(
                genus=genus,
                euler_number=euler,
                mod2_class=Gf2Vector.from_string(raw),
            )
        )
    family = SurfaceFamily(ambient_dim=ambient.b2_f2, members=tuple(members))
    return ambient, family
