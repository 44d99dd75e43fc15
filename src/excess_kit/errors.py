"""Exception types shared across the package."""

from __future__ import annotations


class ExcessKitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ExcessKitError):
    """Malformed input file; carries the path and the line of the fault.

    Lines count from 1. Line 0 means the whole file: a missing `ambient`, or
    a missing field in a profile file with no header.
    """

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


class CatalogError(ExcessKitError):
    """Unknown catalog name or inconsistent catalog contents."""


class NotInSpan(ExcessKitError):
    """Target vector is not in the span of the given basis."""


class NotABasis(ExcessKitError):
    """The indexed vectors are linearly dependent."""


# The longest input value a message quotes whole.
_QUOTE_CHARS = 64


def _quote(text: str) -> str:
    """repr(text), or past 64 characters the repr of its first 64 and its length."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _bare(text: str) -> str:
    """text itself, or past 64 characters as _quote cuts it: for names shown unquoted."""
    return text if len(text) <= _QUOTE_CHARS else _quote(text)


# Python's int-to-str limit may be set as low as 640 digits; 2**2000 has 603.
_DECIMAL_BITS = 2000


def _count_text(n: int, prefix: str = "") -> str:
    """prefix and n in decimal, or a power-of-two bound when n is too long for that."""
    if n.bit_length() <= _DECIMAL_BITS:
        return f"{prefix}{n}"
    return f"at least 2^{n.bit_length() - 1}"


class EffortExceeded(ExcessKitError):
    """Exact search would exceed the effort budget.

    Carries the constructive certificate so callers still get a valid
    (possibly sub-maximal) zero-sum subset. ``unit`` names what ``needed``
    counts: kernel scan nodes, or the syndrome DP's table entries.
    """

    def __init__(self, needed: int, budget: int, certificate, *, unit: str = "nodes"):
        self.needed = needed
        self.budget = budget
        self.certificate = certificate
        self.unit = unit
        super().__init__(
            f"exact search needs {_count_text(needed, '~')} {unit}, "
            f"budget is {_count_text(budget)}; "
            f"constructive certificate of size {certificate.size} is attached"
        )


class NegativeB2(ExcessKitError):
    """Derived mod-2 second Betti number would be negative."""


class SignatureExceedsRank(ExcessKitError):
    """|signature| exceeds the mod-2 second Betti number."""


class EmptyFamily(ExcessKitError):
    """A surface family must have at least one member."""


class InvalidGenus(ExcessKitError):
    """Nonorientable genus must be a positive integer."""


class NotModTwoNull(ExcessKitError):
    """Branch surface class is nonzero mod 2; no double cover is available."""


class OddEulerNumber(ExcessKitError):
    """Euler number must be even to halve it exactly."""


class DimensionMismatch(ExcessKitError):
    """Bit-vector dimension does not match the ambient profile."""


class NotAPlaneFamily(ExcessKitError):
    """Plane audits require every member to have genus 1."""


class EulerTooSmall(ExcessKitError):
    """Plane audits require every member to satisfy |e| > 2."""
