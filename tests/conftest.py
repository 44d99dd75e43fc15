"""Fixtures shared by the test modules, and tier-1's environment."""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import pytest

from excess_kit.fileio import CATALOG_ENV_VAR

# (int/str limit, integer digit cap): Python's default limit, no limit, and
# the lowest limit that PYTHONINTMAXSTRDIGITS accepts. The cap is 4000
# digits, or 300 under a lower limit.
LIMITS = [(4300, 4000), (0, 4000), (640, 340)]


@contextlib.contextmanager
def int_limit(limit: int) -> Iterator[None]:
    """The interpreter's int/str conversion limit set to `limit`, then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch) -> Iterator[None]:
    """Every test runs in the same environment, whatever the shell exports.

    No extra catalog (EXCESS_KIT_CATALOG) and no lowered int/str limit
    (PYTHONINTMAXSTRDIGITS) in this process or in the ones it starts, and
    80 columns (COLUMNS) for argparse's help and usage text. A test that
    needs another catalog or limit sets it itself.
    """
    monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)
    monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    # Python 3.10.0 to 3.10.6 have no int/str limit to hold.
    default = getattr(sys.int_info, "default_max_str_digits", None)
    with int_limit(default) if default else contextlib.nullcontext():
        yield


@pytest.fixture(params=LIMITS, ids=["limit-4300", "no-limit", "limit-640"])
def cap(request) -> Iterator[int]:
    """The integer digit cap, with the interpreter's int/str limit set to match it."""
    limit, cap = request.param
    with int_limit(limit):
        yield cap
