"""Tier-1's environment, its one Hypothesis profile, and the shared fixtures."""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import pytest
from hypothesis import settings

from excess_kit.fileio import CATALOG_ENV_VAR
from helpers import LIMITS, int_limit

# Every @given test runs with these settings: the same examples on every run,
# no time limit per example and no example database written.
settings.register_profile(
    "tier-1", derandomize=True, deadline=None, database=None, max_examples=50
)
settings.load_profile("tier-1")


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
