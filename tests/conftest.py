"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from typing import Iterator

import pytest


@pytest.fixture(
    params=[(4300, 4000), (0, 4000), (640, 340)],
    ids=["limit-4300", "no-limit", "limit-640"],
)
def cap(request) -> Iterator[int]:
    """The integer digit cap, with the interpreter's int/str limit set to match it.

    The cap is 4000 digits, or 300 under a lower limit. 4300 is Python's
    default limit, 0 means no limit, and 640 is the lowest limit that
    PYTHONINTMAXSTRDIGITS accepts.
    """
    limit, cap = request.param
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield cap
    finally:
        sys.set_int_max_str_digits(before)
