"""Fixtures shared by the test modules, and the import path of the dict reference."""

import sys
from pathlib import Path

import pytest

from vclock import _kernels_py as kernels

# vcbench/reference.py, the dict-based clock rules that the benchmark also
# checks against, imports as `reference`; it imports nothing from vclock
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "vcbench"))

# a broken comparison kernel: between two snapshots of two entries each it
# reports a happened-before pair as Concurrent and a concurrent pair as Descends
_MISREPORTED = {kernels.DOMINATED: kernels.CONCURRENT, kernels.CONCURRENT: kernels.DESCENDS}


@pytest.fixture
def faulty_compare(monkeypatch):
    """Make kernels.compare_entries misreport some codes, the same way for the same pair."""
    compare_entries = kernels.compare_entries

    def misreporting(a, b):
        code = compare_entries(a, b)
        return _MISREPORTED.get(code, code) if len(a) == len(b) == 2 else code

    monkeypatch.setattr(kernels, "compare_entries", misreporting)


@pytest.fixture
def int_digit_limit():
    """sys.set_int_max_str_digits for one test; the setting is restored after it."""
    previous = sys.get_int_max_str_digits()
    try:
        yield sys.set_int_max_str_digits
    finally:
        sys.set_int_max_str_digits(previous)
