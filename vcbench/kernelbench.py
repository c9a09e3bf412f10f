"""Kernel microbenchmark and cross-check on the seeded 8-actor corpus.

The corpus and the timing loop are those of benchmarks/bench_backends.py,
imported from the checkout. This module adds what the traced run needs on
top: the reason the compiled backend did not import, and a cross-check of
all four kernels of every importable backend against the dict-based
reference.
"""

from __future__ import annotations

import os
import sys

import reference

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"))

from bench_backends import bench, make_corpus  # noqa: E402,F401

KERNELS = ("compare_entries", "descends_entries", "equal_entries", "merge_entries")
PAIRS = 2000
ROUNDS = 5
_CODES = {"Equal": 0, "Descends": 1, "Dominated": 2, "Concurrent": 3}


def backends() -> tuple[dict, str | None]:
    """Importable kernel modules by backend name, and why 'compiled' is missing."""
    from vclock import _kernels_py

    found = {"pure": _kernels_py}
    try:
        from vclock import _kernels
    except ImportError as exc:
        return found, str(exc)
    found["compiled"] = _kernels
    return found, None


def crosscheck(modules: dict, corpus) -> int:
    """Pairs on which some kernel of some backend disagrees with the reference."""
    mismatches = 0
    for a, b in corpus:
        da, db = reference.entries_to_dict(a), reference.entries_to_dict(b)
        want = {
            "compare_entries": _CODES[reference.compare(da, db)],
            "descends_entries": reference.covers(da, db),
            "equal_entries": reference.covers(da, db) and reference.covers(db, da),
            "merge_entries": reference.dict_to_entries(reference.merge(da, db)),
        }
        for module in modules.values():
            for name in KERNELS:
                if getattr(module, name)(a, b) != want[name]:
                    mismatches += 1
    return mismatches
