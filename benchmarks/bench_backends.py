"""The kernel benchmark's seeded corpus and timing loop, which vcbench/kernelbench.py imports.

``python3 vcbench/run.py --trace 1`` reports ``kernels.pure.*.us_per_call`` from them.
"""

from __future__ import annotations

import random
import time

ACTORS = [chr(ord("a") + i) for i in range(8)]


def make_corpus(pairs: int, seed: int = 2024) -> list[tuple[tuple, tuple]]:
    rng = random.Random(seed)

    def one() -> tuple:
        entries = []
        for actor in ACTORS:
            if rng.random() < 0.5:
                entries.append((actor, rng.randint(1, 6), rng.randint(0, 50)))
        return tuple(entries)

    return [(one(), one()) for _ in range(pairs)]


def bench(kernel, corpus, rounds: int) -> dict[str, float]:
    timings: dict[str, float] = {}
    for name in ("compare_entries", "descends_entries", "equal_entries", "merge_entries"):
        fn = getattr(kernel, name)
        best = None
        for _ in range(rounds):
            start = time.perf_counter_ns()
            for a, b in corpus:
                fn(a, b)
            elapsed = time.perf_counter_ns() - start
            if best is None or elapsed < best:
                best = elapsed
        timings[name] = best / len(corpus) / 1000.0  # microseconds per call
    return timings
