"""Benchmark the vector-clock kernels.

Generates a seeded corpus of canonical entry tuples and times each kernel
on it. Run after installing the package:

    python benchmarks/bench_backends.py --pairs 2000 --rounds 5
"""

from __future__ import annotations

import argparse
import random
import time

from vclock import _kernels_py

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()

    corpus = make_corpus(args.pairs)
    for name, micros in bench(_kernels_py, corpus, args.rounds).items():
        print(f"{name:20s} {micros:8.3f} us/call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
