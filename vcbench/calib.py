"""Reference work that scales timings to a steady machine speed.

The machines this benchmark runs on are shared: for seconds at a time a
neighbour can make the same Python code run up to twice as slowly. A
fixed piece of reference work, timed right before and after each timed
unit, measures that slowdown, and each unit's time is scaled by
NOMINAL_S / (reference time). Reported timings are therefore seconds at the
reference speed, not raw wall seconds; the raw figures go in the run's
metadata.

The reference work mixes the two kinds of interpreter work the workloads
do: allocation (strings, tuples, dicts) and dispatch over entry tuples. It
runs in a process of its own that never imports vclock, so nothing a change
to the library does to its own interpreter can move it. Changing the
reference work or NOMINAL_S changes every reported timing: do it only in a
change that re-measures the baseline.

    python3 vcbench/calib.py    # serves one timing per line read from stdin
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

ALLOC_ROUNDS = 3000
DISPATCH_ROUNDS = 2000
# seconds one reference_timing() takes on an unloaded 2-core Python 3.11 machine
NOMINAL_S = 0.0045


def alloc_work(rounds: int) -> int:
    """Strings, tuples, dicts and sorting: what the codec and simulator do most."""
    table: dict[str, tuple[str, int, int]] = {}
    for i in range(rounds):
        key = f"n{i * 7 % 509:03x}"
        prev = table.get(key)
        if prev is None or prev[1] < i:
            table[key] = (key, i, i * 3)
        if len(table) > 128:
            table = dict(sorted(table.items())[:32])
    return len(table)


def dispatch_work(rounds: int) -> int:
    """Walking entry tuples, comparing small ints, testing bigint bits: what
    the oracle's replay and pairwise check do most."""
    a = tuple((chr(97 + i), i % 5 + 1, i) for i in range(8))
    b = tuple((chr(97 + i), i * 3 % 5 + 1, i) for i in range(8))
    mask = (1 << 300) - 1
    hits = 0
    for k in range(rounds):
        i = j = 0
        ge = le = True
        while i < 8 and j < 8:
            ea, eb = a[i], b[j]
            if ea[0] == eb[0]:
                if ea[1] < eb[1]:
                    ge = False
                elif eb[1] < ea[1]:
                    le = False
                i += 1
                j += 1
            elif ea[0] < eb[0]:
                le = False
                i += 1
            else:
                ge = False
                j += 1
        hits += (mask >> k % 300 & 1) + ge + le
    return hits


def reference_timing() -> float:
    """Median of three timed runs of the reference work, in seconds."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        alloc_work(ALLOC_ROUNDS)
        dispatch_work(DISPATCH_ROUNDS)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(timing: float) -> float:
    """Factor that turns a time measured at `timing` into one at the reference speed."""
    return NOMINAL_S / timing


class Calibrator:
    """A reference process that alternates with the caller, never overlapping it."""

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def timing(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(reference_timing()), flush=True)
