"""Run one workload in a fresh interpreter and print its result as one JSON line.

    python3 vcbench/worker.py SPEC --src DIR --mode probe|measure|trace --seconds S

probe    import vclock, load the inputs, report when the first timed unit
         could start, and exit.
measure  run the workload untraced for S seconds and check every output.
trace    time the kernels, then run the workload's fixed traced work once
         untraced and once traced, and report per-layer metrics.

SPEC is written by run.py (see workloads.prepare). vclock is imported from
DIR, run.py's copy of the checkout's src/, and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import statistics
import sys
import time

TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)


def summary(samples) -> dict:
    """n, min, quartiles and max of a sample list."""
    s = sorted(samples)
    q1, q2, q3 = statistics.quantiles(s, n=4) if len(s) > 1 else (s[0],) * 3
    return {"n": len(s), "min": s[0], "q1": q1, "median": q2, "q3": q3, "max": s[-1]}


def tail(sorted_samples) -> tuple[float, float]:
    """(percentile, value) by nearest rank: the highest ladder percentile with
    at least ten samples beyond it. Too few samples for any (a run of CLI
    calls) give the upper quartile: their maximum varies too much from run to
    run to bound."""
    n = len(sorted_samples)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, sorted_samples[rank - 1]
    return 75.0, sorted_samples[math.ceil(n * 0.75) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- CLI workloads --------------------------------------------------------


class CliWorkload:
    """exhaustive, random-long and replica-sim: one unit call is one cli.main run."""

    def __init__(self, spec: dict):
        from vclock import cli

        self.cli = cli
        self.spec = spec
        self.kind = spec["kind"]
        self.units = spec["units"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.first_out: str | None = None

    def unit(self) -> tuple[float, int, list[float]]:
        """Run cli.main once; return (seconds, units done, [latency in us])."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(self.spec["argv"]))
            except Exception as exc:  # a crash is a failed call, reported below
                rc = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        self.attempted += self.units
        if self.kind == "check":
            self._check_outcome(rc, out.getvalue(), err.getvalue())
        else:
            self._run_outcome(rc, out.getvalue())
        return elapsed, self.units, [elapsed * 1e6]

    def _check_outcome(self, rc, out: str, err: str) -> None:
        found = re.search(r"checked (\d+) histories: (\d+) violation line", err)
        checked = int(found.group(1)) if found else 0
        flagged = sum(line.startswith("# ") for line in err.splitlines())
        if rc == 0 and found and checked == self.units and found.group(2) == "0" and not out:
            return
        self.problems.append(f"check rc={rc} checked={checked}/{self.units} stderr={err[-200:]!r}")
        self.failed += min(self.units, max(1, flagged + self.units - checked))

    def _run_outcome(self, rc, out: str) -> None:
        self.digests.add(hashlib.sha256(out.encode()).hexdigest())
        if self.first_out is None:
            self.first_out = out
        fails = sum(line.startswith("FAIL ") for line in out.splitlines())
        if rc == 0 and fails == 0:
            return
        self.problems.append(f"run rc={rc} FAIL lines={fails}")
        self.failed += fails if rc == 1 and fails else self.units

    def outcome(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every call so far."""
        if self.kind == "run" and self.first_out is not None:
            self._check_stores()
        return self.attempted, self.failed, self.problems[:5]

    def _check_stores(self) -> None:
        """One report digest over all calls, equal to run_scenario's; final
        stores equal the reference simulation, siblings pairwise concurrent."""
        if len(self.digests) != 1:
            self.problems.append(f"report digest differs between repeats: {len(self.digests)}")
        import reference
        from vclock import simulator

        script = self.spec["argv"][1]
        report = simulator.run_scenario(simulator.load_scenario(script))
        if report.text != self.first_out:
            self.problems.append("cli report differs from run_scenario's report")
        with open(script, encoding="utf-8") as fh:
            expected = reference.simulate(fh.read())
        for replica, keys in report.stores.items():
            for key, versions in keys.items():
                clocks = [reference.parse(v.rsplit("@", 1)[1]) for v in versions]
                concurrent = all(reference.compare(a, b) == "Concurrent"
                                 for i, a in enumerate(clocks) for b in clocks[i + 1 :])
                if not concurrent or versions != expected[replica].get(key):
                    self.problems.append(f"stored siblings wrong: {replica} {key} {versions[:3]}")
                    self.failed += 1
        if report.stores != expected:
            self.problems.append("final stores differ from the reference simulation")


# --- wire-ops -------------------------------------------------------------


class WireWorkload:
    """One client, closed loop: decode two texts, apply the op, encode."""

    def __init__(self, spec: dict):
        from vclock import codec, core

        self.codec = codec
        self.core = core
        start = time.perf_counter()
        with open(spec["pool"], encoding="utf-8") as fh:
            self.pool = json.load(fh)
        self.load_s = time.perf_counter() - start
        self.bounds = core.PruneBounds(*spec["prune_bounds"])
        self.outs: list[str | None] = [None] * len(self.pool)
        self.cycles = 0
        self.unsteady = 0

    def handle(self, op: str, text_a: str, text_b: str, now: int) -> str:
        codec, core = self.codec, self.core
        a = codec.decode(text_a)
        b = codec.decode(text_b)
        if op == "compare":
            return core.compare(a, b).value
        if op == "descends":
            return "true" if core.descends(a, b) else "false"
        if op == "equal":
            return "true" if core.equal(a, b) else "false"
        merged = core.merge(a, b)
        if op == "merge":
            return codec.encode(merged)
        return codec.encode(core.prune(merged, now, self.bounds))

    def unit(self) -> tuple[float, int, list[float]]:
        """One pass over the pool: (seconds, requests, per-request latency in us)."""
        decode_error = self.codec.DecodeError
        clock = time.perf_counter_ns
        outs = self.outs
        latency = []
        start = clock()
        for i, (op, text_a, text_b, now, _) in enumerate(self.pool):
            t0 = clock()
            try:
                out = self.handle(op, text_a, text_b, now)
            except decode_error as exc:
                out = "!" + type(exc).__name__
            except Exception as exc:  # an unnamed error is a failed request
                out = "?" + type(exc).__name__
            latency.append((clock() - t0) / 1000.0)
            if outs[i] is None:
                outs[i] = out
            elif out != outs[i]:
                self.unsteady += 1
        elapsed = (clock() - start) / 1e9
        self.cycles += 1
        return elapsed, len(self.pool), latency

    def outcome(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every pass run so far.

        The only failure that is not a correctness problem is the known
        defect: over-long digits raising a bare ValueError.
        """
        failed, problems = 0, []
        for (op, text_a, text_b, _, expected), out in zip(self.pool, self.outs):
            if expected == "!*":
                ok = out.startswith("!")
                known = out == "?ValueError"
            else:
                ok = out == expected
                known = False
            if not ok:
                failed += 1
                if not known:
                    problems.append(f"{op} {text_a[:60]!r} {text_b[:60]!r}: {out!r} != {expected!r}")
        if self.unsteady:
            problems.append(f"{self.unsteady} results changed between passes")
        return self.cycles * len(self.pool), failed * self.cycles + self.unsteady, problems[:5]


# --- modes ----------------------------------------------------------------


def measure(workload, seconds: float) -> dict:
    """Repeat units for `seconds`, scaling each by the reference timings around it.

    Throughput is the median over units. A CLI unit gives one latency sample
    (the whole call); a wire-ops unit, one pass over the request pool, gives
    one per request, and its p50 and tail are taken per pass and reported as
    the median over passes.
    """
    import calib

    rates, raw_rates, calls, p50s, tails = [], [], [], [], []
    with calib.Calibrator() as reference:
        before = reference.timing()
        start = time.perf_counter()
        while True:
            elapsed, units, latency = workload.unit()
            after = reference.timing()
            scale = calib.scale((before + after) / 2)
            before = after
            raw_rates.append(units / elapsed)
            rates.append(units / (elapsed * scale))
            if len(latency) == 1:
                calls.append(latency[0] * scale)
            else:
                ordered = sorted(x * scale for x in latency)
                p50s.append(statistics.median(ordered))
                tail_pct, tail_us = tail(ordered)
                tails.append(tail_us)
            if time.perf_counter() - start >= seconds:
                break
    rss = peak_rss_mb()
    attempted, failed, problems = workload.outcome()
    if calls:
        calls.sort()
        tail_pct, tail_us = tail(calls)
        latency = dict(summary(calls), tail=tail_us, tail_pct=tail_pct)
    else:
        latency = dict(summary(p50s), tail=statistics.median(tails), tail_pct=tail_pct,
                       tails=summary(tails), per_pass=len(workload.pool))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "throughput": summary(rates),
        "throughput_raw": summary(raw_rates),
        "latency": latency,
        "peak_rss_mb": rss,
    }


def run_fixed(workload, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        workload.unit()
    return time.perf_counter() - start


def trace(workload, reps: int, required) -> dict:
    import kernelbench
    import tracer as tracing

    modules, _ = kernelbench.backends()
    corpus = kernelbench.make_corpus(kernelbench.PAIRS)
    kernel_times = {name: kernelbench.bench(m, corpus, kernelbench.ROUNDS) for name, m in modules.items()}
    mismatches = kernelbench.crosscheck(modules, corpus)

    untraced_s = run_fixed(workload, reps)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_s = run_fixed(workload, reps)
    finally:
        tracer.restore()

    attempted, failed, problems = workload.outcome()

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPANS:
        calls, total, self_s = tracer.spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.total_s"] = (total, "s")
    c = tracer.counters
    histories = c.get("oracle.histories_checked", 0)
    metrics["oracle.replay_events_per_history"] = (
        c.get("oracle.replay_events", 0) / histories if histories else 0.0, "count")
    for name in ("oracle.pairs_checked", "oracle.violations", "core.prune.entries_removed",
                 "codec.decode.errors", "codec.decode.bare_errors", "simulator.fails"):
        metrics[name] = (c.get(name, 0), "count")
    sibs = tracer.sibling_counts
    metrics["simulator.siblings_per_key.max"] = (max(sibs, default=0), "count")
    metrics["simulator.siblings_per_key.mean"] = (statistics.fmean(sibs) if sibs else 0.0, "count")
    for fn, best in kernel_times["pure"].items():
        metrics[f"kernels.pure.{fn}.us_per_call"] = (best, "us")
    metrics["kernels.crosscheck_mismatches"] = (mismatches, "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.wall_s"] = (traced_s, "s")

    for name in required:
        if not metrics[name][0]:
            problems.append(f"traced counter {name} is zero on this workload")
    if mismatches:
        problems.append(f"kernel cross-check: {mismatches} mismatches")
    if metrics["oracle.violations"][0] or metrics["simulator.fails"][0]:
        problems.append("traced run saw oracle violations or simulator FAIL lines")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "kernels": {"backends": sorted(modules), "best_us_per_call": kernel_times},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--src", required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    load_start = time.perf_counter()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    load_s = time.perf_counter() - load_start
    kind = spec["kind"]

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import vclock

    if not os.path.abspath(vclock.__file__).startswith(src + os.sep):
        print(f"vclock imported from {vclock.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WireWorkload(spec) if kind == "wire" else CliWorkload(spec)
    if kind == "wire":
        # the pool file is the benchmark's input, not the program's set-up
        load_s += workload.load_s
    result = {"ready": time.perf_counter(), "load_s": load_s, "backend": vclock.backend_name()}
    import kernelbench

    _, error = kernelbench.backends()
    # the message names the copied sources; keep their path relative to the copy
    result["compiled_import_error"] = error and error.replace(os.path.dirname(src) + os.sep, "")
    if args.mode == "measure":
        result.update(measure(workload, args.seconds))
    elif args.mode == "trace":
        from workloads import WORKLOADS

        info = WORKLOADS[spec["workload"]]
        result.update(trace(workload, info["trace_reps"], info["required"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
