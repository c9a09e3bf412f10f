"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 vcbench/spread.py --workloads exhaustive,wire-ops --seeds 0-9 \
        [--sets 2] [--seconds 15] [--trace 0] [--out FILE]

For every set, workload and metric it prints the median and the spread
(third minus first quartile, as a share of the median; the statistic the
benchmark's bounds are judged against) next to the metric's bound from
BENCHMARK.json. Untraced runs also get the spread of the raw (unscaled)
throughput and set-up time, under "raw.". With --sets N the seeds are run N
times, one whole set after another, and the shift of each median from the
first set is printed as well. --out writes every run's result and metadata
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    meta = json.loads(next(line[6:] for line in proc.stderr.splitlines() if line.startswith("meta: ")))
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        metrics["raw.throughput_per_s"] = meta["throughput_raw"]["median"]
        metrics["raw.setup_s"] = meta["setup_raw"]["median"]
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "meta": meta}


def shift(median: float, base: float) -> float | None:
    """Relative change of a median from the first set's; None from a zero base."""
    return median / base - 1 if base else None


def stats_of(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": min(values), "q1": q1, "median": med, "q3": q3, "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    names = args.workloads.split(",")

    record = {"seconds": seconds, "trace": args.trace, "workloads": {w: {"sets": []} for w in names}}
    for number in range(1, args.sets + 1):
        for workload in names:
            runs = []
            for seed in seeds(args.seeds):
                runs.append(run_once(workload, seed, seconds, args.trace))
                run = runs[-1]
                print(f"set {number} {workload} seed {seed}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']}", file=sys.stderr)
            stats = {name: stats_of([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
            sets = record["workloads"][workload]["sets"]
            sets.append({"stats": stats, "runs": runs})
            for name, st in stats.items():
                bound = bounds.get(name)
                flag = "" if bound is None else f" bound {bound:.2f}" + (" OVER" if st["spread"] > bound else "")
                moved = shift(st["median"], sets[0]["stats"][name]["median"])
                moved = "" if len(sets) == 1 or moved is None else f" shift {moved:+7.4f}"
                print(f"set {number} {workload:12s} {name:40s} median {st['median']:14.6g} "
                      f"spread {st['spread']:7.4f}{moved}{flag}")
            record.setdefault("host", {k: runs[0]["meta"][k] for k in ("git_sha", "python", "nproc", "backend")})
    for entry in record["workloads"].values():
        if len(entry["sets"]) == 1:
            continue
        first = entry["sets"][0]["stats"]
        entry["median_shift"] = {
            name: max((shift(s["stats"][name]["median"], st["median"]) for s in entry["sets"][1:]), key=abs)
            for name, st in first.items() if st["median"]
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
