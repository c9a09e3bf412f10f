"""vclock benchmark: run one workload on seeded inputs and check its outputs.

    python3 vcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it uses the checkout that holds this
file, importing vclock from its src/ directory. Workloads are listed in
workloads.py and, with the metrics, in BENCHMARK.json at the checkout root.

--trace 0 measures the end-to-end metrics untraced: set-up time from several
fresh interpreters, then S seconds of the workload in one more. --trace 1
runs the workload's fixed work once untraced and once with spans around the
library's public functions, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A readable table and the run metadata (JSON,
after "meta: ") go to standard error. A run whose outputs fail a check
prints correct=false; a run that cannot measure exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads  # noqa: E402
from worker import summary  # noqa: E402

# fresh interpreters timed for setup_s, after one untimed warm-up that reads
# the sources into the page cache; the measuring interpreter adds one more
SETUP_PROBES = 20
# a run must end within this many seconds of starting
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def git_sha(root: str) -> str | None:
    """HEAD's commit id read from root/.git without running git, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def copy_sources(workdir: str) -> str:
    """Copy the checkout's src/ into workdir without any bytecode cache; return the copy.

    Workers import vclock from the copy and write no bytecode, so every one
    of them compiles the library from source: a cache left in the checkout's
    src/ (by a test run, say) cannot make one commit's set-up faster than
    another's. The standard library's installed cache is read as usual.
    """
    src = os.path.join(workdir, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def spawn(spec: str, src: str, mode: str, seconds: float, deadline: float) -> dict:
    """Run the worker in a fresh interpreter; return its result and setup_s."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, WORKER, spec, "--src", src, "--mode", mode, "--seconds", repr(seconds)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) did not finish within the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # time from spawn to the first timed unit, less reading the benchmark's own input files
    result["setup_s"] = result["ready"] - start - result["load_s"]
    return result


def end_to_end(spec: str, src: str, seconds: float, deadline: float) -> tuple[dict, dict]:
    spawn(spec, src, "probe", seconds, deadline)
    raw, setup = [], []
    for mode in ["probe"] * SETUP_PROBES + ["measure"]:
        scale = calib.scale(calib.reference_timing())
        result = spawn(spec, src, mode, seconds, deadline)
        raw.append(result["setup_s"])
        setup.append(result["setup_s"] * scale)
    latency = result["latency"]
    metrics = {
        "throughput_per_s": (result["throughput"]["median"], "1/s"),
        "latency_p50_us": (latency["median"], "us"),
        "latency_tail_us": (latency["tail"], "us"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    result["setup"] = summary(setup)
    result["setup_raw"] = summary(raw)
    return result, metrics


def per_layer(spec: str, src: str, seconds: float, deadline: float) -> tuple[dict, dict]:
    result = spawn(spec, src, "trace", seconds, deadline)
    metrics = {k: (m["value"], m["unit"]) for k, m in result.pop("metrics").items()}
    return result, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    # one CPU for this process and every child: the reference timings that
    # scale the workload's (calib.py) must see the same core it runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "vclock", "__init__.py")):
        print(f"error: no vclock sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        spec = workloads.prepare(args.workload, args.seed, workdir)
        src = copy_sources(workdir)
        measure = per_layer if args.trace else end_to_end
        result, metrics = measure(spec, src, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = declared["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(have.items()))}",
              file=sys.stderr)
        return 1

    problems = result.pop("problems")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "problems": problems,
        **{k: v for k, v in result.items() if k not in ("ready", "load_s", "setup_s")},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("meta: " + json.dumps(meta), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
