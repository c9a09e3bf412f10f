"""The benchmark's tracer still fits the library.

vcbench/tracer.py wraps the library's functions at the bindings their callers
use. A traced benchmark run fails when a counter its workload requires reads
zero, so a library change that moves one of those seams breaks the benchmark.
This runs each workload's driver from vcbench/worker.py on one small
generated input under the tracer, and checks those counters here.
"""

import json

import pytest

import gen
import tracer as tracing
import worker
import workloads

# a prefix of a generated script or pool is still valid input: the script
# names only keys a replica holds, and each pool block holds its own
# malformed requests. The script's prunes first remove an entry after
# about 2,000 commands.
SCRIPT_LINES = 3_000


def small_workload(name: str, tmp_path):
    """worker.py's driver for workload `name`, on a small generated input."""
    spec = {"workload": name, "kind": workloads.WORKLOADS[name]["kind"]}
    if name == "exhaustive":
        return worker.CliWorkload(dict(spec, argv=["check", "--exhaustive", "4", "2"], units=76))
    if name == "random-long":
        return worker.CliWorkload(dict(spec, argv=["check", "--random", "1", "40", "3"], units=1))
    if name == "replica-sim":
        script = tmp_path / "script.txt"
        lines = gen.replica_script(0).splitlines()[:SCRIPT_LINES]
        script.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return worker.CliWorkload(dict(spec, argv=["run", str(script)], units=len(lines)))
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps(gen.wire_pool(0)[: gen.WIRE_BLOCK]), encoding="utf-8")
    return worker.WireWorkload(dict(spec, pool=str(pool), prune_bounds=gen.WIRE_PRUNE_BOUNDS))


def reading(tracer: tracing.Tracer, name: str) -> float:
    """A traced counter as worker.py names it: a span's calls, or a counter."""
    span = name.removesuffix(".calls")
    if span != name:
        return tracer.spans.get(span, (0,))[0]
    return tracer.counters.get(name, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_moves_every_required_counter(name, tmp_path):
    workload = small_workload(name, tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        workload.unit()
    finally:
        tracer.restore()
    _, failed, problems = workload.outcome()
    assert (failed, problems) == (0, [])
    required = workloads.WORKLOADS[name]["required"]
    assert [counter for counter in required if not reading(tracer, counter)] == []
