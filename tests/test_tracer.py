"""The benchmark's tracer still fits the library.

vcbench/tracer.py wraps the library's functions at the bindings their callers
use. A traced benchmark run fails when a counter its workload requires reads
zero, so a library change that moves one of those seams breaks the benchmark.
This runs each workload's driver from vcbench/worker.py on one small
generated input under the tracer, and checks those counters here: each must
read exactly the value pinned for it, so a change that moves a seam's call
count fails here too.
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

# every counter each workload requires, at its value on small_workload's
# input. oracle.pairs_checked is required to move but not pinned: it counts
# every pair of each checked history, also those a since= check skips.
UNPINNED = {"oracle.pairs_checked"}
COUNTS = {
    "exhaustive": {
        "cli.main.calls": 1,
        "oracle.build_history.calls": 76,
        "oracle.check_equivalence.calls": 76,
        "core.increment.calls": 76,
        "core.merge.calls": 43,
        "core.is_valid_actor.calls": 152,
        "kernels.compare_entries.calls": 207,
    },
    "random-long": {
        "cli.main.calls": 1,
        "oracle.build_history.calls": 1,
        "oracle.check_equivalence.calls": 1,
        "core.increment.calls": 40,
        "core.merge.calls": 18,
        "core.is_valid_actor.calls": 80,
        "kernels.compare_entries.calls": 780,
    },
    "replica-sim": {
        "cli.main.calls": 1,
        "simulator.parse_scenario.calls": 1,
        "simulator.run_scenario.calls": 1,
        "simulator.integrate_siblings.calls": 1_359,
        "core.increment.calls": 1_166,
        "core.merge.calls": 1_715,
        "core.compare.calls": 3_129,
        "core.prune.calls": 454,
        "core.prune.entries_removed": 151,
        "core.is_valid_actor.calls": 1_206,
        "kernels.compare_entries.calls": 3_129,
    },
    "wire-ops": {
        "codec.decode.calls": 125,
        "codec.decode.errors": 6,
        "codec.encode.calls": 20,
        "core.VClock.calls": 119,
        "core.is_valid_actor.calls": 974,
        "core.compare.calls": 22,
        "core.merge.calls": 20,
        "core.prune.calls": 7,
        "core.prune.entries_removed": 39,
        "kernels.compare_entries.calls": 38,
    },
}


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
    assert set(required) - UNPINNED == set(COUNTS[name])
    assert {counter: reading(tracer, counter) for counter in COUNTS[name]} == COUNTS[name]
