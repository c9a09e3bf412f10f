"""The four workloads: what the program is given, and what a run must see.

Each workload drives one public entry point with generated inputs only:
`cli.main` argv (plus a script file for replica-sim), or wire texts for
wire-ops, the request path of a Dynamo-style store.
"""

from __future__ import annotations

import json
import os

import gen

# Traced-run counters that must read non-zero on a workload, or the run fails:
# each proves the traced binding is on that workload's real call path.
_ORACLE_PATH = (
    "cli.main.calls",
    "oracle.build_history.calls",
    "oracle.check_equivalence.calls",
    "oracle.pairs_checked",
    "kernels.compare_entries.calls",
    "core.increment.calls",
    "core.merge.calls",
    "core.is_valid_actor.calls",
)

EXHAUSTIVE_HISTORIES = 24_436
RANDOM_LONG_HISTORIES = 4

WORKLOADS = {
    "exhaustive": {
        "kind": "check",
        "why": "every history up to 6 events over 3 actors: history building dominates",
        "trace_reps": 2,
        "required": _ORACLE_PATH,
    },
    "random-long": {
        "kind": "check",
        "why": "400-event histories over 8 actors: the pairwise equivalence check dominates",
        "trace_reps": 4,
        "required": _ORACLE_PATH,
    },
    "replica-sim": {
        "kind": "run",
        "why": "8 replicas x 32 keys of writes, syncs, reads and prunes through the simulator",
        "trace_reps": 2,
        "required": (
            "cli.main.calls",
            "simulator.parse_scenario.calls",
            "simulator.run_scenario.calls",
            "simulator.integrate_siblings.calls",
            "core.increment.calls",
            "core.merge.calls",
            "core.compare.calls",
            "core.prune.calls",
            "core.prune.entries_removed",
            "core.is_valid_actor.calls",
            "kernels.compare_entries.calls",
        ),
    },
    "wire-ops": {
        "kind": "wire",
        "why": "closed loop, one client: decode two wire clocks, compare/merge/prune, encode",
        "trace_reps": 8,
        "required": (
            "codec.decode.calls",
            "codec.decode.errors",
            "codec.encode.calls",
            "core.VClock.calls",
            "core.is_valid_actor.calls",
            "core.compare.calls",
            "core.merge.calls",
            "core.prune.calls",
            "core.prune.entries_removed",
            "kernels.compare_entries.calls",
        ),
    },
}


def prepare(name: str, seed: int, workdir: str) -> str:
    """Write the workload's generated inputs and its spec to workdir; return the spec path.

    exhaustive and random-long take no seeded input: the CLI fixes their
    histories (every small history; random seeds 0..N-1), so every seed runs
    the same work.
    """
    spec = {"workload": name, "kind": WORKLOADS[name]["kind"]}
    if name == "exhaustive":
        spec["argv"] = ["check", "--exhaustive", "6", "3"]
        spec["units"] = EXHAUSTIVE_HISTORIES
    elif name == "random-long":
        spec["argv"] = ["check", "--random", str(RANDOM_LONG_HISTORIES), "400", "8"]
        spec["units"] = RANDOM_LONG_HISTORIES
    elif name == "replica-sim":
        script = os.path.join(workdir, "script.txt")
        with open(script, "w", encoding="utf-8") as fh:
            fh.write(gen.replica_script(seed))
        spec["argv"] = ["run", script]
        spec["units"] = gen.SCRIPT_COMMANDS
    else:
        pool = os.path.join(workdir, "pool.json")
        with open(pool, "w", encoding="utf-8") as fh:
            json.dump(gen.wire_pool(seed), fh)
        spec["pool"] = pool
        spec["prune_bounds"] = gen.WIRE_PRUNE_BOUNDS
    path = os.path.join(workdir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path
