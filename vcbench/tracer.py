"""Spans and counters around the library's public functions.

A traced run replaces each public function with a wrapper at every binding a
caller actually looks it up through (a module attribute, or a name another
module imported), records a span per call, and restores the originals when
done. Spans are aggregated in memory as they close: calls, total time and
self time (total minus the time of child spans), per span name.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.sibling_counts: list[int] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_result=None, on_error=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owners, attr, wrapper) -> None:
        """Point `attr` on every owner (module or class) at `wrapper`."""
        for owner in owners:
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


SPANS = (
    "cli.main",
    "oracle.build_history",
    "oracle.check_equivalence",
    "simulator.parse_scenario",
    "simulator.run_scenario",
    "simulator.integrate_siblings",
    "codec.decode",
    "codec.encode",
    "core.increment",
    "core.merge",
    "core.compare",
    "core.prune",
    "core.is_valid_actor",
    "core.VClock",
    "kernels.compare_entries",
)


def install(tracer: Tracer) -> None:
    """Wrap every span in SPANS at each binding its callers use."""
    from vclock import _backend, cli, codec, core, oracle, simulator

    def build_history_done(args, history):
        tracer.count("oracle.replay_events", len(args[0]))

    def check_done(args, violations):
        n = len(args[0].events)
        tracer.count("oracle.histories_checked")
        tracer.count("oracle.pairs_checked", n * (n - 1) // 2)
        tracer.count("oracle.violations", len(violations))

    def prune_done(args, result):
        tracer.count("core.prune.entries_removed", len(args[0]) - len(result))

    def decode_failed(exc):
        if isinstance(exc, codec.DecodeError):
            tracer.count("codec.decode.errors")
        else:
            tracer.count("codec.decode.bare_errors")

    def run_done(args, report):
        tracer.count("simulator.fails", report.fails)
        for keys in report.stores.values():
            tracer.sibling_counts.extend(len(s) for s in keys.values())

    def add(name, owners, attr, fn, **hooks):
        tracer.patch(owners, attr, tracer.wrap(name, fn, **hooks))

    add("cli.main", [cli], "main", cli.main)
    add("oracle.build_history", [oracle], "build_history", oracle.build_history,
        on_result=build_history_done)
    add("oracle.check_equivalence", [oracle], "check_equivalence", oracle.check_equivalence,
        on_result=check_done)
    add("simulator.parse_scenario", [simulator], "parse_scenario", simulator.parse_scenario)
    add("simulator.run_scenario", [simulator, cli], "run_scenario", simulator.run_scenario,
        on_result=run_done)
    add("simulator.integrate_siblings", [simulator], "integrate_siblings",
        simulator.integrate_siblings)
    # simulator imported decode by name
    add("codec.decode", [codec, simulator], "decode", codec.decode, on_error=decode_failed)
    add("codec.encode", [codec], "encode", codec.encode)
    # cli imported the clock operations by name
    add("core.increment", [core, cli], "increment", core.increment)
    add("core.merge", [core, cli], "merge", core.merge)
    add("core.compare", [core, cli], "compare", core.compare)
    add("core.prune", [core, cli], "prune", core.prune, on_result=prune_done)
    # codec imported is_valid_actor by name; core's own callers use the global
    add("core.is_valid_actor", [core, codec], "is_valid_actor", core.is_valid_actor)
    # validated construction only: the library's internal fast path skips __init__
    add("core.VClock", [core.VClock], "__init__", core.VClock.__init__)
    # core and oracle both read the attribute off the active kernel module
    add("kernels.compare_entries", [_backend.kernels], "compare_entries",
        _backend.kernels.compare_entries)
