"""Deterministic multi-replica scenario runner.

Replicas hold clock-tagged values; scripted commands update keys, push state
between replicas, prune clocks and assert on the outcome. Execution is
single-threaded and fully deterministic: logical time is the 1-based ordinal
of the executed command, so entry timestamps in clocks are predictable from
the script alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from . import core
from .codec import DecodeError, decode
from .core import FixedClock, Ordering, PruneBounds, VClock, canonical_text

__all__ = [
    "Command",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "Sibling",
    "integrate_siblings",
    "load_scenario",
    "parse_scenario",
    "prune_reference",
    "run_scenario",
    "siblings_pairwise_concurrent",
]


class ScenarioError(ValueError):
    """A scenario failed to load; message carries the offending line number."""


class Sibling(NamedTuple):
    """One stored version of a key: an opaque value and its clock."""

    value: str
    clock: VClock


@dataclass(frozen=True)
class Command:
    line_no: int
    op: str
    args: tuple


@dataclass(frozen=True)
class Scenario:
    """A parsed script: declared replicas, optional prune bounds, commands."""

    replicas: tuple[str, ...]
    bounds: PruneBounds | None
    commands: tuple[Command, ...]


@dataclass
class RunReport:
    """Outcome of a scenario run: the text log plus structured final stores."""

    lines: tuple[str, ...]
    passes: int
    fails: int
    stores: dict[str, dict[str, tuple[str, ...]]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.fails == 0

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


_ORDERING_TOKENS = {o.value for o in Ordering}


def _is_value_token(token: str) -> bool:
    if not token:
        return False
    return all(ch.isprintable() and not ch.isspace() for ch in token)


def _parse_nonneg(token: str, what: str, line_no: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ScenarioError(f"line {line_no}: {what} must be a non-negative integer, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts by default
        raise ScenarioError(f"line {line_no}: {what} has too many digits ({len(token)})") from None


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario script.

    Lines are whitespace-tokenized; blank lines and lines starting with '#'
    are skipped. Replicas must be declared before use; keys must be
    introduced by an earlier update before other commands may reference
    them; prune requires a bounds declaration. Any violation raises
    ScenarioError with the line number.
    """
    replicas: tuple[str, ...] | None = None
    bounds: PruneBounds | None = None
    commands: list[Command] = []
    known_keys: set[str] = set()

    def require_replica(name: str, line_no: int) -> None:
        if replicas is None or name not in replicas:
            raise ScenarioError(f"line {line_no}: unknown replica {name!r}")

    def require_key(key: str, line_no: int) -> None:
        if key not in known_keys:
            raise ScenarioError(f"line {line_no}: key {key!r} is never written before this line")

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        op = tokens[0]
        if op == "replicas":
            if replicas is not None:
                raise ScenarioError(f"line {line_no}: duplicate replicas declaration")
            names = tokens[1:]
            if not names:
                raise ScenarioError(f"line {line_no}: replicas needs at least one name")
            for name in names:
                if not core.is_valid_actor(name):
                    raise ScenarioError(f"line {line_no}: bad replica name {name!r}")
            if len(set(names)) != len(names):
                raise ScenarioError(f"line {line_no}: duplicate replica name")
            replicas = tuple(names)
        elif op == "bounds":
            if bounds is not None:
                raise ScenarioError(f"line {line_no}: duplicate bounds declaration")
            if len(tokens) != 5:
                raise ScenarioError(f"line {line_no}: bounds takes small large young old")
            values = [_parse_nonneg(t, "bound", line_no) for t in tokens[1:]]
            try:
                bounds = PruneBounds(*values)
            except ValueError as exc:
                raise ScenarioError(f"line {line_no}: {exc}") from exc
        elif op == "update":
            if len(tokens) != 4:
                raise ScenarioError(f"line {line_no}: update takes replica key value")
            _, replica, key, value = tokens
            require_replica(replica, line_no)
            if not core.is_valid_actor(key):
                raise ScenarioError(f"line {line_no}: bad key token {key!r}")
            if not _is_value_token(value):
                raise ScenarioError(f"line {line_no}: bad value token {value!r}")
            known_keys.add(key)
            commands.append(Command(line_no, "update", (replica, key, value)))
        elif op == "sync":
            if len(tokens) != 4:
                raise ScenarioError(f"line {line_no}: sync takes src dst key")
            _, src, dst, key = tokens
            require_replica(src, line_no)
            require_replica(dst, line_no)
            if src == dst:
                raise ScenarioError(f"line {line_no}: sync source and destination are the same")
            require_key(key, line_no)
            commands.append(Command(line_no, "sync", (src, dst, key)))
        elif op == "read":
            if len(tokens) != 3:
                raise ScenarioError(f"line {line_no}: read takes replica key")
            _, replica, key = tokens
            require_replica(replica, line_no)
            require_key(key, line_no)
            commands.append(Command(line_no, "read", (replica, key)))
        elif op == "prune":
            if len(tokens) != 3:
                raise ScenarioError(f"line {line_no}: prune takes replica key")
            _, replica, key = tokens
            require_replica(replica, line_no)
            require_key(key, line_no)
            if bounds is None:
                raise ScenarioError(f"line {line_no}: prune used without a bounds declaration")
            commands.append(Command(line_no, "prune", (replica, key)))
        elif op == "expect":
            if len(tokens) < 2:
                raise ScenarioError(f"line {line_no}: expect needs an assertion kind")
            kind = tokens[1]
            if kind == "siblings":
                if len(tokens) != 5:
                    raise ScenarioError(f"line {line_no}: expect siblings takes replica key n")
                _, _, replica, key, n_text = tokens
                require_replica(replica, line_no)
                require_key(key, line_no)
                n = _parse_nonneg(n_text, "sibling count", line_no)
                commands.append(Command(line_no, "expect_siblings", (replica, key, n)))
            elif kind == "clock":
                if len(tokens) != 5:
                    raise ScenarioError(f"line {line_no}: expect clock takes replica key clock-text")
                _, _, replica, key, clock_text = tokens
                require_replica(replica, line_no)
                require_key(key, line_no)
                try:
                    expected = decode(clock_text)
                except DecodeError as exc:
                    raise ScenarioError(f"line {line_no}: bad clock text: {exc}") from exc
                commands.append(Command(line_no, "expect_clock", (replica, key, expected)))
            elif kind == "compare":
                if len(tokens) != 7:
                    raise ScenarioError(
                        f"line {line_no}: expect compare takes replica key i j ordering"
                    )
                _, _, replica, key, i_text, j_text, ordering = tokens
                require_replica(replica, line_no)
                require_key(key, line_no)
                i = _parse_nonneg(i_text, "sibling index", line_no)
                j = _parse_nonneg(j_text, "sibling index", line_no)
                if ordering not in _ORDERING_TOKENS:
                    raise ScenarioError(f"line {line_no}: unknown ordering token {ordering!r}")
                commands.append(Command(line_no, "expect_compare", (replica, key, i, j, ordering)))
            else:
                raise ScenarioError(f"line {line_no}: unknown expect kind {kind!r}")
        else:
            raise ScenarioError(f"line {line_no}: unknown command {op!r}")
    return Scenario(replicas=replicas or (), bounds=bounds, commands=tuple(commands))


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _sibling_key(sibling: Sibling) -> tuple[str, str]:
    return (canonical_text(sibling.clock), sibling.value)


def integrate_siblings(existing: Iterable[Sibling], incoming: Iterable[Sibling]) -> list[Sibling]:
    """Fold incoming versions into a sibling set under clock dominance.

    An incoming version already covered by a present one (Equal or
    descended) is dropped; versions it strictly dominates are replaced;
    anything else joins as a concurrent sibling. The result is canonically
    sorted by clock text, then value.
    """
    result = list(existing)
    for sib in incoming:
        covered = False
        for cur in result:
            c = core.compare(cur.clock, sib.clock)
            if c is Ordering.EQUAL or c is Ordering.DESCENDS:
                covered = True
                break
        if covered:
            continue
        result = [cur for cur in result if core.compare(sib.clock, cur.clock) is not Ordering.DESCENDS]
        result.append(sib)
    result.sort(key=_sibling_key)
    return result


def siblings_pairwise_concurrent(siblings: Iterable[Sibling]) -> bool:
    """True iff no stored version's clock descends another's."""
    sibs = list(siblings)
    for i, a in enumerate(sibs):
        for b in sibs[i + 1 :]:
            if core.compare(a.clock, b.clock) is not Ordering.CONCURRENT:
                return False
    return True


def prune_reference(clock: VClock, now: int, bounds: PruneBounds) -> VClock:
    """Rule-literal pruning, written independently of core.prune.

    Re-finds the oldest entry from scratch on every round and re-tests the
    full removal condition, so it shares no code path with the core
    implementation. Used to cross-check core.prune.
    """
    entries = list(clock.entries)
    while len(entries) > bounds.small:
        oldest = min(entries, key=lambda e: (e.timestamp, e.actor))
        size = len(entries)
        removable = (
            size > bounds.small
            and (size > bounds.large or oldest.timestamp < now - bounds.old)
            and oldest.timestamp < now - bounds.young
        )
        if not removable:
            break
        entries.remove(oldest)
    return VClock(entries)


@dataclass
class _ReplicaState:
    id: str
    store: dict[str, list[Sibling]] = field(default_factory=dict)
    logical_time: int = 0


def run_scenario(scenario: Scenario, collapse: bool = True) -> RunReport:
    """Execute a scenario; identical scenarios produce byte-identical reports.

    With collapse (the default) an update supersedes every sibling it
    observed: its clock is the increment of the merge of all current sibling
    clocks, and it replaces them. With collapse=False the new version is
    added alongside the existing siblings instead, which deliberately
    suspends the pairwise-concurrency invariant for exploration.
    """
    states = {name: _ReplicaState(name) for name in scenario.replicas}
    lines: list[str] = []
    passes = 0
    fails = 0

    def render_siblings(siblings: list[Sibling]) -> str:
        return " | ".join(f"{s.value}@{canonical_text(s.clock)}" for s in siblings)

    for step, cmd in enumerate(scenario.commands, 1):
        op = cmd.op
        if op == "update":
            replica, key, value = cmd.args
            state = states[replica]
            siblings = state.store.get(key, [])
            base = core.fresh()
            for sib in siblings:
                base = core.merge(base, sib.clock)
            new_clock = core.increment(replica, base, FixedClock(step))
            new_sibling = Sibling(value, new_clock)
            if collapse:
                state.store[key] = [new_sibling]
            else:
                state.store[key] = sorted(siblings + [new_sibling], key=_sibling_key)
            state.logical_time = step
            lines.append(f"update {replica} {key} {value} -> {canonical_text(new_clock)}")
        elif op == "sync":
            src, dst, key = cmd.args
            src_state = states[src]
            dst_state = states[dst]
            if key not in src_state.store:
                lines.append(f"sync {src} {dst} {key} -> no-op (key absent at source)")
                continue
            merged = integrate_siblings(dst_state.store.get(key, []), src_state.store[key])
            dst_state.store[key] = merged
            dst_state.logical_time = step
            lines.append(f"sync {src} {dst} {key} -> siblings={len(merged)}")
        elif op == "read":
            replica, key = cmd.args
            siblings = states[replica].store.get(key)
            if siblings is None:
                lines.append(f"read {replica} {key} -> absent")
            else:
                lines.append(
                    f"read {replica} {key} -> {len(siblings)} sibling(s): {render_siblings(siblings)}"
                )
        elif op == "prune":
            replica, key = cmd.args
            state = states[replica]
            if key not in state.store:
                fails += 1
                lines.append(f"FAIL prune {replica} {key} (key absent)")
                continue
            assert scenario.bounds is not None  # guaranteed by the parser
            pruned: list[Sibling] = []
            removals: list[str] = []
            for index, sib in enumerate(state.store[key]):
                new_clock = core.prune(sib.clock, step, scenario.bounds)
                kept = {e.actor for e in new_clock.entries}
                removed = [e.actor for e in sib.clock.entries if e.actor not in kept]
                removals.append(f"sibling{index} removed [{','.join(removed)}]")
                pruned.append(Sibling(sib.value, new_clock))
            # pruned clocks may have become comparable; re-establish the
            # sibling invariant deterministically
            resolved: list[Sibling] = []
            for sib in pruned:
                resolved = integrate_siblings(resolved, [sib])
            collapsed = len(pruned) - len(resolved)
            state.store[key] = resolved
            state.logical_time = step
            detail = "; ".join(removals)
            if collapsed:
                detail += f"; collapsed {collapsed} sibling(s)"
            lines.append(f"prune {replica} {key} -> {detail}")
        elif op == "expect_siblings":
            replica, key, expected = cmd.args
            actual = len(states[replica].store.get(key, []))
            if actual == expected:
                passes += 1
                lines.append(f"PASS expect siblings {replica} {key} {expected}")
            else:
                fails += 1
                lines.append(f"FAIL expect siblings {replica} {key} {expected} (actual {actual})")
        elif op == "expect_clock":
            replica, key, expected = cmd.args
            expected_text = canonical_text(expected)
            siblings = states[replica].store.get(key, [])
            texts = [canonical_text(s.clock) for s in siblings]
            if expected_text in texts:
                passes += 1
                lines.append(f"PASS expect clock {replica} {key} {expected_text}")
            else:
                fails += 1
                have = " | ".join(texts) if texts else "absent"
                lines.append(f"FAIL expect clock {replica} {key} {expected_text} (siblings: {have})")
        elif op == "expect_compare":
            replica, key, i, j, token = cmd.args
            siblings = states[replica].store.get(key, [])
            if i >= len(siblings) or j >= len(siblings):
                fails += 1
                lines.append(
                    f"FAIL expect compare {replica} {key} {i} {j} {token} "
                    f"(only {len(siblings)} sibling(s))"
                )
                continue
            actual = core.compare(siblings[i].clock, siblings[j].clock).value
            if actual == token:
                passes += 1
                lines.append(f"PASS expect compare {replica} {key} {i} {j} {token}")
            else:
                fails += 1
                lines.append(
                    f"FAIL expect compare {replica} {key} {i} {j} {token} (actual {actual})"
                )
        else:  # pragma: no cover - parser only emits the ops above
            raise AssertionError(f"unhandled op {op!r}")

    lines.append("-- final state --")
    stores: dict[str, dict[str, tuple[str, ...]]] = {}
    for name in scenario.replicas:
        state = states[name]
        stores[name] = {}
        if not state.store:
            lines.append(f"state {name} (empty)")
            continue
        for key in sorted(state.store):
            siblings = state.store[key]
            rendered = tuple(f"{s.value}@{canonical_text(s.clock)}" for s in siblings)
            stores[name][key] = rendered
            lines.append(f"state {name} {key} = {' | '.join(rendered)}")
    lines.append(f"result: pass={passes} fail={fails}")
    return RunReport(lines=tuple(lines), passes=passes, fails=fails, stores=stores)
