"""Deterministic multi-replica scenario runner.

Replicas hold clock-tagged values; scripted commands update keys, push state
between replicas, prune clocks and assert on the outcome. Execution is
single-threaded and fully deterministic: logical time is the 1-based ordinal
of the executed command, so entry timestamps in clocks are predictable from
the script alone.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import core
from ._kernels_py import _new_tuple
from .codec import MAX_DIGITS, DecodeError, decode
from .core import FixedClock, Ordering, PruneBounds, VClock, _Fields, _Frozen, canonical_text

__all__ = [
    "Command",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "Sibling",
    "integrate_siblings",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "siblings_pairwise_concurrent",
]


class ScenarioError(ValueError):
    """A scenario failed to load; message carries the offending line number."""


class Sibling(NamedTuple):
    """One stored version of a key: an opaque value and its clock."""

    value: str
    clock: VClock


class Command(NamedTuple):
    """One parsed command line: its line number, _OPS op name and checked arguments."""

    line_no: int
    op: str
    args: tuple


class Scenario(_Frozen):
    """A parsed script: declared replicas, optional prune bounds, commands."""

    __match_args__ = ("replicas", "bounds", "commands")

    def __init__(
        self, replicas: tuple[str, ...], bounds: PruneBounds | None, commands: tuple[Command, ...]
    ):
        self._set_fields(replicas, bounds, commands)


class RunReport(_Fields):
    """Outcome of a scenario run: the text log plus structured final stores.

    Mutable, so unhashable; stores defaults to a new empty dict.
    """

    __match_args__ = ("lines", "passes", "fails", "stores")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        lines: tuple[str, ...],
        passes: int,
        fails: int,
        stores: dict[str, dict[str, tuple[str, ...]]] | None = None,
    ):
        self._set_fields(lines, passes, fails, {} if stores is None else stores)

    @property
    def ok(self) -> bool:
        return self.fails == 0

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


_ORDERING_TOKENS = {o.value for o in Ordering}


def _parse_nonneg(token: str, what: str, line_no: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ScenarioError(f"line {line_no}: {what} must be a non-negative integer, got {token!r}")
    try:
        if len(token) > MAX_DIGITS:
            raise ValueError
        return int(token)
    except ValueError:  # over MAX_DIGITS, or over a lower int() limit set on this host
        raise ScenarioError(f"line {line_no}: {what} has too many digits ({len(token)})") from None


def _argument(kind: str, token: str, line_no: int, replicas: dict, keys: dict, left: list):
    """Check one argument and return its value; `left` holds the arguments before it.

    A replica or key argument is returned as the one str held for that name in
    `replicas` or `keys` (name -> name), so every command shares it. A "new
    key" joins `keys` at once, after the one validation it needs: a later
    fault on its line fails the parse anyway.
    """
    if kind in ("replica", "other replica"):
        name = replicas.get(token)
        if name is None:
            raise ScenarioError(f"line {line_no}: unknown replica {token!r}")
        if kind == "other replica" and name == left[0]:
            raise ScenarioError(f"line {line_no}: sync source and destination are the same")
        return name
    if kind == "known key":
        name = keys.get(token)
        if name is None:
            raise ScenarioError(f"line {line_no}: key {token!r} is never written before this line")
        return name
    if kind == "new key":
        name = keys.get(token)
        if name is None:
            if not core.is_valid_actor(token):
                raise ScenarioError(f"line {line_no}: bad key token {token!r}")
            name = keys[token] = token
        return name
    if kind == "value":
        # tokens come from str.split(), so they hold no whitespace
        if not token.isprintable():
            raise ScenarioError(f"line {line_no}: bad value token {token!r}")
    elif kind == "clock text":
        try:
            return decode(token)
        except DecodeError as exc:
            raise ScenarioError(f"line {line_no}: bad clock text: {exc}") from exc
    elif kind == "ordering":
        if token not in _ORDERING_TOKENS:
            raise ScenarioError(f"line {line_no}: unknown ordering token {token!r}")
    else:  # "sibling count" or "sibling index"
        return _parse_nonneg(token, kind, line_no)
    return token


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario script.

    A line ends only at "\\n", "\\r\\n" or "\\r", as in a file read as text; other
    line breaks such as form feed or U+2028 are blanks inside a line. Lines
    are whitespace-tokenized; blank lines and lines starting with '#' are
    skipped. Replicas must be declared before use; keys must be
    introduced by an earlier update before other commands may reference
    them; prune requires a bounds declaration. Any violation raises
    ScenarioError with the line number; text that is not a str is a
    TypeError. A command line is checked against its _OPS entry: arity, then
    each argument's kind left to right, then bounds.

    A command line that repeats an earlier one (after stripping) is not
    checked again: its Command reuses the first one's op and args. Nothing
    later can undo a check that passed, since replicas and bounds are
    declared once, keys are only added, and neither declaration is reused.
    """
    if not isinstance(text, str):
        raise TypeError(f"scenario text must be str, got {type(text).__name__}")
    replicas: dict[str, str] = {}  # each declared name -> itself, shared by every command
    bounds: PruneBounds | None = None
    keys: dict[str, str] = {}  # each key -> the str of its first update
    commands: list[Command] = []
    parsed: dict[str, Command] = {}  # each command line -> its first Command
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first = parsed.get(line)
        if first is not None:
            commands.append(_new_tuple(Command, (line_no, first.op, first.args)))
            continue
        op, *operands = line.split()
        if op == "replicas":
            if replicas:
                raise ScenarioError(f"line {line_no}: duplicate replicas declaration")
            if not operands:
                raise ScenarioError(f"line {line_no}: replicas needs at least one name")
            for name in operands:
                if not core.is_valid_actor(name):
                    raise ScenarioError(f"line {line_no}: bad replica name {name!r}")
            replicas = {name: name for name in operands}
            if len(replicas) != len(operands):
                raise ScenarioError(f"line {line_no}: duplicate replica name")
            continue
        if op == "bounds":
            if bounds is not None:
                raise ScenarioError(f"line {line_no}: duplicate bounds declaration")
            if len(operands) != 4:
                raise ScenarioError(f"line {line_no}: bounds takes small large young old")
            values = [_parse_nonneg(t, "bound", line_no) for t in operands]
            try:
                bounds = PruneBounds(*values)
            except ValueError as exc:
                raise ScenarioError(f"line {line_no}: {exc}") from exc
            continue
        spec = _OPS.get(op)
        if op == "expect":  # the one op of two words
            if not operands:
                raise ScenarioError(f"line {line_no}: expect needs an assertion kind")
            assertion, *operands = operands
            spec = _OPS.get(f"expect {assertion}")
            if spec is None:
                raise ScenarioError(f"line {line_no}: unknown expect kind {assertion!r}")
        elif spec is None:
            raise ScenarioError(f"line {line_no}: unknown command {op!r}")
        if len(operands) != len(spec.kinds):
            raise ScenarioError(f"line {line_no}: {spec.usage}")
        args: list = []
        for kind, token in zip(spec.kinds, operands):
            args.append(_argument(kind, token, line_no, replicas, keys, args))
        if spec.needs_bounds and bounds is None:
            raise ScenarioError(f"line {line_no}: {spec.op} used without a bounds declaration")
        parsed[line] = command = Command(line_no, spec.op, tuple(args))
        commands.append(command)
    return Scenario(replicas=tuple(replicas), bounds=bounds, commands=tuple(commands))


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file; text that is not UTF-8 is a ScenarioError.

    One leading UTF-8 byte-order mark is skipped. It is dropped after decoding,
    so an error's byte offset counts it, as the file's own offsets do.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 at byte offset {exc.start}: {exc.reason}") from None
    return parse_scenario(text.removeprefix("\ufeff"))


def _sibling_key(sibling: Sibling) -> tuple[str, str]:
    return (canonical_text(sibling.clock), sibling.value)


def integrate_siblings(existing: Iterable[Sibling], incoming: Iterable[Sibling]) -> list[Sibling]:
    """Fold incoming versions into a sibling set under clock dominance.

    An incoming version already covered by a present one (Equal or
    descended) is dropped; versions it strictly dominates are replaced;
    anything else joins as a concurrent sibling. The result is canonically
    sorted by clock text, then value. Each (present, incoming) pair is
    compared once.
    """
    result = list(existing)
    for sib in incoming:
        kept = []
        for cur in result:
            c = core.compare(cur.clock, sib.clock)
            if c is Ordering.EQUAL or c is Ordering.DESCENDS:
                break
            if c is not Ordering.DOMINATED:
                kept.append(cur)
        else:
            kept.append(sib)
            result = kept
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


class _Run:
    """One run's stores and assertion tally; each handler method runs one command."""

    def __init__(
        self,
        stores: dict[str, dict[str, list[Sibling]]],
        bounds: PruneBounds | None,
        collapse: bool,
    ):
        self.stores = stores
        self.bounds = bounds
        self.collapse = collapse
        self.passes = 0
        self.fails = 0

    def verdict(self, ok: bool, claim: str, why: str) -> str:
        """Count one assertion and return its PASS/FAIL report line."""
        if ok:
            self.passes += 1
            return f"PASS {claim}"
        self.fails += 1
        return f"FAIL {claim} ({why})"

    def update(self, step: int, replica: str, key: str, value: str) -> str:
        store = self.stores[replica]
        siblings = store.get(key, [])
        base = core.fresh()
        for sib in siblings:
            base = core.merge(base, sib.clock)
        new_clock = core.increment(replica, base, FixedClock(step))
        new_sibling = Sibling(value, new_clock)
        if self.collapse:
            store[key] = [new_sibling]
        else:
            store[key] = sorted(siblings + [new_sibling], key=_sibling_key)
        return f"update {replica} {key} {value} -> {canonical_text(new_clock)}"

    def sync(self, step: int, src: str, dst: str, key: str) -> str:
        if key not in self.stores[src]:
            return f"sync {src} {dst} {key} -> no-op (key absent at source)"
        store = self.stores[dst]
        merged = store[key] = integrate_siblings(store.get(key, []), self.stores[src][key])
        return f"sync {src} {dst} {key} -> siblings={len(merged)}"

    def read(self, step: int, replica: str, key: str) -> str:
        siblings = self.stores[replica].get(key)
        if siblings is None:
            return f"read {replica} {key} -> absent"
        rendered = " | ".join(_rendered(siblings))
        return f"read {replica} {key} -> {len(siblings)} sibling(s): {rendered}"

    def prune(self, step: int, replica: str, key: str) -> str:
        store = self.stores[replica]
        if key not in store:
            return self.verdict(False, f"prune {replica} {key}", "key absent")
        pruned: list[Sibling] = []
        removals: list[str] = []
        for index, sib in enumerate(store[key]):
            new_clock = core.prune(sib.clock, step, self.bounds)
            kept = {e.actor for e in new_clock.entries}
            removed = [e.actor for e in sib.clock.entries if e.actor not in kept]
            removals.append(f"sibling{index} removed [{','.join(removed)}]")
            pruned.append(Sibling(sib.value, new_clock))
        # pruned clocks may have become comparable: re-establish the sibling invariant
        resolved = store[key] = integrate_siblings([], pruned)
        if len(resolved) < len(pruned):
            removals.append(f"collapsed {len(pruned) - len(resolved)} sibling(s)")
        return f"prune {replica} {key} -> {'; '.join(removals)}"

    def expect_siblings(self, step: int, replica: str, key: str, expected: int) -> str:
        actual = len(self.stores[replica].get(key, []))
        claim = f"expect siblings {replica} {key} {expected}"
        return self.verdict(actual == expected, claim, f"actual {actual}")

    def expect_clock(self, step: int, replica: str, key: str, expected: VClock) -> str:
        expected_text = canonical_text(expected)
        texts = [canonical_text(s.clock) for s in self.stores[replica].get(key, [])]
        have = " | ".join(texts) if texts else "absent"
        claim = f"expect clock {replica} {key} {expected_text}"
        return self.verdict(expected_text in texts, claim, f"siblings: {have}")

    def expect_compare(self, step: int, replica: str, key: str, i: int, j: int, token: str) -> str:
        siblings = self.stores[replica].get(key, [])
        claim = f"expect compare {replica} {key} {i} {j} {token}"
        if i >= len(siblings) or j >= len(siblings):
            return self.verdict(False, claim, f"only {len(siblings)} sibling(s)")
        actual = core.compare(siblings[i].clock, siblings[j].clock).value
        return self.verdict(actual == token, claim, f"actual {actual}")


def _rendered(siblings: list[Sibling]) -> tuple[str, ...]:
    return tuple(f"{s.value}@{canonical_text(s.clock)}" for s in siblings)


class _Op(NamedTuple):
    op: str  # Command.op, and the name of the _Run method that executes it
    usage: str  # the arity error
    kinds: tuple[str, ...]  # one per argument, checked left to right by _argument
    needs_bounds: bool = False


# The scenario language, keyed by a command line's op words. The `replicas`
# and `bounds` declarations are parsed on their own.
_OPS = {
    "update": _Op("update", "update takes replica key value", ("replica", "new key", "value")),
    "sync": _Op("sync", "sync takes src dst key", ("replica", "other replica", "known key")),
    "read": _Op("read", "read takes replica key", ("replica", "known key")),
    "prune": _Op("prune", "prune takes replica key", ("replica", "known key"), needs_bounds=True),
    "expect siblings": _Op("expect_siblings", "expect siblings takes replica key n",
                           ("replica", "known key", "sibling count")),
    "expect clock": _Op("expect_clock", "expect clock takes replica key clock-text",
                        ("replica", "known key", "clock text")),
    "expect compare": _Op("expect_compare", "expect compare takes replica key i j ordering",
                          ("replica", "known key", "sibling index", "sibling index", "ordering")),
}
_HANDLERS = {spec.op: getattr(_Run, spec.op) for spec in _OPS.values()}


def run_scenario(scenario: Scenario, collapse: bool = True) -> RunReport:
    """Execute a scenario; identical scenarios produce byte-identical reports.

    With collapse (the default) an update supersedes every sibling it
    observed: its clock is the increment of the merge of all current sibling
    clocks, and it replaces them. With collapse=False the new version is
    added alongside the existing siblings instead, which deliberately
    suspends the pairwise-concurrency invariant for exploration.
    """
    run = _Run({name: {} for name in scenario.replicas}, scenario.bounds, collapse)
    lines = [
        _HANDLERS[cmd.op](run, step, *cmd.args) for step, cmd in enumerate(scenario.commands, 1)
    ]
    lines.append("-- final state --")
    stores: dict[str, dict[str, tuple[str, ...]]] = {}
    for name in scenario.replicas:
        stores[name] = {key: _rendered(sibs) for key, sibs in sorted(run.stores[name].items())}
        if not stores[name]:
            lines.append(f"state {name} (empty)")
        for key, rendered in stores[name].items():
            lines.append(f"state {name} {key} = {' | '.join(rendered)}")
    lines.append(f"result: pass={run.passes} fail={run.fails}")
    return RunReport(lines=tuple(lines), passes=run.passes, fails=run.fails, stores=stores)
