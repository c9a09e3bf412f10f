"""Ground-truth causality model used to verify the clock implementation.

Histories are explicit event DAGs: each event is a local update or the
receipt of an earlier event's message, and happened-before is plain graph
reachability with no clocks involved. Replaying a history through the core
operations and comparing the resulting clock order against reachability is
the equivalence check; on un-pruned histories any disagreement is a clock
bug.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping
from itertools import repeat
from typing import NamedTuple

from . import core
from . import _kernels_py as kernels
from .core import _ORDERINGS, FixedClock, Ordering, PruneBounds, VClock, _Frozen

__all__ = [
    "MAX_ENUM_ACTORS",
    "MAX_ENUM_EVENTS",
    "EnumerationBudgetError",
    "EventRecord",
    "History",
    "Violation",
    "actor_name",
    "build_history",
    "check_enumerated",
    "check_equivalence",
    "enumerate_histories",
    "happened_before",
    "random_history",
    "replay_clocks",
]

MAX_ENUM_EVENTS = 7
MAX_ENUM_ACTORS = 3

_DOMINATED = kernels.DOMINATED
# the code check_equivalence demands per graph bit: "1" (happened before) is
# Dominated, "0" (concurrent) is Concurrent
_GRAPH_CODES = bytes.maketrans(b"01", bytes((kernels.CONCURRENT, _DOMINATED)))
_MIRROR = (Ordering.EQUAL, Ordering.DOMINATED, Ordering.DESCENDS, Ordering.CONCURRENT)
_NO_PREDECESSORS: frozenset[int] = frozenset()
# EventRecord and History spell out one store per field, in __match_args__
# order so instance dicts share their keys, rather than go through
# _set_fields: build_history makes one of each per replayed event
_setattr = object.__setattr__


class EnumerationBudgetError(ValueError):
    """Requested exhaustive enumeration exceeds the fixed budget."""


class EventRecord(_Frozen):
    """One node of the happened-before DAG.

    received_from is None for a local update, otherwise the id of the
    earlier event (by another actor) whose message this event receives.
    predecessors holds the actor's previous event (if any) plus the sender.
    clock is the snapshot taken at this event during replay.
    """

    __match_args__ = ("id", "actor", "received_from", "predecessors", "clock")

    def __init__(
        self,
        id: int,
        actor: str,
        received_from: int | None,
        predecessors: frozenset[int],
        clock: VClock,
    ):
        _setattr(self, "id", id)
        _setattr(self, "actor", actor)
        _setattr(self, "received_from", received_from)
        _setattr(self, "predecessors", predecessors)
        _setattr(self, "clock", clock)


class History(_Frozen):
    """Events in topological order (predecessors reference lower indices)."""

    __match_args__ = ("events", "actors")

    def __init__(self, events: tuple[EventRecord, ...], actors: tuple[str, ...]):
        _setattr(self, "events", events)
        _setattr(self, "actors", actors)

    def __len__(self) -> int:
        return len(self.events)


class Violation(NamedTuple):
    """A pair of events whose graph relation and clock relation disagree."""

    left: int
    right: int
    graph: str  # hb | concurrent | inverse
    clocks: Ordering

    def render(self) -> str:
        return f"VIOLATION e{self.left} e{self.right} graph={self.graph} clocks={self.clocks.value}"


def actor_name(index: int) -> str:
    """Canonical actor name for an index >= 0: a, b, c, ... then a26, a27, ..."""
    if isinstance(index, bool) or not isinstance(index, int):
        raise ValueError(f"actor index must be an int, got {index!r}")
    if index < 0:
        raise ValueError(f"actor index must be >= 0, got {index}")
    if index < 26:
        return chr(ord("a") + index)
    return f"a{index}"


def build_history(
    steps: Iterable[tuple[str, int | None]],
    prune_at: Mapping[int, PruneBounds] | None = None,
    *,
    base: History | None = None,
) -> History:
    """Build a History from (actor, received_from) steps.

    received_from must point at an earlier event of a different actor.
    Snapshots are replayed through core merge + increment with logical
    time = event index; prune_at maps event ids to bounds applied to that
    event's snapshot right after it is taken, for studying the causality
    loss pruning introduces. The pruned snapshots are stored. steps may be
    any iterable; it is read once.

    With base, the steps extend base's events: ids continue after them, a
    step may receive from any of them, and only the new steps are validated
    and replayed. base's records are shared, not rebuilt. prune_at keys are
    event ids either way, so keys below len(base) have no effect.
    """
    if prune_at is not None and not isinstance(prune_at, Mapping):
        raise TypeError(
            "prune_at must be a mapping of event ids to PruneBounds, "
            f"got {type(prune_at).__name__}"
        )
    # read once: validation and replay both walk the steps, and a tuple
    # argument passes through as itself
    steps = tuple(steps)
    events = list(base.events) if base is not None else []
    start = len(events)
    for i, (actor, received_from) in enumerate(steps, start):
        if not core.is_valid_actor(actor):
            raise core.InvalidActorError(f"invalid actor token: {actor!r}")
        if received_from is not None:
            is_id = isinstance(received_from, int) and not isinstance(received_from, bool)
            if not (is_id and 0 <= received_from < i):
                raise ValueError(
                    f"event {i} receives from {received_from!r}, which is not an earlier event"
                )
            if received_from < start:
                sender = events[received_from].actor
            else:
                sender = steps[received_from - start][0]
            if sender == actor:
                raise ValueError(
                    f"event {i} receives from its own actor {actor!r}; messages cross actors"
                )
    # insertion order of the keys is the actors' order of first appearance
    last_by_actor = {ev.actor: ev.id for ev in events}
    for i, (actor, received_from) in enumerate(steps, start):
        prev = last_by_actor.get(actor)
        snap = core.fresh() if prev is None else events[prev].clock
        if received_from is not None:
            snap = core.merge(snap, events[received_from].clock)
        snap = core.increment(actor, snap, FixedClock(i))
        if prune_at is not None and i in prune_at:
            snap = core.prune(snap, i, prune_at[i])
        if prev is None:
            preds = _NO_PREDECESSORS if received_from is None else frozenset((received_from,))
        elif received_from is None:
            preds = frozenset((prev,))
        else:
            preds = frozenset((prev, received_from))
        events.append(EventRecord(i, actor, received_from, preds, snap))
        last_by_actor[actor] = i
    return History(tuple(events), tuple(last_by_actor))


def replay_clocks(
    h: History, prune_at: Mapping[int, PruneBounds] | None = None
) -> dict[int, VClock]:
    """Recompute every event's snapshot from the DAG structure.

    Ignores the snapshots stored on the history; for a history built without
    prune injection the result matches them exactly.
    """
    steps = [(ev.actor, ev.received_from) for ev in h.events]
    return {ev.id: ev.clock for ev in build_history(steps, prune_at).events}


def _masks_and_rows(h: History) -> tuple[list[int], list[tuple[core.ClockEntry, ...]]]:
    """Per event, in one pass: a bitmask of its causal past, and its clock's entries."""
    masks = [0] * len(h.events)
    rows = []
    for ev in h.events:
        m = 0
        for p in ev.predecessors:
            m |= masks[p] | (1 << p)
        masks[ev.id] = m
        rows.append(ev.clock.entries)
    return masks, rows


def happened_before(h: History, e1: int, e2: int) -> bool:
    """True iff e1 is in e2's causal past. Irreflexive; pure graph reachability."""
    n = len(h.events)
    for e in (e1, e2):
        if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < n:
            raise ValueError(f"unknown event id: {e!r}")
    if e1 == e2:
        return False
    return bool(_masks_and_rows(h)[0][e2] >> e1 & 1)


def check_equivalence(h: History, *, since: int = 0) -> list[Violation]:
    """Compare graph causality against clock order for every event pair.

    For events i before j in the graph, j's snapshot must strictly dominate
    i's; for graph-concurrent pairs the snapshots must compare Concurrent.
    Each violating pair is reported in both orientations. An empty list
    means the clocks agree with the graph everywhere.

    Each later event j is checked as one row: the kernel codes of its pairs
    (i, j), i < j, form one bytes object that is compared once with the
    codes j's ancestor mask demands. Only a row that differs is walked pair
    by pair to report its violations, in i order. Each checked pair still
    costs exactly one kernels.compare_entries(entries_i, entries_j) call,
    looked up on the kernel module when the check starts.

    With since, only pairs whose later event id is >= since are checked, so
    since=len(h) - 1 checks just the last event against the rest. Later
    events change neither the graph nor the clocks of earlier ones, so the
    report on h's first since events plus this one is the full report,
    element for element.
    """
    n = len(h.events)
    if isinstance(since, bool) or not isinstance(since, int) or not 0 <= since <= n:
        raise ValueError(f"since must be an int in 0..{n}, got {since!r}")
    masks, entry_seqs = _masks_and_rows(h)
    compare_entries = kernels.compare_entries
    violations: list[Violation] = []
    for j in range(since, n):
        codes = bytes(map(compare_entries, entry_seqs[:j], repeat(entry_seqs[j])))
        # with bit j set as a sentinel, bin() spells all j bits below it; the
        # slice drops "0b1" and reverses them, so digit i says whether i
        # happened before j, and translate turns it into the code that demands
        expected = bin(masks[j] | 1 << j)[:2:-1].encode().translate(_GRAPH_CODES)
        if codes == expected:
            continue
        for i, (code, want) in enumerate(zip(codes, expected)):
            if code != want:
                if want == _DOMINATED:
                    graph, mirror_graph = "hb", "inverse"
                else:
                    graph = mirror_graph = "concurrent"
                violations.append(Violation(i, j, graph, _ORDERINGS[code]))
                violations.append(Violation(j, i, mirror_graph, _MIRROR[code]))
    return violations


def enumerate_histories(max_events: int, max_actors: int) -> Iterator[History]:
    """Exhaustively yield every non-empty history within the bounds.

    Covers 1..max_events events over at most max_actors actors. Actor names
    are canonicalized by order of first appearance, which is the only
    isomorphism reduction applied. Deterministic order.
    """
    for bound in (max_events, max_actors):
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise ValueError(f"bounds must be ints, got {bound!r}")
    if max_events > MAX_ENUM_EVENTS or max_actors > MAX_ENUM_ACTORS:
        raise EnumerationBudgetError(
            f"budget exceeded: at most {MAX_ENUM_EVENTS} events over "
            f"{MAX_ENUM_ACTORS} actors, requested {max_events} over {max_actors}"
        )
    if max_events < 0 or max_actors < 0:
        raise ValueError("bounds must be non-negative")
    names = [actor_name(i) for i in range(max_actors)]

    def walk() -> Iterator[History]:
        # depth-first: each popped entry is (parent, one child's steps); the
        # child's own children are pushed above its later siblings, in reverse
        # so that they pop in order
        pending: list[tuple[History, tuple[tuple[str, int | None]]]] = []
        history = History(events=(), actors=())
        while True:
            if len(history.events) < max_events:
                # actors stay canonical: a child adds at most the next new name
                children = []
                for actor in names[: len(history.actors) + 1]:
                    children.append((history, ((actor, None),)))
                    children += [
                        (history, ((actor, ev.id),)) for ev in history.events if ev.actor != actor
                    ]
                children.reverse()
                pending += children
            if not pending:
                return
            parent, steps = pending.pop()
            # one replayed event per history: the child shares the parent's records
            history = build_history(steps, base=parent)
            yield history

    return walk()


def check_enumerated(
    max_events: int, max_actors: int
) -> Iterator[tuple[History, list[Violation]]]:
    """Yield (history, check_equivalence(history)) for every enumerated history.

    Same histories in the same order as enumerate_histories, and the same
    bounds errors, raised eagerly. Each history is checked only against its
    new last event; the rest of its report is its parent's.
    """
    # reports[k] is the report of the last history checked with k events;
    # depth-first, that is the parent of every history of k + 1 events
    # until the next history of k events is checked
    reports: list[list[Violation]] = [[]]

    def checked(history: History) -> tuple[History, list[Violation]]:
        n = len(history.events)
        report = reports[n - 1] + check_equivalence(history, since=n - 1)
        reports[n:] = [report]
        return history, report.copy()

    return map(checked, enumerate_histories(max_events, max_actors))


def random_history(seed: int, events: int, actors: int) -> History:
    """Deterministic pseudo-random history: same arguments, same history.

    Each event picks a uniform actor; when earlier events by other actors
    exist it receives from a uniform one of them with probability 1/2.
    seed, events and actors must be ints; a bool is refused.
    """
    for name, value in (("seed", seed), ("events", events), ("actors", actors)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if events < 0:
        raise ValueError("events must be >= 0")
    if actors < 1:
        raise ValueError("actors must be >= 1")
    rng = random.Random(seed)
    # per drawn actor: its name and own, where own[t] counts the events of
    # other actors that precede its t-th event; only actors actually drawn
    # get an entry, so memory is O(events) whatever `actors` is
    drawn: dict[int, tuple[str, list[int]]] = {}
    steps: list[tuple[str, int | None]] = []
    for i in range(events):
        a = rng.randrange(actors)
        if a not in drawn:
            drawn[a] = (actor_name(a), [])
        name, own = drawn[a]
        others = i - len(own)
        received_from: int | None = None
        if others and rng.random() < 0.5:
            # the k-th other-actor event, after the own events that precede it
            k = rng.randrange(others)
            received_from = k + bisect_right(own, k)
        own.append(others)
        steps.append((name, received_from))
    return build_history(tuple(steps))
