"""Test oracles written independently of the library code they check, and
the helpers the test modules share.

The compare, merge and prune rules are vcbench/reference.py's, on sys.path
through conftest.py; their adapters here only convert the library's types.
The helpers are `spy`, which pins the calls made through a module global,
`vc`, `OVERLONG` and `SCENARIOS`.
"""

import random
import re
from collections.abc import Iterable, Sequence
from pathlib import Path

import reference
from reference import dict_to_entries, entries_to_dict

from vclock import _kernels_py as kernels
from vclock.codec import (
    ActorTokenError,
    CountRangeError,
    DuplicateActorError,
    MalformedEntryError,
    NumericFieldError,
)
from vclock.core import ClockEntry, InvalidActorError, Ordering, PruneBounds, VClock, is_valid_actor
from vclock.oracle import Violation

# the shipped scenario scripts, scenarios/*.txt
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# one past CPython's default limit on the digits int() converts from a
# string, which is also the codec's and the scenario parser's MAX_DIGITS
OVERLONG = "1" * 4301


def vc(*triples) -> VClock:
    """The clock holding the given (actor, count, timestamp) triples."""
    return VClock(triples)


def spy(patcher, owners, name: str) -> list[tuple]:
    """Wrap owners[0].<name> at every owner, through patcher.setattr.

    Each call is forwarded, and its positional arguments are appended to
    the returned list. patcher is monkeypatch, or a MonkeyPatch.context().
    """
    original = getattr(owners[0], name)
    calls = []

    def forward(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        patcher.setattr(owner, name, forward)
    return calls


def outcome(build, arg):
    """("value", build(arg)), or the class and message of the error it raised."""
    try:
        return "value", build(arg)
    except Exception as exc:  # the class and message are the contract
        return type(exc), str(exc)


def random_clock(rng: random.Random, max_count: int, max_timestamp: int) -> VClock:
    """A clock holding each of the actors a-h with probability one half."""
    entries = []
    for actor in "abcdefgh":
        if rng.random() < 0.5:
            entries.append((actor, rng.randint(1, max_count), rng.randint(0, max_timestamp)))
    return VClock(entries)


def kernel_reference(a: tuple, b: tuple) -> dict:
    """Expected result of every kernel on the canonical entry tuples a and b."""
    da, db = entries_to_dict(a), entries_to_dict(b)
    ordering = reference.compare(da, db)
    return {
        "compare_entries": _CODE_ORDERINGS.index(Ordering(ordering)),
        "descends_entries": reference.covers(da, db),
        "equal_entries": ordering == "Equal",
        "merge_entries": dict_to_entries(reference.merge(da, db)),
    }


def prune_reference(clock: VClock, now: int, bounds: PruneBounds) -> VClock:
    """core.prune by the dict reference's rule-literal loop."""
    pruned = reference.prune(
        entries_to_dict(clock.entries), now, bounds.small, bounds.large, bounds.young, bounds.old
    )
    return VClock(dict_to_entries(pruned))


def vclock_entries_reference(entries) -> tuple[ClockEntry, ...]:
    """VClock's validated construction, written as a plain loop.

    Validates each entry in turn (shape, then actor, then count, then
    timestamp), then sorts by actor and reports the first adjacent
    duplicate. Returns the entries VClock(entries) should hold, or raises
    the error it should raise. Used to cross-check VClock.__init__.
    """
    items = [_entry_reference(entry) for entry in entries]
    items.sort(key=lambda e: e.actor)
    for prev, cur in zip(items, items[1:]):
        if prev.actor == cur.actor:
            raise ValueError(f"duplicate actor in clock: {cur.actor!r}")
    return tuple(items)


def _entry_reference(entry) -> ClockEntry:
    # one entry's checks, in order: shape, actor, count, timestamp. An entry
    # is a Sequence of length three that is not a str, bytes or bytearray; a
    # tuple or list of another length is named by its unpacking error, a
    # non-iterable as one, and anything else by its type
    kind = type(entry).__name__
    if isinstance(entry, (tuple, list)) and len(entry) != 3:
        try:
            actor, count, timestamp = entry
        except ValueError as exc:  # the interpreter's own arity message
            raise ValueError(f"{exc}: entry {entry!r}") from None
    if not isinstance(entry, Iterable) and not hasattr(entry, "__getitem__"):
        raise TypeError(f"cannot unpack non-iterable {kind} object: entry {entry!r}")
    if (
        not isinstance(entry, Sequence)
        or isinstance(entry, (str, bytes, bytearray))
        or len(entry) != 3
    ):
        raise ValueError(f"a {kind} is not an (actor, count, timestamp) triple: entry {entry!r}")
    actor, count, timestamp = entry
    if not is_valid_actor(actor):
        raise InvalidActorError(f"invalid actor token: {actor!r}")
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"entry count must be an integer >= 1, got {count!r}")
    if not isinstance(timestamp, int) or timestamp < 0:
        raise ValueError(f"entry timestamp must be an integer >= 0, got {timestamp!r}")
    return ClockEntry(actor, int(count), int(timestamp))


# decode's digit rule as a regex: one or more ASCII decimal digits, nothing else
DECIMAL = re.compile(r"[0-9]+\Z")


def decode_reference(text) -> VClock:
    """codec.decode's field-by-field validation, written as a plain loop.

    Checks that the text is a str, maps "-" to the empty clock, then checks
    each ';' field in turn: three ':' fields, the actor token, ASCII decimal
    digits, at most 4,300 of them, a count of at least one, and a new actor.
    Ends in VClock(entries). Returns the clock decode(text) should return, or
    raises the error it should raise. Used to cross-check codec.decode.
    """
    if not isinstance(text, str):
        raise TypeError(f"wire text must be str, got {type(text).__name__}")
    if text == "-":
        return VClock()
    entries = []
    seen = set()
    for field in text.split(";"):
        parts = field.split(":")
        if len(parts) != 3:
            raise MalformedEntryError(f"expected actor:count:timestamp, got {field!r}")
        actor, count_text, timestamp_text = parts
        if not is_valid_actor(actor):
            raise ActorTokenError(f"bad actor token {actor!r} in entry {field!r}")
        if not (DECIMAL.match(count_text) and DECIMAL.match(timestamp_text)):
            raise NumericFieldError(
                f"count and timestamp must be decimal digits in entry {field!r}"
            )
        if len(count_text) > 4300 or len(timestamp_text) > 4300:
            raise NumericFieldError(
                f"count or timestamp has too many digits in entry {field[:40]!r}..."
            )
        count = int(count_text)
        timestamp = int(timestamp_text)
        if count == 0:
            raise CountRangeError(f"count must be >= 1 in entry {field!r}")
        if actor in seen:
            raise DuplicateActorError(f"duplicate actor {actor!r}")
        seen.add(actor)
        entries.append((actor, count, timestamp))
    return VClock(entries)


# compare_entries' result codes, in code order, and the same orderings seen
# from the other side of the pair
_CODE_ORDERINGS = (Ordering.EQUAL, Ordering.DESCENDS, Ordering.DOMINATED, Ordering.CONCURRENT)
_CODE_MIRRORS = (Ordering.EQUAL, Ordering.DOMINATED, Ordering.DESCENDS, Ordering.CONCURRENT)


def check_equivalence_reference(h, since=0) -> list[Violation]:
    """oracle.check_equivalence as a plain pair loop.

    Collects each event's causal past as a set from the events'
    predecessors, then, for every later event j >= since and every i < j in
    order, compares the two snapshots with kernels.compare_entries (looked up
    when it runs, so a patched kernel is seen) and reports a pair whose
    clocks disagree with the graph in both orientations. Used to cross-check
    check_equivalence.
    """
    past = []
    for ev in h.events:
        ancestors = set()
        for p in ev.predecessors:
            ancestors |= past[p]
            ancestors.add(p)
        past.append(ancestors)
    clocks = [ev.clock for ev in h.events]
    violations = []
    for j in range(since, len(h.events)):
        for i in range(j):
            code = kernels.compare_entries(clocks[i].entries, clocks[j].entries)
            if i in past[j]:
                if code == kernels.DOMINATED:
                    continue
                graph, mirror_graph = "hb", "inverse"
            else:
                if code == kernels.CONCURRENT:
                    continue
                graph = mirror_graph = "concurrent"
            violations.append(Violation(i, j, graph, _CODE_ORDERINGS[code]))
            violations.append(Violation(j, i, mirror_graph, _CODE_MIRRORS[code]))
    return violations
