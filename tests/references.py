"""Test oracles written independently of the library code they check."""

from vclock.core import ClockEntry, InvalidActorError, PruneBounds, VClock, is_valid_actor


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


def vclock_entries_reference(entries) -> tuple[ClockEntry, ...]:
    """VClock's validated construction, written as a plain loop.

    Validates each entry in turn (arity, then actor, then count, then
    timestamp), sorts by actor and reports the first adjacent duplicate.
    Returns the entries VClock(entries) should hold, or raises the error it
    should raise. Used to cross-check VClock.__init__.
    """
    items = []
    for entry in entries:
        actor, count, timestamp = entry
        if not is_valid_actor(actor):
            raise InvalidActorError(f"invalid actor token: {actor!r}")
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"entry count must be an integer >= 1, got {count!r}")
        if not isinstance(timestamp, int) or timestamp < 0:
            raise ValueError(f"entry timestamp must be an integer >= 0, got {timestamp!r}")
        items.append(ClockEntry(actor, int(count), int(timestamp)))
    items.sort(key=lambda e: e.actor)
    for prev, cur in zip(items, items[1:]):
        if prev.actor == cur.actor:
            raise ValueError(f"duplicate actor in clock: {cur.actor!r}")
    return tuple(items)
