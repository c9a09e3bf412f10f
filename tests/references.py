"""Test oracles written independently of the library code they check."""

from vclock.core import PruneBounds, VClock


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
