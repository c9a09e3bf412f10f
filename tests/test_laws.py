"""The laws of the clock operations, checked on every small clock.

The domain is every clock over the actors a, b and c, each absent or with
count 1-2 and timestamp 0-2: 7 ** 3 = 343 clocks. merge, descends, compare
and equal are checked on all 117,649 ordered pairs of them; merge's
associativity and descends' transitivity on all 117,649 triples of the 49
clocks over a and b alone; increment on every clock, each of the actors
a-d and each of the times 0-2; prune on every clock, each now 0-5 and each
of the 100 valid bounds with values 0-3, 205,800 cases. Each law is one
test, and its failure names the first witness. Clocks are compared by their
entries, timestamps included, which is what VClock's == compares.
"""

from itertools import product

from vclock.core import (
    FixedClock,
    Ordering,
    PruneBounds,
    VClock,
    compare,
    descends,
    equal,
    increment,
    merge,
    prune,
)

ACTORS = "abc"
# one actor's slot in a clock: absent, or (count, timestamp)
SLOTS = (None, *product((1, 2), (0, 1, 2)))
# slot tuple, in ACTORS order -> its clock
CLOCKS = {
    slots: VClock([(actor, *slot) for actor, slot in zip(ACTORS, slots) if slot])
    for slots in product(SLOTS, repeat=len(ACTORS))
}
TIMES = (0, 1, 2)
# the clocks over the actors a and b alone: 7 ** 2 = 49
CLOCKS_AB = [v for slots, v in CLOCKS.items() if slots[2] is None]
# (descends(a, b), descends(b, a)) -> compare(a, b)
BY_DESCENDS = {
    (True, True): Ordering.EQUAL,
    (True, False): Ordering.DESCENDS,
    (False, True): Ordering.DOMINATED,
    (False, False): Ordering.CONCURRENT,
}
NOWS = range(6)
# every PruneBounds with values 0-3: small <= large and young <= old
BOUNDS = [
    PruneBounds(*values)
    for values in product(range(4), repeat=4)
    if values[0] <= values[1] and values[2] <= values[3]
]


def joined_slot(x, y):
    """One actor's slot in a merge, by the law: the maximum count and the maximum timestamp."""
    if x is None:
        return y
    if y is None:
        return x
    return max(x[0], y[0]), max(x[1], y[1])


def test_domain_size():
    assert len(CLOCKS) == 343
    assert len(set(CLOCKS.values())) == 343
    assert len(CLOCKS_AB) == 49
    assert len(set(BOUNDS)) == 100


def test_merge_is_commutative():
    for a, b in product(CLOCKS.values(), repeat=2):
        assert merge(a, b).entries == merge(b, a).entries, (a, b)


def test_merge_is_idempotent():
    for a in CLOCKS.values():
        assert merge(a, a).entries == a.entries, a
    # so merging a clock into a merge that already holds it changes nothing
    for a, b in product(CLOCKS.values(), repeat=2):
        m = merge(a, b)
        assert merge(m, b).entries == m.entries, (a, b)


def test_merge_takes_the_per_actor_maxima():
    for (slots_a, a), (slots_b, b) in product(CLOCKS.items(), repeat=2):
        want = CLOCKS[tuple(map(joined_slot, slots_a, slots_b))]
        assert merge(a, b).entries == want.entries, (a, b)


def increments():
    """(slots of v, v, actor, time, increment(actor, v, FixedClock(time))) over the domain."""
    for (slots, v), actor, time in product(CLOCKS.items(), "abcd", TIMES):
        yield slots, v, actor, time, increment(actor, v, FixedClock(time))


def test_increment_advances_its_actor():
    # the actor's count rises by one (from 0 if absent); its timestamp becomes the time given
    for slots, v, actor, time, r in increments():
        before = dict(zip(ACTORS, slots)).get(actor)
        count = before[0] + 1 if before else 1
        assert [e[1:] for e in r.entries if e.actor == actor] == [(count, time)], (v, actor, time)


def test_increment_keeps_every_other_entry():
    for _, v, actor, time, r in increments():
        assert [e for e in r.entries if e.actor != actor] == [
            e for e in v.entries if e.actor != actor
        ], (v, actor, time)


def test_increment_strictly_descends_its_input():
    for _, v, actor, time, r in increments():
        assert compare(r, v) is Ordering.DESCENDS, (v, actor, time)


# --- descends, compare and equal on pairs; the triples -------------------------


def test_descends_is_pointwise_at_least_on_counts():
    for (slots_a, a), (slots_b, b) in product(CLOCKS.items(), repeat=2):
        want = all((x or (0,))[0] >= (y or (0,))[0] for x, y in zip(slots_a, slots_b))
        assert descends(a, b) is want, (a, b)


def test_compare_follows_from_descends_both_ways():
    for a, b in product(CLOCKS.values(), repeat=2):
        assert compare(a, b) is BY_DESCENDS[descends(a, b), descends(b, a)], (a, b)


def test_equal_is_descends_both_ways():
    for a, b in product(CLOCKS.values(), repeat=2):
        assert equal(a, b) is (descends(a, b) and descends(b, a)), (a, b)


def test_merge_is_associative():
    for a, b, c in product(CLOCKS_AB, repeat=3):
        assert merge(merge(a, b), c).entries == merge(a, merge(b, c)).entries, (a, b, c)


def test_descends_is_transitive():
    for a, b, c in product(CLOCKS_AB, repeat=3):
        if descends(a, b) and descends(b, c):
            assert descends(a, c), (a, b, c)


# --- prune ---------------------------------------------------------------------


def prunes():
    """(v, now, bounds, prune(v, now, bounds)) over the domain."""
    for v, now, bounds in product(CLOCKS.values(), NOWS, BOUNDS):
        yield v, now, bounds, prune(v, now, bounds)


def oldest_first(entries):
    return sorted(entries, key=lambda e: (e.timestamp, e.actor))


def removable(entry, size, now, bounds):
    """Whether the rule lets prune remove entry, the oldest of size entries."""
    return (
        size > bounds.small
        and (size > bounds.large or entry.timestamp < now - bounds.old)
        and entry.timestamp < now - bounds.young
    )


def removed(v, r):
    """The entries of v whose actor r lacks, oldest first."""
    kept = {e.actor for e in r.entries}
    return oldest_first(e for e in v.entries if e.actor not in kept)


def test_prune_keeps_survivors_bit_identical():
    for v, now, bounds, r in prunes():
        kept = {e.actor for e in r.entries}
        assert r.entries == tuple(e for e in v.entries if e.actor in kept), (v, now, bounds)


def test_prune_removes_the_oldest_entries():
    for v, now, bounds, r in prunes():
        gone = removed(v, r)
        assert gone == oldest_first(v.entries)[: len(gone)], (v, now, bounds)


def test_prune_removes_only_what_the_rule_allows():
    for v, now, bounds, r in prunes():
        for k, entry in enumerate(removed(v, r)):
            assert removable(entry, len(v) - k, now, bounds), (v, now, bounds, entry)


def test_prune_stops_only_where_the_next_removal_is_not_allowed():
    for v, now, bounds, r in prunes():
        if r.entries:
            assert not removable(oldest_first(r.entries)[0], len(r), now, bounds), (v, now, bounds)


def test_prune_is_idempotent():
    for v, now, bounds, r in prunes():
        assert prune(r, now, bounds).entries == r.entries, (v, now, bounds)


def test_prune_input_descends_its_result():
    for v, now, bounds, r in prunes():
        assert descends(v, r), (v, now, bounds)
