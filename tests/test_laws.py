"""The laws of merge and increment, checked on every small clock.

The domain is every clock over the actors a, b and c, each absent or with
count 1-2 and timestamp 0-2: 7 ** 3 = 343 clocks. merge is checked on all
117,649 ordered pairs of them; increment on every clock, each of the actors
a-d and each of the times 0-2. Each law is one test, and its failure names
the first witness. Clocks are compared by their entries, timestamps
included, which is what VClock's == compares.
"""

from itertools import product

from vclock.core import FixedClock, Ordering, VClock, compare, increment, merge

ACTORS = "abc"
# one actor's slot in a clock: absent, or (count, timestamp)
SLOTS = (None, *product((1, 2), (0, 1, 2)))
# slot tuple, in ACTORS order -> its clock
CLOCKS = {
    slots: VClock([(actor, *slot) for actor, slot in zip(ACTORS, slots) if slot])
    for slots in product(SLOTS, repeat=len(ACTORS))
}
TIMES = (0, 1, 2)


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
