"""Pure-Python kernels over canonical vector-clock entry sequences.

An entry sequence is a tuple of (actor, count, timestamp) triples sorted by
actor with no duplicate actors. These functions are the hot inner loops of
clock comparison. :func:`compare_entries` is the one comparison kernel, a
walk in two phases: phase 1 steps through both sequences while they are
equal, and their first difference says which side is behind; phase 2 swaps
the two sides when ``b`` is the one behind, so that one loop, looking only for
the other direction, serves both, and returns ``CONCURRENT`` where it finds
it. :func:`descends_entries` and :func:`equal_entries` read its code,
calling it through this module's global, so a patched ``compare_entries``
sees every comparison. A clock's entries are :class:`ClockEntry` triples,
and on such inputs :func:`merge_entries` returns only :class:`ClockEntry`
triples, so a merged clock needs no conversion.
"""

from typing import NamedTuple


class ClockEntry(NamedTuple):
    """One actor's slot in a vector clock."""

    actor: str
    count: int
    timestamp: int


# _new_tuple(ClockEntry, (actor, count, timestamp)) builds an entry without
# the Python-level call to ClockEntry.__new__
_new_tuple = tuple.__new__

# compare_entries result codes
EQUAL = 0
DESCENDS = 1
DOMINATED = 2
CONCURRENT = 3


def compare_entries(a, b):
    """Four-way comparison of two canonical entry sequences.

    Timestamps are ignored: the comparison is over per-actor counts, with an
    absent actor counting as zero.
    """
    na = len(a)
    nb = len(b)
    i = 0
    # phase 1: a and b are equal so far, so they share the index i
    while True:
        if i == na:
            return EQUAL if i == nb else DOMINATED
        if i == nb:
            return DESCENDS
        ea = a[i]
        eb = b[i]
        actor_a = ea[0]
        actor_b = eb[0]
        if actor_a == actor_b:
            ca = ea[1]
            cb = eb[1]
            i += 1
            if ca != cb:
                a_behind = ca < cb
                j = i
                break
        elif actor_a < actor_b:
            # actor present only in a; counts are >= 1 so b misses it
            a_behind = False
            j = i
            i += 1
            break
        else:
            a_behind = True
            j = i + 1
            break
    # phase 2: one side is behind and only the other direction is still
    # open; orient the pair so that a is the side behind
    if not a_behind:
        a, b = b, a
        i, j = j, i
        na, nb = nb, na
    # behind unless a exceeds b somewhere
    while i < na and j < nb:
        ea = a[i]
        eb = b[j]
        actor_a = ea[0]
        actor_b = eb[0]
        if actor_a == actor_b:
            if ea[1] > eb[1]:
                return CONCURRENT
            i += 1
            j += 1
        elif actor_a < actor_b:
            return CONCURRENT
        else:
            j += 1
    if i < na:
        return CONCURRENT
    return DOMINATED if a_behind else DESCENDS


def descends_entries(a, b):
    """True iff every (actor, count) in b is covered by a (pointwise >=)."""
    return compare_entries(a, b) in (EQUAL, DESCENDS)


def equal_entries(a, b):
    """True iff a and b hold identical (actor, count) pairs."""
    return compare_entries(a, b) == EQUAL


def merge_entries(a, b):
    """Per-actor maximum of two canonical entry sequences.

    Counts and timestamps take their maxima independently, in a new
    :class:`ClockEntry`; an entry whose actor is on one side only is kept
    as the same object. Returns a tuple in canonical order.
    """
    out = []
    i = 0
    j = 0
    na = len(a)
    nb = len(b)
    while i < na and j < nb:
        ea = a[i]
        eb = b[j]
        actor_a = ea[0]
        actor_b = eb[0]
        if actor_a == actor_b:
            ca = ea[1]
            cb = eb[1]
            ta = ea[2]
            tb = eb[2]
            count = ca if ca >= cb else cb
            timestamp = ta if ta >= tb else tb
            out.append(_new_tuple(ClockEntry, (actor_a, count, timestamp)))
            i += 1
            j += 1
        elif actor_a < actor_b:
            out.append(ea)
            i += 1
        else:
            out.append(eb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)
