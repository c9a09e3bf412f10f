"""Kernel tests: the pure-Python kernels against a dict-based reference."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import vclock
from vclock import _backend, _kernels_py
from vclock._kernels_py import ClockEntry
from vclock.core import VClock, merge

# --- reference over plain dicts, sharing no code with the kernels ----------


def reference(a: tuple, b: tuple) -> dict:
    """Expected result of every kernel on the canonical entry tuples a and b."""
    da = {actor: (count, timestamp) for actor, count, timestamp in a}
    db = {actor: (count, timestamp) for actor, count, timestamp in b}
    ge = all(da.get(actor, (0, 0))[0] >= count for actor, (count, _) in db.items())
    le = all(db.get(actor, (0, 0))[0] >= count for actor, (count, _) in da.items())
    merged = dict(da)
    for actor, (count, timestamp) in db.items():
        if actor in merged:
            c, t = merged[actor]
            merged[actor] = (max(c, count), max(t, timestamp))
        else:
            merged[actor] = (count, timestamp)
    if ge and le:
        code = _kernels_py.EQUAL
    elif ge:
        code = _kernels_py.DESCENDS
    elif le:
        code = _kernels_py.DOMINATED
    else:
        code = _kernels_py.CONCURRENT
    return {
        "compare_entries": code,
        "descends_entries": ge,
        "equal_entries": ge and le,
        "merge_entries": tuple((x, c, t) for x, (c, t) in sorted(merged.items())),
    }


# a few shared actors, so that both sides often hold the same one, plus any text
_actors = st.sampled_from(["a", "b", "é", "ß", "日本", "\U0001f600"]) | st.text(min_size=1, max_size=3)
# small values tie often; the others straddle and exceed 2**64
_counts = st.integers(1, 4) | st.integers(2**64 - 2, 2**64 + 2) | st.integers(1, 2**100)
_timestamps = st.integers(0, 4) | st.integers(2**64 - 2, 2**64 + 2) | st.integers(0, 2**100)
_entries = st.dictionaries(_actors, st.tuples(_counts, _timestamps), max_size=8).map(
    lambda d: tuple(ClockEntry(x, c, t) for x, (c, t) in sorted(d.items()))
)


@settings(max_examples=300, deadline=None)
@given(_entries, _entries)
def test_kernels_agree_with_the_reference(a, b):
    want = reference(a, b)
    for name, expected in want.items():
        assert getattr(_kernels_py, name)(a, b) == expected, name
    assert all(type(e) is ClockEntry for e in _kernels_py.merge_entries(a, b))


# b derived from a: some counts raised, some entries dropped, some actors
# added, so that Equal, Descends and Dominated are as common as Concurrent
@st.composite
def _related_pairs(draw):
    a = draw(_entries)
    db = {}
    for actor, count, timestamp in a:
        change = draw(st.sampled_from(("keep", "raise", "drop")))
        if change == "raise":
            db[actor] = (count + draw(st.integers(1, 3)), timestamp)
        elif change == "keep":
            db[actor] = (count, timestamp)
    added = draw(st.dictionaries(_actors, st.tuples(_counts, _timestamps), max_size=2))
    for actor, value in added.items():
        db.setdefault(actor, value)
    return a, tuple(ClockEntry(x, c, t) for x, (c, t) in sorted(db.items()))


_MIRROR = {
    _kernels_py.EQUAL: _kernels_py.EQUAL,
    _kernels_py.DESCENDS: _kernels_py.DOMINATED,
    _kernels_py.DOMINATED: _kernels_py.DESCENDS,
    _kernels_py.CONCURRENT: _kernels_py.CONCURRENT,
}


@settings(max_examples=300, deadline=None)
@given(_related_pairs())
def test_kernels_agree_with_the_reference_on_related_pairs(pair):
    a, b = pair
    for x, y in (pair, (b, a)):
        want = reference(x, y)
        for name, expected in want.items():
            assert getattr(_kernels_py, name)(x, y) == expected, name
    assert _kernels_py.compare_entries(b, a) == _MIRROR[_kernels_py.compare_entries(a, b)]


def test_comparison_kernels_agree_with_the_reference_on_every_small_pair():
    # every canonical sequence over actors a-d with each count absent, 1 or 2:
    # 81 sequences, 6,561 ordered pairs, which reach every exit of both of
    # compare_entries' phases
    sequences = [
        tuple(ClockEntry(actor, count, 3 - count) for actor, count in zip("abcd", counts) if count)
        for counts in product((0, 1, 2), repeat=4)
    ]
    assert len(sequences) == 81
    seen = set()
    for a in sequences:
        for b in sequences:
            want = reference(a, b)
            code = _kernels_py.compare_entries(a, b)
            assert code == want["compare_entries"], (a, b)
            assert _kernels_py.descends_entries(a, b) == want["descends_entries"], (a, b)
            assert _kernels_py.equal_entries(a, b) == want["equal_entries"], (a, b)
            seen.add(code)
    assert seen == set(_MIRROR)


def test_edge_cases():
    empty = ()
    single = (("a", 1, 0),)
    assert _kernels_py.compare_entries(empty, empty) == _kernels_py.EQUAL
    assert _kernels_py.compare_entries(single, empty) == _kernels_py.DESCENDS
    assert _kernels_py.compare_entries(empty, single) == _kernels_py.DOMINATED
    assert _kernels_py.merge_entries(empty, single) == single
    assert _kernels_py.descends_entries(single, empty)
    assert not _kernels_py.descends_entries(empty, single)


def test_the_pure_kernels_are_the_only_backend():
    assert vclock.backend_name() == "pure"
    assert _backend.kernels is _kernels_py
    assert ClockEntry is vclock.ClockEntry is vclock.core.ClockEntry


def test_merge_entries_returns_clock_entries():
    a = (ClockEntry("a", 1, 5), ClockEntry("b", 2, 0), ClockEntry("d", 1, 1))
    b = (ClockEntry("b", 1, 9), ClockEntry("c", 3, 3))
    merged = _kernels_py.merge_entries(a, b)
    assert merged == (("a", 1, 5), ("b", 2, 9), ("c", 3, 3), ("d", 1, 1))
    assert all(type(e) is ClockEntry for e in merged)
    # an actor on one side only keeps its entry object
    assert merged[0] is a[0] and merged[2] is b[1] and merged[3] is a[2]


def test_merged_clock_entries_have_named_fields():
    m = merge(VClock([("a", 1, 5), ("b", 2, 0)]), VClock([("b", 1, 9), ("c", 3, 3)]))
    assert [e.actor for e in m.entries] == ["a", "b", "c"]
    assert (m.entries[1].count, m.entries[1].timestamp) == (2, 9)
    assert m.entries[2].actor == "c"
