"""Core clock operation tests: examples, contracts, partial-order laws."""

import copy
import dataclasses
import enum
import os
import pickle
import random
import subprocess
import sys
import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclock import _kernels_py as kernels
from vclock import core
from vclock.core import (
    ClockEntry,
    EncodeError,
    FixedClock,
    InvalidActorError,
    Ordering,
    PruneBounds,
    StepClock,
    SystemClock,
    VClock,
    all_nodes,
    canonical_text,
    compare,
    descends,
    equal,
    fresh,
    get_counter,
    get_timestamp,
    increment,
    is_valid_actor,
    merge,
    prune,
)
from vclock.oracle import EventRecord, History
from vclock.simulator import Command, RunReport, Scenario

import reference
from references import SCENARIOS, outcome, random_clock, spy, vc, vclock_entries_reference


def counts(v: VClock) -> dict[str, int]:
    return {e.actor: e.count for e in v.entries}


# --- fresh ------------------------------------------------------------------


def test_fresh_is_empty():
    assert len(fresh()) == 0
    assert all_nodes(fresh()) == []
    assert equal(fresh(), fresh())


# --- increment ---------------------------------------------------------------


def test_increment_new_actor():
    v = increment("a", fresh(), FixedClock(100))
    assert v.entries == (ClockEntry("a", 1, 100),)


def test_increment_existing_actor():
    v = increment("a", vc(("a", 1, 100)), FixedClock(105))
    assert v.entries == (ClockEntry("a", 2, 105),)


def test_increment_second_actor():
    v = increment("b", vc(("a", 2, 105)), FixedClock(106))
    assert v.entries == (ClockEntry("a", 2, 105), ClockEntry("b", 1, 106))


def test_increment_counts_events_per_actor():
    # count per actor must equal the number of increments that actor made
    rng = random.Random(7)
    expected: dict[str, int] = {}
    v = fresh()
    source = StepClock()
    for _ in range(200):
        actor = rng.choice("abcd")
        v = increment(actor, v, source)
        expected[actor] = expected.get(actor, 0) + 1
    assert counts(v) == expected


def test_increment_rejects_bad_actor():
    for bad in ("", "a b", "a:b", "a;b", "\t", "x\n"):
        with pytest.raises(InvalidActorError) as raised:
            increment(bad, fresh(), FixedClock(0))
        assert str(raised.value) == f"invalid actor token: {bad!r}"


class _Tick(enum.IntEnum):
    BEHIND = -1
    SEVEN = 7


class _Returns:
    """A clock source whose now() returns one value as it is, unchecked."""

    def __init__(self, value):
        self.value = value

    def now(self):
        return self.value


@pytest.mark.parametrize("now", [-1, 1.5, "x", pytest.param(_Tick.BEHIND, id="int-enum")])
def test_increment_rejects_a_bad_clock_source_timestamp(now):
    with pytest.raises(ValueError) as info:
        increment("a", fresh(), _Returns(now))
    assert str(info.value) == f"clock source produced a bad timestamp: {now!r}"


@pytest.mark.parametrize(
    "now, stored", [(5, 5), (True, 1), (_Tick.SEVEN, 7)], ids=["int", "bool", "int-enum"]
)
def test_increment_stores_a_timestamp_as_an_exact_int(now, stored):
    (entry,) = increment("a", fresh(), _Returns(now)).entries
    assert type(entry.timestamp) is int and entry.timestamp == stored


def actor_rule(token) -> bool:
    """The actor rule as written, one character at a time."""
    if not isinstance(token, str) or not token:
        return False
    return all(ch not in ":;" and not ch.isspace() and ch.isprintable() for ch in token)


_WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.text() | st.sampled_from(_WHITESPACE + [":", ";"])).map("".join)
    | st.sampled_from([None, b"a", 1, 1.5, ("a",)])
)
def test_is_valid_actor_follows_the_rule(token):
    assert is_valid_actor(token) is actor_rule(token)


def test_is_valid_actor_rejects_every_whitespace_character():
    for ch in _WHITESPACE:
        for token in (ch, "a" + ch, ch + "a", "a" + ch + "b"):
            assert is_valid_actor(token) is actor_rule(token) is False


class _Impostor(str):
    """A str subclass that equals, and hashes as, the valid token "a"."""

    def __eq__(self, other):
        return other == "a"

    def __hash__(self):
        return hash("a")


def _fresh(token):
    """An equal str in a new object, as split() makes one; any other token as it is."""
    return (token + ".")[:-1] if type(token) is str else token


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(["a", "b", "node-1", " a", "a:b", "b;", "", "\t", "é"])
        | st.text(max_size=4)
        | st.text("xy", min_size=62, max_size=66)  # around the memo's length bound
        | st.builds(_Impostor, st.sampled_from(["a", " a", "b;"]))
        | st.sampled_from([None, b"a", 1, ("a",), ["a"]]),
        max_size=20,
    )
)
def test_is_valid_actor_answers_alike_when_a_token_is_checked_again(tokens):
    # each token is checked twice, the second time in a fresh object, with
    # the other tokens checked in between
    for token in [*tokens, *map(_fresh, tokens)]:
        assert is_valid_actor(token) is actor_rule(token)


def test_is_valid_actor_refuses_a_str_subclass_that_matches_a_remembered_token():
    assert is_valid_actor("a") is True
    assert "a" in core._accepted
    impostor = _Impostor(" a")
    assert impostor == "a" and hash(impostor) == hash("a")
    assert is_valid_actor(impostor) is actor_rule(impostor) is False
    # a valid subclass is accepted by the full rule, and never remembered
    assert is_valid_actor(_Impostor("b")) is True
    assert all(type(token) is str for token in core._accepted)


def test_is_valid_actor_memo_stays_within_its_bounds():
    tokens = [f"t{i}" for i in range(core._ACCEPTED_MAX + 100)]
    for _ in range(2):
        for token in tokens:
            assert is_valid_actor(_fresh(token)) is True
            assert is_valid_actor(token + " ") is False
            assert len(core._accepted) <= core._ACCEPTED_MAX
    assert " " not in "".join(core._accepted)
    longest = "y" * core._ACCEPTED_MAX_LEN
    too_long = "x" * (core._ACCEPTED_MAX_LEN + 1)
    assert is_valid_actor(longest) is is_valid_actor(too_long) is True
    assert longest in core._accepted and too_long not in core._accepted
    assert is_valid_actor(too_long) is True


def test_is_valid_actor_memo_shared_by_threads():
    # more threads than cores check distinct valid, invalid and impostor
    # tokens at once; every answer stays right and the memo within its bound
    def check(n, wrong):
        for i in range(core._ACCEPTED_MAX):
            for token in (f"u{n}.{i}", f"u{n} {i}", _Impostor(f" {i}"), "a"):
                if is_valid_actor(token) is not actor_rule(token):
                    wrong.append(token)

    wrong = []
    threads = [threading.Thread(target=check, args=(n, wrong)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(core._accepted) <= core._ACCEPTED_MAX
    assert all(type(token) is str and actor_rule(token) for token in core._accepted)


# --- equal -------------------------------------------------------------------


def test_equal_ignores_timestamps():
    assert equal(vc(("a", 1, 100)), vc(("a", 1, 999)))


def test_equal_differs_on_counts():
    assert not equal(vc(("a", 1, 100)), vc(("a", 2, 100)))


def test_equal_differs_on_actors():
    assert not equal(vc(("a", 1, 1)), vc(("b", 1, 1)))


# --- descends ----------------------------------------------------------------


def test_descends_empty_is_bottom():
    for v in (fresh(), vc(("a", 1, 1)), vc(("a", 2, 1), ("b", 1, 2))):
        assert descends(v, fresh())
    assert not descends(fresh(), vc(("a", 1, 1)))


def test_descends_pointwise():
    assert descends(vc(("a", 2, 0), ("b", 1, 0)), vc(("a", 1, 0)))
    assert not descends(vc(("a", 1, 0)), vc(("b", 1, 0)))
    assert not descends(vc(("b", 1, 0)), vc(("a", 1, 0)))


def test_descends_is_reflexive():
    v = vc(("a", 2, 3), ("c", 4, 9))
    assert descends(v, v)


# --- compare -----------------------------------------------------------------


def test_compare_descends_and_equal_make_one_kernel_comparison(monkeypatch):
    # descends and equal read compare_entries' code, through the module global
    calls = spy(monkeypatch, [kernels], "compare_entries")
    v1, v2 = vc(("a", 2, 0), ("b", 1, 0)), vc(("a", 1, 0))
    for op, expected in ((compare, Ordering.DESCENDS), (descends, True), (equal, False)):
        calls.clear()
        assert op(v1, v2) == expected
        assert calls == [(v1.entries, v2.entries)], op.__name__


def test_compare_reflexive_equal():
    v = vc(("a", 1, 1), ("b", 2, 2))
    assert compare(v, v) is Ordering.EQUAL


def test_compare_strict_domination():
    assert compare(vc(("a", 2, 0)), vc(("a", 1, 0))) is Ordering.DESCENDS
    assert compare(vc(("a", 1, 0)), vc(("a", 2, 0))) is Ordering.DOMINATED


def test_compare_concurrent():
    assert compare(vc(("a", 1, 0)), vc(("b", 1, 0))) is Ordering.CONCURRENT


def test_exactly_one_ordering_on_small_clocks():
    # every clock over two actors with counts 0..2; 0 means absent
    clocks = []
    for ca in range(3):
        for cb in range(3):
            entries = []
            if ca:
                entries.append(("a", ca, 0))
            if cb:
                entries.append(("b", cb, 0))
            clocks.append(VClock(entries))
    for v1 in clocks:
        for v2 in clocks:
            result = compare(v1, v2)
            is_eq = equal(v1, v2)
            down = descends(v1, v2)
            up = descends(v2, v1)
            if result is Ordering.EQUAL:
                assert is_eq
            elif result is Ordering.DESCENDS:
                assert down and not is_eq
            elif result is Ordering.DOMINATED:
                assert up and not is_eq
            else:
                assert not down and not up


# --- merge -------------------------------------------------------------------


def test_merge_empty_is_identity():
    v = vc(("a", 2, 10), ("b", 1, 5))
    assert merge(v, fresh()) == v
    assert merge(fresh(), v) == v


def test_merge_per_actor_maxima():
    merged = merge(vc(("a", 2, 10), ("b", 1, 5)), vc(("a", 1, 12), ("c", 3, 7)))
    assert merged.entries == (
        ClockEntry("a", 2, 12),
        ClockEntry("b", 1, 5),
        ClockEntry("c", 3, 7),
    )


def test_merge_idempotent():
    v = vc(("a", 2, 10), ("b", 1, 5))
    assert merge(v, v) == v


def test_merge_union_of_actors():
    rng = random.Random(3)
    for _ in range(50):
        v1 = random_clock(rng, 5, 50)
        v2 = random_clock(rng, 5, 50)
        merged = merge(v1, v2)
        assert all_nodes(merged) == sorted(set(all_nodes(v1)) | set(all_nodes(v2)))


# --- get_counter / get_timestamp / all_nodes ----------------------------------


def test_get_counter():
    assert get_counter("a", fresh()) == 0
    assert get_counter("a", vc(("a", 3, 10))) == 3
    assert get_counter("b", vc(("a", 3, 10))) == 0


def test_get_timestamp():
    assert get_timestamp("a", vc(("a", 3, 10))) == 10
    assert get_timestamp("b", vc(("a", 3, 10))) is None
    assert get_timestamp("a", increment("a", fresh(), FixedClock(77))) == 77


def test_all_nodes_sorted():
    assert all_nodes(vc(("b", 1, 1), ("a", 2, 2))) == ["a", "b"]


# --- prune -------------------------------------------------------------------


def aged_clock(timestamps: list[int]) -> VClock:
    return VClock((f"n{i:02d}", 1, ts) for i, ts in enumerate(timestamps))


def test_prune_small_floor_leaves_clock_alone():
    v = vc(("a", 1, 10), ("b", 1, 20))
    bounds = PruneBounds(small=5, large=10, young=100, old=500)
    assert prune(v, 1000, bounds) is v


def test_prune_that_removes_nothing_above_the_small_floor_returns_the_clock():
    # above the floor, but every entry is younger than now - young
    v = vc(("a", 1, 950), ("b", 1, 960), ("c", 1, 970))
    bounds = PruneBounds(small=1, large=10, young=100, old=500)
    assert prune(v, 1000, bounds) is v


def test_prune_all_older_than_old_shrinks_to_small():
    v = aged_clock(list(range(1, 13)))  # 12 entries, all far older than now - old
    bounds = PruneBounds(small=2, large=10, young=0, old=500)
    result = prune(v, 1000, bounds)
    assert len(result) == 2
    assert {e.timestamp for e in result.entries} == {11, 12}


def test_prune_none_older_than_old_shrinks_to_large():
    v = aged_clock(list(range(600, 612)))  # 12 entries, all younger than now - old
    bounds = PruneBounds(small=2, large=10, young=0, old=500)
    result = prune(v, 1000, bounds)
    assert len(result) == 10
    assert {e.timestamp for e in result.entries} == set(range(602, 612))


def test_prune_everything_with_zero_bounds():
    v = aged_clock([5, 9, 40])
    bounds = PruneBounds(small=0, large=0, young=0, old=0)
    assert prune(v, 1000, bounds) == fresh()


def test_prune_protects_young_entries():
    v = aged_clock([1, 2, 990])
    bounds = PruneBounds(small=0, large=0, young=20, old=20)
    result = prune(v, 1000, bounds)
    assert [e.timestamp for e in result.entries] == [990]


def test_prune_survivors_bit_identical():
    v = aged_clock([3, 7, 800, 900])
    bounds = PruneBounds(small=1, large=2, young=50, old=300)
    result = prune(v, 1000, bounds)
    original = set(v.entries)
    assert all(e in original for e in result.entries)


def test_prune_tie_break_by_actor():
    v = VClock([("b", 1, 5), ("a", 1, 5), ("c", 1, 5)])
    bounds = PruneBounds(small=2, large=2, young=0, old=0)
    result = prune(v, 100, bounds)
    # same age: the lexically smallest actor goes first
    assert all_nodes(result) == ["b", "c"]


def test_prune_rejects_bad_bounds():
    with pytest.raises(ValueError):
        PruneBounds(small=3, large=2, young=0, old=0)
    with pytest.raises(ValueError):
        PruneBounds(small=0, large=0, young=5, old=4)
    with pytest.raises(ValueError):
        PruneBounds(small=-1, large=2, young=0, old=0)


def test_prune_bounds_is_an_immutable_value():
    bounds = PruneBounds(small=1, large=2, young=3, old=4)
    assert repr(bounds) == "PruneBounds(small=1, large=2, young=3, old=4)"
    assert PruneBounds(1, 2, 3, 4) == bounds
    assert hash(PruneBounds(1, 2, 3, 4)) == hash(bounds)
    assert bounds != (1, 2, 3, 4)
    assert (bounds.small, bounds.large, bounds.young, bounds.old) == (1, 2, 3, 4)
    with pytest.raises(AttributeError):
        bounds.small = 0
    with pytest.raises(AttributeError):
        del bounds.old
    match bounds:
        case PruneBounds(s, l, y, o):
            assert (s, l, y, o) == (1, 2, 3, 4)
        case _:
            pytest.fail("PruneBounds did not match its class pattern")
    for twin in (pickle.loads(pickle.dumps(bounds)), copy.deepcopy(bounds), copy.copy(bounds)):
        assert type(twin) is PruneBounds
        assert twin == bounds and repr(twin) == repr(bounds)
    # a bool or an IntEnum bound is stored as its int, as in a VClock
    bounds = PruneBounds(True, _Level.FIVE, False, _Level.ONE)
    assert repr(bounds) == "PruneBounds(small=1, large=5, young=0, old=1)"
    assert {type(x) for x in (bounds.small, bounds.large, bounds.young, bounds.old)} == {int}
    assert bounds == PruneBounds(1, 5, 0, 1) and hash(bounds) == hash(PruneBounds(1, 5, 0, 1))


_CLOCK = VClock([("a", 1, 0)])
_EVENT = EventRecord(0, "a", None, frozenset(), _CLOCK)
_RECORDS = [
    (
        EventRecord,
        {"id": 0, "actor": "a", "received_from": None, "predecessors": frozenset(), "clock": _CLOCK},
        "EventRecord(id=0, actor='a', received_from=None, predecessors=frozenset(), "
        "clock=VClock('a:1:0'))",
    ),
    (
        History,
        {"events": (_EVENT,), "actors": ("a",)},
        f"History(events=({_EVENT!r},), actors=('a',))",
    ),
    (
        Scenario,
        {
            "replicas": ("r1",),
            "bounds": PruneBounds(0, 1, 2, 3),
            "commands": (Command(2, "read", ("r1", "k")),),
        },
        "Scenario(replicas=('r1',), bounds=PruneBounds(small=0, large=1, young=2, old=3), "
        "commands=(Command(line_no=2, op='read', args=('r1', 'k')),))",
    ),
    (
        RunReport,
        {"lines": ("x",), "passes": 1, "fails": 0, "stores": {"r1": {"k": ("v@r1:1:1",)}}},
        "RunReport(lines=('x',), passes=1, fails=0, stores={'r1': {'k': ('v@r1:1:1',)}})",
    ),
]


@pytest.mark.parametrize(
    ("cls", "fields", "text"), _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS]
)
def test_records_keep_their_value_contract(cls, fields, text):
    # dataclass-style value behaviour, without the dataclasses module
    values = tuple(fields.values())
    record = cls(**fields)
    assert cls(*values) == record and not cls(*values) != record
    assert vars(record) == fields and list(vars(record)) == list(fields)
    assert cls.__match_args__ == tuple(fields) and "__slots__" not in vars(cls)
    assert repr(record) == text
    for other in (values, types.SimpleNamespace(**fields)):
        assert record != other and other != record
        assert record.__eq__(other) is NotImplemented
    match record:
        case EventRecord(i, a, r, p, c):
            matched = (i, a, r, p, c)
        case History(events, actors):
            matched = (events, actors)
        case Scenario(replicas, bounds, commands):
            matched = (replicas, bounds, commands)
        case RunReport(lines, passes, fails, stores):
            matched = (lines, passes, fails, stores)
        case _:
            pytest.fail(f"{cls.__name__} did not match its class pattern")
    assert matched == values
    if cls is RunReport:
        with pytest.raises(TypeError):
            hash(record)
        record.passes = 2
        assert record.passes == 2
        first, second = RunReport((), 0, 0), RunReport(lines=(), passes=0, fails=0)
        assert first.stores == {} and first.stores is not second.stores
    else:
        assert hash(record) == hash(values)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError) as info:
                setattr(record, name, None)
            assert str(info.value) == f"cannot assign to field {name!r}"
            with pytest.raises(dataclasses.FrozenInstanceError) as info:
                delattr(record, name)
            assert str(info.value) == f"cannot delete field {name!r}"
        assert vars(record) == fields
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls
        assert twin == record and repr(twin) == repr(record)


def test_prune_requires_prune_bounds():
    v = vc(("a", 1, 10), ("b", 1, 20))
    for bounds in ((0, 0, 0, 0), [0, 0, 0, 0], None):
        with pytest.raises(TypeError, match="PruneBounds"):
            prune(v, 1000, bounds)


def test_prune_rejects_a_negative_now():
    bounds = PruneBounds(small=0, large=0, young=0, old=0)
    with pytest.raises(ValueError) as info:
        prune(vc(("a", 1, 10)), -1, bounds)
    assert str(info.value) == "prune now must be an integer >= 0, got -1"


def test_prune_empty_clock_is_noop():
    bounds = PruneBounds(small=0, large=0, young=0, old=0)
    assert prune(fresh(), 10, bounds) == fresh()


# --- value semantics and canonical form ---------------------------------------


def test_construction_order_does_not_matter():
    a = VClock([("b", 1, 2), ("a", 2, 1)])
    b = VClock([("a", 2, 1), ("b", 1, 2)])
    assert a == b
    assert canonical_text(a) == canonical_text(b) == "a:2:1;b:1:2"


def test_canonical_text_stable_across_operations():
    rng = random.Random(11)
    for _ in range(50):
        v1 = random_clock(rng, 5, 50)
        v2 = random_clock(rng, 5, 50)
        assert canonical_text(merge(v1, v2)) == canonical_text(merge(v2, v1))


@pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "lowered-limit"])
def test_a_number_too_long_to_print_is_named(int_digit_limit, limit):
    # VClock takes ints of any size: str and canonical_text raise the
    # EncodeError that encode raises for one they cannot print, and repr
    # names it instead
    if limit is not None:
        int_digit_limit(limit)
    cases = [(VClock([("a", 10**5000, 0)]), "count of actor 'a': it has more than 4300 digits")]
    printable = VClock([("a", 1, 1), ("b", 2, 10**700)])
    if limit is None:
        assert repr(printable) == f"VClock('a:1:1;b:2:{10**700}')"
    else:
        named = "timestamp of actor 'b': it has more digits than this interpreter converts to text"
        cases.append((printable, named))
    for v, named in cases:
        message = f"cannot encode {named}"
        for render in (str, canonical_text, str):  # nothing is stored by a failed render
            with pytest.raises(EncodeError) as info:
                render(v)
            assert str(info.value) == message
            assert info.value.__suppress_context__
        assert repr(v) == f"VClock(<{message}>)"


def test_vclock_rejects_duplicates_and_bad_fields():
    with pytest.raises(ValueError):
        VClock([("a", 1, 1), ("a", 2, 2)])
    with pytest.raises(ValueError):
        VClock([("a", 0, 1)])
    with pytest.raises(ValueError):
        VClock([("a", 1, -1)])
    with pytest.raises(InvalidActorError):
        VClock([("a;b", 1, 1)])


# entries that unpack into the valid triple ("a", 1, 2), in some order
_A12 = {"a", 1, 2}
_TRIPLE_ITERATOR = iter(("a", 1, 2))

# (entries, exception class, exact message), every message pinned from the
# construction loop that validated entries through ClockEntry(...), except that
# an entry that is not a triple is now named in its message
_CONSTRUCTOR_ERRORS = [
    # arity
    ([("a", 1)], ValueError, "not enough values to unpack (expected 3, got 2): entry ('a', 1)"),
    ([("a", 1, 2, 3)], ValueError,
     "too many values to unpack (expected 3): entry ('a', 1, 2, 3)"),
    ([5], TypeError, "cannot unpack non-iterable int object: entry 5"),
    ([None], TypeError, "cannot unpack non-iterable NoneType object: entry None"),
    # actors: not a str, then each way a str breaks the token rule
    ([(5, 1, 1)], InvalidActorError, "invalid actor token: 5"),
    ([(None, 1, 1)], InvalidActorError, "invalid actor token: None"),
    ([(b"a", 1, 1)], InvalidActorError, "invalid actor token: b'a'"),
    ([("", 1, 1)], InvalidActorError, "invalid actor token: ''"),
    ([("a b", 1, 1)], InvalidActorError, "invalid actor token: 'a b'"),
    ([("a:b", 1, 1)], InvalidActorError, "invalid actor token: 'a:b'"),
    ([("a;b", 1, 1)], InvalidActorError, "invalid actor token: 'a;b'"),
    ([("a\tb", 1, 1)], InvalidActorError, "invalid actor token: 'a\\tb'"),
    ([("a\x00", 1, 1)], InvalidActorError, "invalid actor token: 'a\\x00'"),
    # counts
    ([("a", 0, 1)], ValueError, "entry count must be an integer >= 1, got 0"),
    ([("a", -1, 1)], ValueError, "entry count must be an integer >= 1, got -1"),
    ([("a", 1.5, 1)], ValueError, "entry count must be an integer >= 1, got 1.5"),
    ([("a", "1", 1)], ValueError, "entry count must be an integer >= 1, got '1'"),
    ([("a", None, 1)], ValueError, "entry count must be an integer >= 1, got None"),
    ([("a", False, 1)], ValueError, "entry count must be an integer >= 1, got False"),
    # timestamps
    ([("a", 1, -1)], ValueError, "entry timestamp must be an integer >= 0, got -1"),
    ([("a", 1, 1.0)], ValueError, "entry timestamp must be an integer >= 0, got 1.0"),
    # duplicates: adjacent only after sorting; the first one in actor order wins
    ([("b", 1, 1), ("c", 1, 1), ("b", 2, 2)], ValueError, "duplicate actor in clock: 'b'"),
    ([("c", 1, 1), ("a", 1, 1), ("c", 2, 2), ("a", 2, 2)], ValueError,
     "duplicate actor in clock: 'a'"),
    # precedence: within an entry actor, count, timestamp; entries in input order;
    # duplicates only after every entry passed
    ([("a b", 0, -1)], InvalidActorError, "invalid actor token: 'a b'"),
    ([("a", 0, -1)], ValueError, "entry count must be an integer >= 1, got 0"),
    ([("a", 1, -1), ("a b", 1, 1)], ValueError, "entry timestamp must be an integer >= 0, got -1"),
    ([("a", 0, 1), ("b", 1, -1)], ValueError, "entry count must be an integer >= 1, got 0"),
    ([("a", 1, 1), ("a", 1, 1), ("", 1, 1)], InvalidActorError, "invalid actor token: ''"),
    ([("a", 1, 1), ("a", 1, 1), ("b", 1)], ValueError,
     "not enough values to unpack (expected 3, got 2): entry ('b', 1)"),
    # a str entry is named as one, whichever check it fails first
    (["abc"], ValueError, "a str is not an (actor, count, timestamp) triple: entry 'abc'"),
    ([" bc"], ValueError, "a str is not an (actor, count, timestamp) triple: entry ' bc'"),
    (["ab"], ValueError, "a str is not an (actor, count, timestamp) triple: entry 'ab'"),
    ([""], ValueError, "a str is not an (actor, count, timestamp) triple: entry ''"),
    ([("a", 1, 1), "a11"], ValueError,
     "a str is not an (actor, count, timestamp) triple: entry 'a11'"),
    ([("a", 0, 1), "abc"], ValueError, "entry count must be an integer >= 1, got 0"),
    # so is any other entry that is not a sequence of three, and not by the
    # element that would have unpacked into a failing field
    ([b"abc"], ValueError, "a bytes is not an (actor, count, timestamp) triple: entry b'abc'"),
    ([b"ab"], ValueError, "a bytes is not an (actor, count, timestamp) triple: entry b'ab'"),
    ([{"a": 1, "b": 2, "c": 3}], ValueError,
     "a dict is not an (actor, count, timestamp) triple: entry {'a': 1, 'b': 2, 'c': 3}"),
    ([{"a": 1, 1: 2, -1: 3}], ValueError,
     "a dict is not an (actor, count, timestamp) triple: entry {'a': 1, 1: 2, -1: 3}"),
    ([{1, 2, 3}], ValueError, "a set is not an (actor, count, timestamp) triple: entry {1, 2, 3}"),
    ([frozenset([1, 2])], ValueError,
     "a frozenset is not an (actor, count, timestamp) triple: entry frozenset({1, 2})"),
    # a range is a sequence, so one of three is read as a triple
    ([range(1, 4)], InvalidActorError, "invalid actor token: 1"),
    ([("a", 1, 1), range(2)], ValueError,
     "a range is not an (actor, count, timestamp) triple: entry range(0, 2)"),
    # a tuple subclass and a list are triples
    ([ClockEntry("a", 0, 1)], ValueError, "entry count must be an integer >= 1, got 0"),
    ([["a", 1, -1]], ValueError, "entry timestamp must be an integer >= 0, got -1"),
    # an entry that is not a sequence is refused even when it would unpack
    # into a valid triple; a set's order, and so what it would unpack into,
    # follows the per-process str hash
    pytest.param([{"a": 1, 1: 0, 2: 0}], ValueError,
                 "a dict is not an (actor, count, timestamp) triple: entry {'a': 1, 1: 0, 2: 0}",
                 id="dict-of-a-valid-triple"),
    pytest.param([_A12], ValueError,
                 f"a set is not an (actor, count, timestamp) triple: entry {_A12!r}",
                 id="set-of-a-valid-triple"),
    pytest.param([frozenset(_A12)], ValueError,
                 f"a frozenset is not an (actor, count, timestamp) triple: "
                 f"entry {frozenset(_A12)!r}",
                 id="frozenset-of-a-valid-triple"),
    pytest.param([_TRIPLE_ITERATOR], ValueError,
                 f"a tuple_iterator is not an (actor, count, timestamp) triple: "
                 f"entry {_TRIPLE_ITERATOR!r}",
                 id="iterator-of-a-valid-triple"),
]


@pytest.mark.parametrize(("entries", "error", "message"), _CONSTRUCTOR_ERRORS)
def test_vclock_constructor_errors_are_pinned(entries, error, message):
    with pytest.raises(error) as info:
        VClock(entries)
    assert type(info.value) is error
    assert str(info.value) == message


def test_vclock_names_a_set_of_strs_the_same_way_each_run():
    # its iteration order follows the per-process str hash, so the element
    # that reaches the failing field varies from run to run; the message
    # names the set, whatever that order is
    entry = {"a", "b", "c"}
    with pytest.raises(ValueError) as info:
        VClock([entry])
    assert type(info.value) is ValueError
    assert str(info.value) == f"a set is not an (actor, count, timestamp) triple: entry {entry!r}"


def test_vclock_refuses_a_set_the_same_way_under_every_hash_seed():
    # {"a", 1, 2} unpacks into a valid triple under some str hash seeds and
    # a bad one under others; each run must refuse it with the same message
    script = (
        "from vclock import VClock\n"
        "entry = {'a', 1, 2}\n"
        "try:\n"
        "    print(VClock([entry]))\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__, str(exc).replace(repr(entry), '<entry>'))\n"
    )
    lines = set()
    for seed in range(11):
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        lines.add(done.stdout)
    assert lines == {
        "ValueError a set is not an (actor, count, timestamp) triple: entry <entry>\n"
    }


def test_importing_the_library_loads_no_dataclasses():
    # the set taken before the import, because site may preload modules
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vclock, vclock.codec, vclock.oracle, vclock.simulator, vclock.cli\n"
        "unwanted = {'dataclasses', 'inspect', 'string', 'vclock._backend'}\n"
        "print(sorted(unwanted & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_the_cli_loads_the_oracle_only_to_check():
    # each subcommand loads the modules it runs, and no others, when it runs
    scenario = str(SCENARIOS / "causal_overwrite.txt")
    script = (
        "import contextlib, io, sys\n"
        "import vclock.cli\n"
        "lazy = ('vclock.oracle', 'vclock.simulator', 'vclock.codec')\n"
        "print(*[m for m in lazy if m in sys.modules])\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = vclock.cli.main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in set(sys.modules) - before if m.startswith('vclock')))\n"
    )
    for argv, added in [
        (["check", "--exhaustive", "3", "2"], "vclock.oracle"),
        (["run", scenario], "vclock.codec vclock.simulator"),
        (["clock", "merge", "a:2:10", "b:1:5"], "vclock.codec"),
    ]:
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True
        )
        assert done.stdout == f"\n0 {added}\n", argv


class _Level(enum.IntEnum):
    ZERO = 0
    ONE = 1
    FIVE = 5


def test_vclock_constructor_normalizes_entries():
    v = VClock([("b", True, False), ("a", 2, True), ("c", _Level.FIVE, _Level.ONE)])
    assert v.entries == (("a", 2, 1), ("b", 1, 0), ("c", 5, 1))
    for entry in v.entries:
        assert type(entry) is ClockEntry
        assert type(entry.count) is int and type(entry.timestamp) is int
    assert VClock(iter([("a", 1, 1)])).entries == (ClockEntry("a", 1, 1),)
    assert VClock().entries == ()


# actors, counts and timestamps that mix valid values with each kind of bad one
_any_actor = st.sampled_from(["a", "b", "c", "", "a b", "a:b", "a;b", "\t", 5, None, b"a"])
_any_number = (
    st.integers(-2, 3)
    | st.booleans()
    | st.sampled_from([1.0, 1.5, "1", None, 2**70, *_Level])
)
_any_entry = st.tuples(_any_actor, _any_number, _any_number) | st.sampled_from(
    [("a", 1), ("a", 1, 1, 1), (), 7, "abc", " bc", "ab", ""]
    + [b"abc", b"a", {"a": 1, 1: 0, 2: 0}, {"a": 0, "b": 0}, {1, 2, 3}, range(3), ["a", 1, 1]]
    + [{"a", 1, 2}, frozenset({"a", 1, 2}), bytearray(b"abc"), range(1, 4), ["a", 1]]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_any_entry, max_size=6))
def test_vclock_constructor_equals_the_reference_loop(entries):
    kind, got = outcome(lambda e: VClock(e).entries, entries)
    expected = outcome(vclock_entries_reference, entries)
    assert (kind, got) == expected
    if kind == "value":
        assert all(type(e) is ClockEntry for e in got)


def test_vclock_is_immutable_and_hashable():
    v = vc(("a", 1, 1))
    with pytest.raises(AttributeError):
        v.entries = ()
    assert hash(v) == hash(vc(("a", 1, 1)))
    assert str(v) == "a:1:1"
    assert "a:1:1" in repr(v)
    assert list(v) == list(v.entries)
    assert v.__eq__(v.entries) is NotImplemented and v != v.entries
    match v:
        case VClock(entries):
            assert entries is v.entries
        case _:
            pytest.fail("VClock did not match its class pattern")


def test_vclock_refuses_attribute_deletion():
    v = vc(("a", 2, 7), ("b", 1, 3))
    assert str(v) == "a:2:7;b:1:3"  # stores the rendered text on the clock
    for name in ("entries", "_text"):
        with pytest.raises(AttributeError, match="VClock is immutable"):
            delattr(v, name)
    assert v == vc(("b", 1, 3), ("a", 2, 7))
    assert str(v) == "a:2:7;b:1:3"
    assert repr(v) == "VClock('a:2:7;b:1:3')"


def test_empty_clock_renders_as_dash():
    assert canonical_text(fresh()) == "-"


def rendered(v: VClock) -> str:
    """The canonical text, rendered afresh from the entries every time."""
    return ";".join(f"{e.actor}:{e.count}:{e.timestamp}" for e in v.entries) or "-"


_actor = st.sampled_from("abcdef") | st.text(min_size=1, max_size=3).filter(is_valid_actor)
_clocks = st.dictionaries(
    _actor, st.tuples(st.integers(1, 2**70), st.integers(0, 2**70)), max_size=6
).map(lambda d: VClock((actor, c, t) for actor, (c, t) in d.items()))
_sizes = st.lists(st.integers(0, 6), min_size=2, max_size=2).map(sorted)
_ages = st.lists(st.integers(0, 2**70), min_size=2, max_size=2).map(sorted)
_bounds = st.builds(lambda s, a: PruneBounds(*s, *a), _sizes, _ages)


@settings(max_examples=300, deadline=None)
@given(_clocks, _clocks, _actor, st.integers(0, 2**71), _bounds)
def test_canonical_text_is_never_stale(v1, v2, actor, now, bounds):
    # render the inputs first, so the results below are built from cached clocks
    for v in (v1, v2):
        assert canonical_text(v) == rendered(v)
        assert canonical_text(v) is canonical_text(v)
    derived = [
        increment(actor, v1, FixedClock(now)),
        merge(v1, v2),
        merge(v2, v1),
        prune(v1, now, bounds),
    ]
    for v in derived:
        assert canonical_text(v) == rendered(v) == str(v)
        assert canonical_text(v) is canonical_text(v)
        # the stored text takes no part in equality or hashing
        twin = VClock(v.entries)
        assert twin == v and hash(twin) == hash(v)


def increment_reference(actor: str, v: VClock, now: int) -> VClock:
    table = {e.actor: (e.count, e.timestamp) for e in v.entries}
    table[actor] = (table.get(actor, (0, 0))[0] + 1, now)
    return VClock((a, count, timestamp) for a, (count, timestamp) in table.items())


def check_increment(actor: str, v: VClock, now: int) -> None:
    result = increment(actor, v, FixedClock(now))
    assert result == increment_reference(actor, v, now)
    assert all(type(e) is ClockEntry for e in result.entries)


# "a" enters first, "c" and "e" in the middle, "g" last; "b", "d", "f" exist
@pytest.mark.parametrize("actor", "abcdefg")
def test_increment_equals_a_dict_reference_at_every_position(actor):
    check_increment(actor, vc(("b", 1, 3), ("d", 2, 4), ("f", 3, 5)), 9)


@settings(max_examples=200, deadline=None)
@given(_clocks, _actor, st.integers(0, 2**71))
def test_increment_equals_a_dict_reference(v, actor, now):
    check_increment(actor, v, now)


def _pickled(v: VClock) -> VClock:
    return pickle.loads(pickle.dumps(v))


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, _pickled])
def test_clocks_copy_and_pickle_by_value(round_trip):
    text_stored = vc(("b", 2, 7), ("a", 1, 3))
    assert canonical_text(text_stored) == "a:1:3;b:2:7"
    for v in (fresh(), vc(("a", 1, 1)), text_stored):
        twin = round_trip(v)
        assert type(twin) is VClock and twin == v and twin.entries == v.entries
        assert canonical_text(twin) == canonical_text(v)
        with pytest.raises(AttributeError):
            twin.entries = ()


def test_pickles_hold_entries_only():
    v = vc(("b", 2, 7), ("a", 1, 3))
    canonical_text(v)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(v, protocol)
        assert b"a:1:3" not in data
        assert pickle.loads(data) == v


# --- clock sources -------------------------------------------------------------


def test_system_clock_never_decreases():
    clock = SystemClock()
    values = [clock.now() for _ in range(5)]
    assert values == sorted(values)
    assert all(v >= 0 for v in values)


def test_step_clock_advances():
    clock = StepClock(start=3, step=2)
    assert [clock.now() for _ in range(3)] == [3, 5, 7]


def test_step_clock_validation():
    for start, step in ((-1, 1), (0, -1)):
        with pytest.raises(ValueError, match="start and step must be >= 0"):
            StepClock(start, step)


def test_fixed_clock_validation():
    assert FixedClock(9).now() == 9
    with pytest.raises(ValueError):
        FixedClock(-1)


def test_clock_sources_return_exact_ints_for_bool_arguments():
    fixed = FixedClock(True).now()
    assert type(fixed) is int and fixed == 1
    clock = StepClock(True, True)
    values = [clock.now() for _ in range(2)]
    assert values == [1, 2] and [type(v) for v in values] == [int, int]


@pytest.mark.parametrize("value", ["3", 1.5, None, -1])
def test_clock_sources_refuse_a_non_int_or_negative_value_by_name(value):
    # not later, in increment, and not with a bare TypeError from `<`
    with pytest.raises(ValueError) as raised:
        FixedClock(value)
    assert str(raised.value) == f"timestamp must be >= 0, got {value!r}"
    for args in ((value,), (0, value)):
        with pytest.raises(ValueError) as raised:
            StepClock(*args)
        assert str(raised.value) == f"start and step must be >= 0, got {value!r}"


def test_merge_does_not_consult_clock_source():
    class Exploding:
        def now(self):  # pragma: no cover - must never run
            raise AssertionError("merge consulted the clock source")

    v1 = vc(("a", 1, 1))
    v2 = vc(("b", 1, 2))
    merged = merge(v1, v2, Exploding())
    assert all_nodes(merged) == ["a", "b"]


# --- partial-order laws (randomized; the full-size suite is in acceptance) -----


def test_partial_order_laws_small():
    rng = random.Random(99)
    for _ in range(500):
        a = random_clock(rng, 5, 50)
        b = random_clock(rng, 5, 50)
        c = random_clock(rng, 5, 50)

        assert descends(a, a)
        da, db = reference.entries_to_dict(a.entries), reference.entries_to_dict(b.entries)
        assert descends(a, b) == reference.covers(da, db)
        assert compare(a, b) is Ordering(reference.compare(da, db))

        if descends(a, b) and descends(b, a):
            assert equal(a, b)

        m = merge(a, b)
        assert descends(m, a) and descends(m, b)
        assert merge(a, b) == merge(b, a)
        assert merge(a, merge(b, c)) == merge(merge(a, b), c)
        assert merge(a, a) == a

        u = merge(a, merge(b, c))
        assert descends(u, m)

        actor = rng.choice("abcdefgh")
        assert compare(increment(actor, a, FixedClock(60)), a) is Ordering.DESCENDS
