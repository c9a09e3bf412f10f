"""Oracle tests: reachability, replay, enumeration, equivalence."""

import dataclasses
import hashlib
import random
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vclock import _kernels_py, core, oracle
from vclock.cli import main
from vclock.core import InvalidActorError, Ordering, PruneBounds, equal, get_counter
from vclock.oracle import (
    MAX_ENUM_ACTORS,
    MAX_ENUM_EVENTS,
    EnumerationBudgetError,
    EventRecord,
    History,
    Violation,
    actor_name,
    build_history,
    check_enumerated,
    check_equivalence,
    enumerate_histories,
    happened_before,
    random_history,
    replay_clocks,
)

from references import check_equivalence_reference, spy, vc


# --- happened_before ---------------------------------------------------------


def test_happened_before_is_irreflexive():
    h = build_history((("a", None), ("b", 0)))
    for e in range(2):
        assert not happened_before(h, e, e)


def test_independent_updates_are_concurrent():
    h = build_history((("a", None), ("b", None)))
    assert not happened_before(h, 0, 1)
    assert not happened_before(h, 1, 0)


def test_receive_edge_orders_events():
    h = build_history((("a", None), ("b", 0)))
    assert happened_before(h, 0, 1)
    assert not happened_before(h, 1, 0)


def test_happened_before_is_transitive_through_actors():
    # a0 -> b1 (receive) -> b2 (program order) -> c3 (receive)
    h = build_history((("a", None), ("b", 0), ("b", None), ("c", 2)))
    assert happened_before(h, 0, 3)
    assert happened_before(h, 1, 3)


def test_happened_before_rejects_unknown_ids():
    h = build_history((("a", None),))
    with pytest.raises(ValueError):
        happened_before(h, 0, 1)
    with pytest.raises(ValueError):
        happened_before(h, -1, 0)


@pytest.mark.parametrize(("e1", "e2"), [(False, True), (0, True), (False, 1)])
def test_happened_before_rejects_bools(e1, e2):
    h = build_history((("a", None), ("b", 0)))
    bad = e1 if isinstance(e1, bool) else e2
    with pytest.raises(ValueError, match=rf"^unknown event id: {bad}$"):
        happened_before(h, e1, e2)


def test_transitivity_on_random_histories():
    for seed in range(5):
        h = random_history(seed, 20, 3)
        n = len(h)
        hb = [[happened_before(h, i, j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if hb[i][j] and hb[j][k]:
                        assert hb[i][k]


# --- replay ------------------------------------------------------------------


def test_single_event_replay():
    h = build_history((("a", None),))
    snaps = replay_clocks(h)
    assert snaps[0] == vc(("a", 1, 0))


def test_chain_of_three_counts_up():
    h = build_history((("a", None), ("a", None), ("a", None)))
    snaps = replay_clocks(h)
    assert get_counter("a", snaps[2]) == 3


def test_diamond_replay_hand_computed():
    # a writes, b receives it, a writes again, then a receives b's event
    h = build_history((("a", None), ("b", 0), ("a", None), ("a", 1)))
    snaps = replay_clocks(h)
    assert snaps[0] == vc(("a", 1, 0))
    assert snaps[1] == vc(("a", 1, 0), ("b", 1, 1))
    assert snaps[2] == vc(("a", 2, 2))
    assert snaps[3] == vc(("a", 3, 3), ("b", 1, 1))


def test_replay_matches_stored_snapshots():
    h = random_history(17, 60, 4)
    snaps = replay_clocks(h)
    for ev in h.events:
        assert snaps[ev.id] == ev.clock


def test_snapshot_counts_match_graph_counting():
    # an actor's count at an event = that actor's events in the causal cone
    for seed in range(10):
        h = random_history(seed, 40, 4)
        for ev in h.events:
            cone = [e for e in h.events if e.id == ev.id or happened_before(h, e.id, ev.id)]
            for actor in h.actors:
                expected = sum(1 for e in cone if e.actor == actor)
                assert get_counter(actor, ev.clock) == expected


def test_build_history_validates_receive_edges():
    with pytest.raises(ValueError):
        build_history((("a", None), ("a", 0)))  # receive from own actor
    with pytest.raises(ValueError):
        build_history((("a", 0),))  # receive from the future


@pytest.mark.parametrize("received_from", [True, False, 0.0, "0"])
def test_build_history_refuses_a_received_from_that_is_not_an_int(received_from):
    # a bool is not an event id either, as in happened_before and since=
    with pytest.raises(ValueError) as raised:
        build_history((("a", None), ("b", None), ("c", received_from)))
    assert str(raised.value) == (
        f"event 2 receives from {received_from!r}, which is not an earlier event"
    )


def test_build_history_validates_each_step_once(monkeypatch):
    steps = steps_of(random_history(3, 400, 8))
    calls = spy(monkeypatch, [core], "is_valid_actor")
    build_history(steps)
    # build_history checks each of the 400 steps' actors before replaying,
    # and core.increment checks its actor again on every one of the 400 events
    assert len(calls) == 400 + 400
    assert sorted(set(calls)) == [(actor_name(i),) for i in range(8)]


def test_build_history_reads_its_steps_once():
    steps = [("a", None), ("b", 0), ("a", None), ("c", 1)]
    want = build_history(steps)
    assert len(want) == 4
    assert build_history(step for step in steps) == want
    assert build_history(iter(steps)) == want


# --- extending a base history ---------------------------------------------------


def steps_of(h):
    return tuple((ev.actor, ev.received_from) for ev in h.events)


def test_enumerated_histories_equal_their_from_scratch_build():
    count = 0
    for h in enumerate_histories(5, 3):
        assert h == build_history(steps_of(h))
        count += 1
    # the count the enumerator yielded when it rebuilt every history from scratch
    assert count == 1913


def test_enumerated_children_share_their_parents_records():
    parents = {}
    latest = {}  # event count -> the history of that length yielded last
    for h in enumerate_histories(4, 3):
        if len(h) > 1:
            parent = parents[steps_of(h)[:-1]]
            assert all(a is b for a, b in zip(h.events, parent.events))
            # depth-first order, which check_enumerated relies on
            assert latest[len(h) - 1] is parent
        parents[steps_of(h)] = h
        latest[len(h)] = h


# keys fall before, on and after the cut points below
PRUNE_AT = {3: PruneBounds(1, 2, 0, 0), 17: PruneBounds(0, 1, 1, 2), 29: PruneBounds(1, 1, 0, 0)}


@pytest.mark.parametrize("prune_at", [None, PRUNE_AT], ids=["unpruned", "pruned"])
def test_extending_a_prefix_equals_the_one_shot_build(prune_at):
    steps = steps_of(random_history(11, 40, 4))
    whole = build_history(steps, prune_at)
    for cut in (0, 1, 4, 17, 18, 30, 39, 40):
        prefix = build_history(steps[:cut], prune_at)
        assert build_history(steps[cut:], prune_at, base=prefix) == whole
    if prune_at is not None:
        assert whole != build_history(steps)


def test_extension_continues_ids_and_actor_order():
    base = build_history((("b", None), ("a", 0)))
    h = build_history((("c", 1), ("b", None)), base=base)
    assert [ev.id for ev in h.events] == [0, 1, 2, 3]
    assert h.actors == ("b", "a", "c")
    assert h.events[2].predecessors == frozenset({1})
    assert h.events[3].predecessors == frozenset({0})
    assert h.events[3].clock == vc(("b", 2, 3))


def test_extension_raises_the_same_errors():
    base = build_history((("a", None), ("b", 0)))
    with pytest.raises(InvalidActorError, match=r"^invalid actor token: 'a b'$"):
        build_history((("a b", None),), base=base)
    with pytest.raises(ValueError, match="event 2 receives from 2, which is not an earlier"):
        build_history((("c", 2),), base=base)
    with pytest.raises(ValueError, match="not an earlier event"):
        build_history((("c", -1),), base=base)
    # the sender is inside base, and so is the receiver's own earlier event
    with pytest.raises(ValueError, match="event 2 receives from its own actor 'a'"):
        build_history((("a", 0),), base=base)
    with pytest.raises(ValueError, match="event 3 receives from its own actor 'c'"):
        build_history((("c", None), ("c", 2)), base=base)


def test_extension_validates_every_step_before_replaying_any(monkeypatch):
    base = build_history((("a", None),))
    increments = spy(monkeypatch, [core], "increment")
    with pytest.raises(InvalidActorError):
        build_history((("b", 0), ("c", None), ("", None)), base=base)
    with pytest.raises(ValueError, match="own actor"):
        build_history((("b", 0), ("b", 1)), base=base)
    assert increments == []


def test_build_history_refuses_a_prune_at_that_is_not_a_mapping(monkeypatch):
    # a list's `in` tests its values, so [b, b, b] used to prune no event
    bounds = PruneBounds(small=0, large=0, young=0, old=0)
    steps = (("a", None), ("b", 0), ("a", 1))
    h = build_history(steps)
    message = "prune_at must be a mapping of event ids to PruneBounds, got list"
    increments = spy(monkeypatch, [core], "increment")
    with pytest.raises(TypeError) as raised:
        build_history(steps, [bounds] * 3)
    assert str(raised.value) == message
    with pytest.raises(TypeError) as raised:
        replay_clocks(h, [bounds] * 3)
    assert str(raised.value) == message
    assert increments == []


# --- check_equivalence ---------------------------------------------------------


def test_empty_history_has_empty_report():
    assert check_equivalence(build_history(())) == []


def test_clean_histories_have_empty_reports():
    for seed in range(50):
        assert check_equivalence(random_history(seed, 30, 3)) == []


def test_prune_injection_breaks_equivalence():
    # e1 receives e0, then pruning evicts a's entry from e1's snapshot:
    # the graph still says e0 -> e1 but the clocks read Concurrent
    bounds = PruneBounds(small=1, large=1, young=0, old=0)
    h = build_history((("a", None), ("b", 0)), prune_at={1: bounds})
    assert h.events[1].clock == vc(("b", 1, 1))
    report = check_equivalence(h)
    assert Violation(0, 1, "hb", Ordering.CONCURRENT) in report
    assert Violation(1, 0, "inverse", Ordering.CONCURRENT) in report


def test_check_since_limits_the_later_event():
    # pruning makes violations, so the order of a non-empty report is checked
    bounds = PruneBounds(small=1, large=1, young=0, old=0)
    h = build_history(steps_of(random_history(3, 12, 3)), prune_at={4: bounds, 9: bounds})
    full = check_equivalence(h)
    assert full and check_equivalence(h, since=0) == full
    for since in range(len(h) + 1):
        later = [v for v in full if max(v.left, v.right) >= since]
        assert check_equivalence(h, since=since) == later
    assert check_equivalence(h, since=len(h)) == []


@pytest.mark.parametrize("since", [-1, 13, 1.0, "1", None, True])
def test_check_rejects_a_bad_since(since):
    with pytest.raises(ValueError, match="since"):
        check_equivalence(random_history(3, 12, 3), since=since)


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "faulty-kernel"])
def test_check_enumerated_equals_the_full_check(fault, request):
    if fault:
        request.getfixturevalue("faulty_compare")
    histories = list(enumerate_histories(5, 3))
    checked = list(check_enumerated(5, 3))
    assert [h for h, _ in checked] == histories
    for h, report in checked:
        assert report == check_equivalence(h)
    reported = sum(1 for _, report in checked if report)
    # the fault leaves some histories clean: 1,381 of the 1,913 report violations
    assert reported == (1381 if fault else 0)


def test_check_enumerated_reports_do_not_share_a_list(faulty_compare):
    # each history's report extends its parent's, so each yielded report must
    # be its own copy: clearing one must leave every later one whole
    reported = 0
    for h, report in check_enumerated(4, 3):
        assert report == check_equivalence(h)
        reported += bool(report)
        report.clear()
    assert reported


# prune bounds tight enough that pruned snapshots lose causality
_prune_bounds = st.builds(
    lambda small, extra, young, stretch: PruneBounds(small, small + extra, young, young + stretch),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 3),
)


@st.composite
def pruned_histories(draw):
    """A history of 0-80 events over 1-6 actors, pruned at drawn events, and a since."""
    actors = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(0, 80))):
        actor = actor_name(draw(st.integers(0, actors - 1)))
        senders = [k for k, (other, _) in enumerate(steps) if other != actor]
        received_from = draw(st.none() | st.sampled_from(senders)) if senders else None
        steps.append((actor, received_from))
    n = len(steps)
    prune_at = None
    if n:
        prune_at = draw(st.dictionaries(st.integers(0, n - 1), _prune_bounds, max_size=6))
    return build_history(steps, prune_at), draw(st.integers(0, n))


# pruning drops e3's entry for its sender e0, so of row 3's three pairs only (0, 3) disagrees
_ONE_PAIR_ROW = build_history(
    (("a", None), ("b", None), ("d", None), ("c", 0)), {3: PruneBounds(1, 1, 0, 0)}
)


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "faulty-kernel"])
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=pruned_histories())
@example(case=(_ONE_PAIR_ROW, 0))
@example(case=(_ONE_PAIR_ROW, 3))
def test_check_equals_the_reference_pair_loop(fault, request, case):
    if fault:
        request.getfixturevalue("faulty_compare")
    h, since = case
    assert check_equivalence(h, since=since) == check_equivalence_reference(h, since)


def test_one_pair_row_reports_one_pair():
    assert check_equivalence(_ONE_PAIR_ROW, since=3) == [
        Violation(0, 3, "hb", Ordering.CONCURRENT),
        Violation(3, 0, "inverse", Ordering.CONCURRENT),
    ]


@settings(max_examples=60, deadline=None)
@given(case=pruned_histories())
def test_check_calls_the_kernel_once_per_checked_pair(case):
    h, since = case
    entry_seqs = [ev.clock.entries for ev in h.events]
    index = {id(entries): k for k, entries in enumerate(entry_seqs)}
    assert len(index) == len(h)  # every snapshot's entries are a distinct object
    with pytest.MonkeyPatch.context() as patcher:
        pairs = spy(patcher, [_kernels_py], "compare_entries")
        check_equivalence(h, since=since)
    calls = [(index[id(a)], index[id(b)]) for a, b in pairs]
    n = len(h)
    assert len(calls) == n * (n - 1) // 2 - since * (since - 1) // 2
    # every checked pair once, in (earlier, later) argument order; any call order
    assert sorted(calls) == [(i, j) for i in range(n) for j in range(max(i + 1, since), n)]


def test_violation_render_format():
    v = Violation(0, 1, "hb", Ordering.CONCURRENT)
    assert v.render() == "VIOLATION e0 e1 graph=hb clocks=Concurrent"


# --- enumeration ----------------------------------------------------------------


def test_single_event_single_actor_is_one_history():
    assert sum(1 for _ in enumerate_histories(1, 1)) == 1


def test_two_events_two_actors_count_frozen():
    # computed by the enumerator itself and frozen as a regression value:
    # a | a,a | a,b | a,b(recv e0)
    assert sum(1 for _ in enumerate_histories(2, 2)) == 4


def test_enumerated_histories_satisfy_invariants():
    for h in enumerate_histories(3, 2):
        assert 1 <= len(h) <= 3
        for ev in h.events:
            assert all(p < ev.id for p in ev.predecessors)
            if ev.received_from is not None:
                assert h.events[ev.received_from].actor != ev.actor
        # actor names are canonical prefixes: a, then b, ...
        assert list(h.actors) == [actor_name(i) for i in range(len(h.actors))]


def test_enumeration_is_deterministic():
    first = [tuple((e.actor, e.received_from) for e in h.events) for h in enumerate_histories(3, 3)]
    second = [tuple((e.actor, e.received_from) for e in h.events) for h in enumerate_histories(3, 3)]
    assert first == second


@pytest.mark.parametrize(
    ("bounds", "count"), [((0, 0), 0), ((0, 3), 0), ((3, 0), 0), ((1, 1), 1), ((4, 1), 4)]
)
def test_enumeration_at_the_edge_bounds(bounds, count):
    assert sum(1 for _ in enumerate_histories(*bounds)) == count
    assert sum(1 for _ in check_enumerated(*bounds)) == count


def _sha256_of_lines(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_enumeration_order_and_records_are_pinned():
    # every (6, 3) history in order: its actors and each record's id, actor,
    # received_from, predecessors and clock
    lines = (repr((h.actors, h.events)) for h in enumerate_histories(6, 3))
    assert _sha256_of_lines(lines) == (
        "a5457924f6f3bd4c182171cb44ae7f488711ecc0216ee0d961d6953ee29eb5c9"
    )


@pytest.mark.parametrize(
    ("fault", "digest"),
    [
        (False, "e8710c10dafc8c03621315f82e206287b6c5c439d856ef93c1938e80607021e5"),
        (True, "46abf3aa5f0386fb13614354356420b0c6e1cb5437c02db7cb8dc016ba1b19ce"),
    ],
    ids=["clean", "faulty-kernel"],
)
def test_check_enumerated_reports_are_pinned(fault, digest, request):
    if fault:
        request.getfixturevalue("faulty_compare")
    assert _sha256_of_lines(repr(report) for _, report in check_enumerated(6, 3)) == digest


def test_built_records_equal_constructor_built_ones():
    # the four kinds of predecessors: none, sender only, own previous only, both
    h = build_history((("a", None), ("b", 0), ("a", None), ("a", 1), ("c", None)))
    assert [ev.predecessors for ev in h.events] == [set(), {0}, {0}, {1, 2}, set()]
    pairs = [
        (ev, EventRecord(ev.id, ev.actor, ev.received_from, ev.predecessors, ev.clock))
        for ev in h.events
    ]
    pairs.append((h, History(events=h.events, actors=h.actors)))
    for built, constructed in pairs:
        assert built == constructed and hash(built) == hash(constructed)
        assert repr(built) == repr(constructed)
        assert sys.getsizeof(vars(built)) == sys.getsizeof(vars(constructed))
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.actors = ()


def test_check_enumerated_calls_the_module_globals_once_per_history(monkeypatch):
    # a tracer wraps these two module globals; each history must reach both
    builds = spy(monkeypatch, [oracle], "build_history")
    checks = spy(monkeypatch, [oracle], "check_equivalence")
    assert sum(1 for _ in check_enumerated(5, 3)) == 1913
    assert len(builds) == len(checks) == 1913


def test_enumeration_budget_is_enforced_eagerly():
    for walk in (enumerate_histories, check_enumerated):
        with pytest.raises(EnumerationBudgetError):
            walk(MAX_ENUM_EVENTS + 1, MAX_ENUM_ACTORS)
        with pytest.raises(EnumerationBudgetError):
            walk(MAX_ENUM_EVENTS, MAX_ENUM_ACTORS + 1)


@pytest.mark.parametrize(
    ("bounds", "bad"),
    [((2.5, 2), 2.5), ((2, 1.5), 1.5), (("2", 2), "2"), ((True, 2), True), ((2, False), False)],
    ids=str,
)
def test_enumeration_refuses_a_bound_that_is_not_an_int(bounds, bad):
    # 2.5 used to yield histories of 3 events, and True ran as 1
    for walk in (enumerate_histories, check_enumerated):
        with pytest.raises(ValueError) as raised:
            walk(*bounds)
        assert str(raised.value) == f"bounds must be ints, got {bad!r}"


# --- random histories -------------------------------------------------------------


def test_random_history_zero_events_is_empty():
    h = random_history(1, 0, 3)
    assert len(h) == 0


def test_random_history_is_deterministic():
    h1 = random_history(42, 50, 4)
    h2 = random_history(42, 50, 4)
    assert h1 == h2
    assert [str(e.clock) for e in h1.events] == [str(e.clock) for e in h2.events]


def test_random_history_varies_with_seed():
    shapes = {
        tuple((e.actor, e.received_from) for e in random_history(seed, 30, 4).events)
        for seed in range(10)
    }
    assert len(shapes) > 1


# sha256 over repr(steps_of(h)) of every seed's history, seeds 0-999, pinned from the
# generator that rebuilt each event's candidate list from scratch
_RANDOM_STEP_DIGESTS = {
    (100, 5): "b3111ba352273b688a273ad5fa471848965b9c2741f7822a1624a0a5ff620c22",
    (400, 8): "ef02103a8091cb3b47f72338a1323caa606ee0e02e5700fcd133fbca2731a66b",
}


@pytest.mark.parametrize("shape", sorted(_RANDOM_STEP_DIGESTS), ids=str)
def test_random_history_steps_are_pinned(shape):
    digest = hashlib.sha256()
    for seed in range(1000):
        digest.update(repr(steps_of(random_history(seed, *shape))).encode())
    assert digest.hexdigest() == _RANDOM_STEP_DIGESTS[shape]


def test_random_history_validates_arguments():
    with pytest.raises(ValueError):
        random_history(1, -1, 2)
    with pytest.raises(ValueError):
        random_history(1, 5, 0)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((None, 12, 3), "seed must be an int, got None"),
        (([1], 5, 2), "seed must be an int, got [1]"),
        ((True, 5, 2), "seed must be an int, got True"),
        ((1.0, 5, 2), "seed must be an int, got 1.0"),
        (("0", 5, 2), "seed must be an int, got '0'"),
        ((0, 2.5, 2), "events must be an int, got 2.5"),
        ((0, "3", 2), "events must be an int, got '3'"),
        ((0, True, 2), "events must be an int, got True"),
        ((0, 3, 2.5), "actors must be an int, got 2.5"),
        ((0, 3, True), "actors must be an int, got True"),
    ],
    ids=str,
)
def test_random_history_refuses_a_non_int_by_name(args, message):
    with pytest.raises(ValueError) as raised:
        random_history(*args)
    assert str(raised.value) == message


def test_random_history_memory_follows_events_not_declared_actors():
    # only drawn actors get a name and a bookkeeping list, so a huge actor
    # count costs nothing until its actors are drawn
    start = time.perf_counter()
    h = random_history(0, 3, 10**12)
    assert time.perf_counter() - start < 0.5
    assert len(h) == 3
    # the first event's actor is the seed's first draw
    assert h.events[0].actor == actor_name(random.Random(0).randrange(10**12))


def test_check_random_with_a_huge_actor_count_exits_zero(capsys):
    assert main(["check", "--random", "1", "3", "99999999999"]) == 0
    assert capsys.readouterr().err == "checked 1 histories: 0 violation line(s)\n"


def test_actor_names_extend_beyond_the_alphabet():
    assert actor_name(0) == "a"
    assert actor_name(25) == "z"
    assert actor_name(26) == "a26"
    for index in (-1, -26, -27):
        with pytest.raises(ValueError, match=rf"^actor index must be >= 0, got {index}$"):
            actor_name(index)
    for index in (True, 2.5, "1"):
        with pytest.raises(ValueError) as raised:
            actor_name(index)
        assert str(raised.value) == f"actor index must be an int, got {index!r}"


# --- simulator/oracle agreement helper ---------------------------------------------


def test_stored_clock_equals_replayed_clock_shape():
    # same event structure gives causally equal clocks regardless of the
    # timestamp scheme (logical step vs event index)
    h = build_history((("r1", None), ("r2", 0)))
    snaps = replay_clocks(h)
    direct = vc(("r1", 1, 99), ("r2", 1, 100))
    assert equal(snaps[1], direct)
