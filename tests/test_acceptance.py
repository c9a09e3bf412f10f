"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Every tolerance is pinned here; the suites are exact
(zero-violation) except where a runtime budget is stated.
"""

import gc
import random
import time

from vclock.codec import natural_to_peano, peano_cost, peano_to_natural
from vclock.core import (
    ClockEntry,
    FixedClock,
    Ordering,
    PruneBounds,
    VClock,
    all_nodes,
    compare,
    descends,
    equal,
    fresh,
    get_counter,
    get_timestamp,
    increment,
    merge,
    prune,
)
from vclock.oracle import build_history, check_equivalence, enumerate_histories, random_history
from vclock.simulator import load_scenario, run_scenario

from references import SCENARIOS, prune_reference, random_clock

LAW_SUITE_BUDGET_SECONDS = 5.0
ORACLE_BUDGET_SECONDS = 60.0

LAW_SUITE_CASES = 10_000
PRUNE_SUITE_CASES = 10_000
RANDOM_ORACLE_SEEDS = 1_000
RANDOM_ORACLE_EVENTS = 100
RANDOM_ORACLE_ACTORS = 5

UNARY_TIMESTAMP = 1_390_525_760
ONE_GIGABYTE = 10**9


class _criterion:
    """Prints ACCEPTANCE PASS/FAIL: <name> when the block exits."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {status}: {self.name}")
        return False


def test_api_parity():
    with _criterion("API parity: the nine clock operations honor their contracts"):
        source = FixedClock(100)
        v0 = fresh()
        assert len(v0) == 0

        v1 = increment("a", v0, source)
        assert v1.entries == (ClockEntry("a", 1, 100),)
        v2 = increment("a", v1, FixedClock(105))
        assert v2.entries == (ClockEntry("a", 2, 105),)

        assert equal(VClock([("a", 1, 1)]), VClock([("a", 1, 999)]))
        assert not equal(v1, v2)

        assert descends(v2, v1) and descends(v2, v2) and descends(v2, v0)
        assert not descends(v1, v2)

        other = increment("b", fresh(), FixedClock(3))
        merged = merge(v2, other)
        assert all_nodes(merged) == ["a", "b"]
        assert descends(merged, v2) and descends(merged, other)

        assert get_counter("a", v2) == 2
        assert get_counter("missing", v2) == 0
        assert get_timestamp("a", v2) == 105
        assert get_timestamp("missing", v2) is None

        assert all_nodes(fresh()) == []
        assert all_nodes(merged) == sorted(all_nodes(merged))

        bounds = PruneBounds(small=0, large=0, young=0, old=0)
        assert prune(merged, 10**6, bounds) == fresh()
        kept = prune(merged, 10**6, PruneBounds(small=2, large=9, young=0, old=0))
        assert kept == merged


def test_partial_order_law_suite():
    name = (
        f"partial-order laws: {LAW_SUITE_CASES} seeded cases over <= 8 actors "
        f"in under {LAW_SUITE_BUDGET_SECONDS:.0f}s"
    )
    with _criterion(name):
        rng = random.Random(20_240_601)
        started = time.perf_counter()
        for _ in range(LAW_SUITE_CASES):
            a = random_clock(rng, 6, 60)
            b = random_clock(rng, 6, 60)
            c = random_clock(rng, 6, 60)

            # reflexivity
            assert descends(a, a)
            assert compare(a, a) is Ordering.EQUAL
            # bottom element
            assert descends(a, fresh())

            # antisymmetry up to equality
            if descends(a, b) and descends(b, a):
                assert equal(a, b)

            # merge is an upper bound, and the least one
            m = merge(a, b)
            assert descends(m, a) and descends(m, b)
            u = merge(a, merge(b, c))
            assert descends(u, a) and descends(u, b)
            assert descends(u, m)
            if descends(c, a) and descends(c, b):
                assert descends(c, m)

            # merge laws
            assert merge(a, b) == merge(b, a)
            assert merge(a, merge(b, c)) == merge(merge(a, b), c)
            assert merge(a, a) == a

            # transitivity on a constructed descent chain
            y = merge(a, b)
            z = increment("a", merge(y, c), FixedClock(70))
            assert descends(z, y) and descends(y, a)
            assert descends(z, a)

            # increment strictly dominates
            actor = rng.choice("abcdefgh")
            assert compare(increment(actor, a, FixedClock(61)), a) is Ordering.DESCENDS

            # get_counter consistency
            assert descends(a, b) == all(
                get_counter(n, a) >= get_counter(n, b) for n in all_nodes(b)
            )
        elapsed = time.perf_counter() - started
        assert elapsed < LAW_SUITE_BUDGET_SECONDS, f"law suite took {elapsed:.2f}s"


def test_oracle_equivalence_exhaustive():
    name = (
        "oracle equivalence, exhaustive: every history with <= 6 events over "
        f"<= 3 actors, zero violations, under {ORACLE_BUDGET_SECONDS:.0f}s"
    )
    with _criterion(name):
        started = time.perf_counter()
        assert check_equivalence(build_history(())) == []
        checked = 0
        for history in enumerate_histories(6, 3):
            assert check_equivalence(history) == [], f"violations in {history}"
            checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 24_436  # frozen: the enumerator's own count
        assert elapsed < ORACLE_BUDGET_SECONDS, f"exhaustive check took {elapsed:.2f}s"


def test_oracle_equivalence_randomized():
    name = (
        f"oracle equivalence, randomized: {RANDOM_ORACLE_SEEDS} seeds x "
        f"{RANDOM_ORACLE_EVENTS} events x {RANDOM_ORACLE_ACTORS} actors, zero "
        f"violations, under {ORACLE_BUDGET_SECONDS:.0f}s"
    )
    with _criterion(name):
        started = time.perf_counter()
        for seed in range(RANDOM_ORACLE_SEEDS):
            history = random_history(seed, RANDOM_ORACLE_EVENTS, RANDOM_ORACLE_ACTORS)
            assert check_equivalence(history) == [], f"violations at seed {seed}"
        elapsed = time.perf_counter() - started
        assert elapsed < ORACLE_BUDGET_SECONDS, f"randomized check took {elapsed:.2f}s"


def test_prune_rule_property_suite():
    name = (
        f"prune rule: {PRUNE_SUITE_CASES} random (clock, now, bounds) cases; "
        "size floor, young survival, bit-identical survivors, reference agreement"
    )
    with _criterion(name):
        rng = random.Random(77)
        for _ in range(PRUNE_SUITE_CASES):
            size = rng.randint(0, 12)
            entries = [
                (f"n{i:02d}", rng.randint(1, 5), rng.randint(0, 100)) for i in range(size)
            ]
            v = VClock(entries)
            small = rng.randint(0, 6)
            young = rng.randint(0, 40)
            bounds = PruneBounds(
                small=small,
                large=small + rng.randint(0, 6),
                young=young,
                old=young + rng.randint(0, 60),
            )
            now = rng.randint(0, 120)
            result = prune(v, now, bounds)

            assert len(result) >= min(len(v), bounds.small)
            original = set(v.entries)
            for entry in result.entries:
                assert entry in original  # survivors bit-identical
            for entry in v.entries:
                if entry.timestamp >= now - bounds.young:
                    assert entry in result.entries  # young entries always survive
            assert set(all_nodes(result)) <= set(all_nodes(v))
            assert prune_reference(v, now, bounds) == result


def test_unary_numeral_cost():
    name = (
        f"unary numeral cost: cost({UNARY_TIMESTAMP}) exact, materialization "
        "monotone over 1e2..1e5, timestamp-scale encoding >= 1 GB"
    )
    with _criterion(name):
        assert peano_cost(UNARY_TIMESTAMP) == 1_390_525_761

        timings = []
        for n in (10**2, 10**3, 10**4, 10**5):
            best = None
            for _ in range(3):
                started = time.perf_counter_ns()
                numeral = natural_to_peano(n)
                elapsed = time.perf_counter_ns() - started
                if best is None or elapsed < best:
                    best = elapsed
                del numeral
            timings.append(best)
        assert timings == sorted(timings) and len(set(timings)) == len(timings), (
            f"materialization cost not monotone: {timings}"
        )

        # any per-node footprint of >= 1 byte puts the timestamp beyond 1 GB
        assert peano_cost(UNARY_TIMESTAMP) * 1 >= ONE_GIGABYTE


def test_unary_numeral_round_trip():
    with _criterion("unary numeral round-trip: depth(2) = 2 and exact for all n <= 10000"):
        two = natural_to_peano(2)
        depth = 0
        node = two
        while hasattr(node, "pred"):
            depth += 1
            node = node.pred
        assert depth == 2
        # the numerals are acyclic chains of about 50 million objects in all,
        # so cyclic collections during the loop scan them and find nothing
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for n in range(10_001):
                assert peano_to_natural(natural_to_peano(n)) == n
        finally:
            if gc_was_enabled:
                gc.enable()


def test_simulator_determinism_and_convergence():
    name = (
        "simulator: canonical scenarios pass, full-sync suffix converges "
        "byte-identically, reports reproduce byte-for-byte"
    )
    with _criterion(name):
        concurrent = load_scenario(str(SCENARIOS / "concurrent_write.txt"))
        report = run_scenario(concurrent)
        assert report.ok
        assert report.stores["r2"]["k"] == report.stores["r1"]["k"]
        assert len(report.stores["r2"]["k"]) == 2

        causal = load_scenario(str(SCENARIOS / "causal_overwrite.txt"))
        report = run_scenario(causal)
        assert report.ok
        assert len(report.stores["r1"]["k"]) == 1
        assert report.stores["r1"]["k"] == report.stores["r2"]["k"]

        # determinism: byte-identical reports on re-run
        for scenario in (concurrent, causal):
            assert run_scenario(scenario).text == run_scenario(scenario).text

        # convergence: any full round of pairwise syncs aligns all replicas
        from vclock.simulator import parse_scenario

        base = (
            "replicas r1 r2 r3\n"
            "update r1 k v1\n"
            "update r2 k v2\n"
            "update r3 k v3\n"
            "sync r1 r3 k\n"
            "update r3 k v4\n"
        )
        pairs = [
            (s, d) for s in ("r1", "r2", "r3") for d in ("r1", "r2", "r3") if s != d
        ]
        rng = random.Random(9)
        for _ in range(8):
            order = pairs[:]
            rng.shuffle(order)
            suffix = "".join(f"sync {s} {d} k\n" for s, d in order)
            final = run_scenario(parse_scenario(base + suffix))
            assert final.ok
            assert final.stores["r1"] == final.stores["r2"] == final.stores["r3"]
