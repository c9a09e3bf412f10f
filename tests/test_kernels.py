"""Kernel tests: the pure-Python kernels against the benchmark's dict reference."""

import subprocess
import sys
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import vclock
from vclock import _backend, _kernels_py
from vclock._kernels_py import ClockEntry
from vclock.core import VClock, merge

from references import kernel_reference

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
    want = kernel_reference(a, b)
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
        want = kernel_reference(x, y)
        for name, expected in want.items():
            assert getattr(_kernels_py, name)(x, y) == expected, name
    assert _kernels_py.compare_entries(b, a) == _MIRROR[_kernels_py.compare_entries(a, b)]


def test_comparison_kernels_agree_with_the_reference_on_every_small_pair():
    # every canonical sequence over actors a-d with each count absent, 1 or 2:
    # 81 sequences, 6,561 ordered pairs, which reach every exit of both of
    # compare_entries' phases, each exit of phase 2 with the pair swapped and
    # not swapped
    sequences = [
        tuple(ClockEntry(actor, count, 3 - count) for actor, count in zip("abcd", counts) if count)
        for counts in product((0, 1, 2), repeat=4)
    ]
    assert len(sequences) == 81
    seen = set()
    for a in sequences:
        for b in sequences:
            want = kernel_reference(a, b)
            code = _kernels_py.compare_entries(a, b)
            assert code == want["compare_entries"], (a, b)
            assert _kernels_py.descends_entries(a, b) == want["descends_entries"], (a, b)
            assert _kernels_py.equal_entries(a, b) == want["equal_entries"], (a, b)
            seen.add(code)
    assert seen == set(_MIRROR)


def test_the_dict_reference_imports_nothing_from_vclock():
    # the judge shares no code with what it judges, even where vclock is importable
    vcbench = Path(__file__).resolve().parent.parent / "vcbench"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(vcbench)!r})\n"
        "import reference\n"
        "print(reference.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'vclock'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert done.stdout == f"{vcbench / 'reference.py'}\n[]\n"


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
