"""Command-line interface tests: output tokens and the exit-status contract."""

import contextlib
import hashlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclock.cli import main
from vclock.codec import MAX_DIGITS
from vclock.oracle import check_equivalence, enumerate_histories

from references import OVERLONG, SCENARIOS, spy

GOOD_SCENARIO = """\
replicas r1 r2
update r1 k v1
update r2 k v2
sync r1 r2 k
expect siblings r2 k 2
"""

FAILING_SCENARIO = """\
replicas r1
update r1 k v1
expect siblings r1 k 7
"""


def test_clock_compare_ignores_timestamps(capsys):
    assert main(["clock", "compare", "a:1:1", "a:1:9"]) == 0
    assert capsys.readouterr().out == "Equal\n"


def test_clock_compare_tokens(capsys):
    main(["clock", "compare", "a:2:1", "a:1:1"])
    main(["clock", "compare", "a:1:1", "a:2:1"])
    main(["clock", "compare", "a:1:1", "b:1:1"])
    assert capsys.readouterr().out == "Descends\nDominated\nConcurrent\n"


def test_clock_merge(capsys):
    assert main(["clock", "merge", "a:2:10", "b:1:5"]) == 0
    assert capsys.readouterr().out == "a:2:10;b:1:5\n"


def test_clock_descends_prints_lowercase_booleans(capsys):
    assert main(["clock", "descends", "-", "a:1:1"]) == 0
    assert main(["clock", "descends", "a:1:1", "-"]) == 0
    assert capsys.readouterr().out == "false\ntrue\n"


def test_clock_compare_overlong_count_exits_two(capsys):
    assert main(["clock", "compare", f"a:{OVERLONG}:1", "a:1:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "too many digits" in captured.err


def test_clock_increment(capsys):
    assert main(["clock", "increment", "a", "-", "--at", "77"]) == 0
    assert capsys.readouterr().out == "a:1:77\n"


def test_clock_increment_requires_at():
    assert main(["clock", "increment", "a", "-"]) == 2


def test_clock_prune(capsys):
    code = main(
        [
            "clock", "prune", "a:1:10;b:1:20",
            "--now", "1000", "--small", "0", "--large", "0", "--young", "0", "--old", "0",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "-\n"


def test_clock_prune_rejects_bad_bounds(capsys):
    code = main(
        [
            "clock", "prune", "a:1:10",
            "--now", "10", "--small", "5", "--large", "2", "--young", "0", "--old", "0",
        ]
    )
    assert code == 2
    assert "small" in capsys.readouterr().err


_LIMITS = pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "lifted-limit"])


@_LIMITS
def test_clock_increment_past_max_digits_exits_two(int_digit_limit, capsys, limit):
    # the count grows from MAX_DIGITS nines to MAX_DIGITS + 1 digits
    if limit is not None:
        int_digit_limit(limit)
    assert main(["clock", "increment", "a", "a:" + "9" * MAX_DIGITS + ":0", "--at", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot encode count of actor 'a': it has more than {MAX_DIGITS} digits\n"
    )


_PRUNE_OPTIONS = ("--now", "--small", "--large", "--young", "--old")


def _prune_argv(option, n):
    bounds = (token for o in _PRUNE_OPTIONS for token in (o, n if o == option else "0"))
    return ["clock", "prune", "a:1:1", *bounds]


# argv that puts a number into each integer option
_INT_OPTIONS = {
    "--at": lambda n: ["clock", "increment", "a", "-", "--at", n],
    **{option: lambda n, option=option: _prune_argv(option, n) for option in _PRUNE_OPTIONS},
    "--exhaustive": lambda n: ["check", "--exhaustive", n, "3"],
    "--random": lambda n: ["check", "--random", "1", "2", n],
    "max_n": lambda n: ["peano-bench", n],
}


@_LIMITS
@pytest.mark.parametrize("option", list(_INT_OPTIONS))
def test_int_options_refuse_more_than_max_digits(int_digit_limit, capsys, limit, option):
    if limit is not None:
        int_digit_limit(limit)
    # leading zeros and underscores: int() counts the digits, not the value
    for text in ("7" * (MAX_DIGITS + 1), "0" * MAX_DIGITS + "1", "1_" * MAX_DIGITS + "1"):
        assert main(_INT_OPTIONS[option](text)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")


@_LIMITS
def test_int_option_takes_max_digits(int_digit_limit, capsys, limit):
    if limit is not None:
        int_digit_limit(limit)
    at = "7" * MAX_DIGITS
    assert main(["clock", "increment", "a", "-", "--at", at]) == 0
    assert capsys.readouterr().out == f"a:1:{at}\n"


@pytest.mark.parametrize(
    ("at", "stamp"),
    [("\u0665", "5"), ("1_0", "10"), ("+7", "7"), (" 8", "8")],
    ids=["arabic-indic-digit", "underscore", "plus-sign", "leading-space"],
)
def test_int_options_take_int_syntax(capsys, at, stamp):
    # unlike wire text, an integer option takes whatever int() takes; only
    # the MAX_DIGITS count is shared with the codec
    assert main(["clock", "increment", "a", "-", "--at", at]) == 0
    assert capsys.readouterr().out == f"a:1:{stamp}\n"


def test_clock_prune_rejects_a_negative_now(capsys):
    assert main(_prune_argv("--now", "-1")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --now: must be >= 0\n"


def test_parse_error_names_the_argument(capsys):
    assert main(["clock", "compare", "a:x:1", "a:1:1"]) == 2
    err = capsys.readouterr().err
    assert "left" in err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_run_passing_scenario(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_SCENARIO)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS expect siblings r2 k 2" in out


def test_run_failing_scenario_exits_one(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(FAILING_SCENARIO)
    assert main(["run", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_missing_file_exits_two(capsys):
    assert main(["run", "/no/such/scenario.txt"]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_malformed_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("replicas r1\nupdate r9 k v\n")
    assert main(["run", str(path)]) == 2
    assert "unknown replica" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["\u00b2", OVERLONG], ids=["superscript", "overlong"])
def test_run_bad_bound_digits_exit_two(tmp_path, capsys, bound):
    path = tmp_path / "s.txt"
    path.write_text(f"replicas r1\nbounds {bound} 1 0 0\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: bound ")
    assert "Traceback" not in err


def test_run_non_utf8_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_bytes(b"replicas r1\nupdate r1 k v\xff\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not UTF-8 at byte offset 25: invalid start byte\n"


def test_run_writes_report_file(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_SCENARIO)
    report_path = tmp_path / "report.txt"
    assert main(["run", str(path), "--report", str(report_path)]) == 0
    assert capsys.readouterr().out == ""
    assert "PASS expect siblings r2 k 2" in report_path.read_text()


def test_run_unwritable_report_exits_two(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_SCENARIO)
    assert main(["run", str(path), "--report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.err.count("\n") == 1


def test_run_reports_are_byte_identical(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_SCENARIO)
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert main(["run", str(path), "--report", str(r1)]) == 0
    assert main(["run", str(path), "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_run_goes_through_the_module_run_scenario(monkeypatch, capsys):
    # a tracer wraps `vclock run` by patching the name in the module's dict
    from vclock import cli, simulator

    assert "run_scenario" in cli.__dict__
    calls = spy(monkeypatch, [cli], "run_scenario")
    for path in sorted(SCENARIOS.glob("*.txt")):
        for flags in ([], ["--no-collapse"]):
            calls.clear()
            code = main(["run", str(path), *flags])
            assert len(calls) == 1
            report = simulator.run_scenario(simulator.load_scenario(str(path)), not flags)
            assert capsys.readouterr().out == report.text
            assert code == (0 if report.ok else 1)


def test_check_exhaustive_small(capsys):
    assert main(["check", "--exhaustive", "4", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 violation" in captured.err


def test_check_exhaustive_reports_every_violation(faulty_compare, capsys):
    # reference: every history checked in full, in enumeration order
    rendered, notes = [], []
    for checked, history in enumerate(enumerate_histories(4, 3)):
        violations = check_equivalence(history)
        if violations:
            notes.append(f"# history #{checked} over {history.actors}")
            rendered.extend(v.render() for v in violations)
    assert rendered
    summary = f"checked {checked + 1} histories: {len(rendered)} violation line(s)"
    assert main(["check", "--exhaustive", "4", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(line + "\n" for line in sorted(rendered))
    assert captured.err.splitlines() == [*notes, summary]


def test_check_exhaustive_faulty_output_is_pinned(faulty_compare, capsys):
    # a golden: the sorted violation lines and, on stderr, every violating
    # history's note in enumeration order, then the summary
    assert main(["check", "--exhaustive", "5", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith("checked 1913 histories: 6322 violation line(s)\n")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "a10164dc4168d6545544751a2008436fbd089f7b54c6200cc5e30842c0d94a87"
    )
    assert hashlib.sha256(captured.err.encode()).hexdigest() == (
        "a10b56ce0604c5b9dfaacb8665a0922987bfa9482f4a0e91dca14fbd3c9936ea"
    )


def test_check_random_small(capsys):
    assert main(["check", "--random", "25", "40", "4"]) == 0
    assert capsys.readouterr().out == ""


def test_check_random_notes_each_violating_seed(faulty_compare, capsys):
    assert main(["check", "--random", "3", "12", "3"]) == 1
    captured = capsys.readouterr()
    *notes, summary = captured.err.splitlines()
    assert notes == ["# seed 0", "# seed 1", "# seed 2"]
    assert summary == f"checked 3 histories: {len(captured.out.splitlines())} violation line(s)"
    assert captured.out


def test_check_exhaustive_full_budget(capsys):
    assert main(["check", "--exhaustive", "6", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checked 24436 histories" in captured.err


def test_check_budget_exceeded(capsys):
    assert main(["check", "--exhaustive", "20", "5"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_check_requires_a_mode():
    assert main(["check"]) == 2


def test_peano_bench_zero_prints_header_and_extrapolation(capsys):
    assert main(["peano-bench", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,nodes,encode_micros,decode_micros"
    assert len(lines) == 2
    assert "1390525761 nodes" in lines[1]


def test_peano_bench_rows_and_node_counts(capsys):
    assert main(["peano-bench", "10000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:-1]]
    assert [row[0] for row in rows] == ["100", "1000", "10000"]
    assert [row[1] for row in rows] == ["101", "1001", "10001"]


def test_peano_bench_rejects_over_ceiling(capsys):
    assert main(["peano-bench", "10000001"]) == 2
    assert main(["peano-bench", "-3"]) == 2


@pytest.mark.parametrize("argv", [["clock", "merge", "a:2:10", "b:1:5"]])
def test_module_entry_point(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "vclock", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a:2:10;b:1:5\n"


def _readme_clock_examples():
    """(argv, expected stdout line) for each `vclock clock` line of README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("vclock clock "):
            examples.append((shlex.split(command)[1:], comment.split()[0]))
    return examples


README_CLOCK_EXAMPLES = _readme_clock_examples()


def test_readme_clock_examples_print_what_their_comments_say(capsys):
    assert [argv[1] for argv, _ in README_CLOCK_EXAMPLES] == [
        "compare", "merge", "descends", "increment", "prune",
    ]
    for argv, expected in README_CLOCK_EXAMPLES:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected + "\n", argv


# --- the exit-status contract, by property ----------------------------------------


_GOOD_CLOCKS = ["-", "a:1:1", "a:2:10;b:1:5", "b:1:5;a:2:10"]
_BAD_CLOCKS = [
    "a:x:1", "a:0:1", "a b:1:1", "a:1", "", "a:1:1;a:2:2", "a:\u00b2:1", "\u00e9:1:1",
    f"a:{OVERLONG}:1", "a:1:2;;",
]
# a drawn token never starts with "-" unless it is "-": argparse would read it as an option
_token = st.text(alphabet="ab:;-019 \u00e9", max_size=10).filter(
    lambda t: t == "-" or not t.startswith("-")
)
_clock_text = st.sampled_from(_GOOD_CLOCKS) | st.sampled_from(_BAD_CLOCKS) | _token
_actor = st.sampled_from(["a", "node1", "", "a b", "x:y", "\u00e9", "-"]) | _token
_number = st.integers(-2, 40).map(str)


def _options(*names):
    return st.tuples(*(st.tuples(st.just(name), _number) for name in names)).map(
        lambda pairs: [token for pair in pairs for token in pair]
    )


def _ints(*ranges):
    return st.tuples(*(st.integers(low, high).map(str) for low, high in ranges)).map(list)


# argv of each kind, all of which argparse accepts; "run" draws from the run_paths fixture
_ARGV = {
    "pair": st.tuples(st.sampled_from(["compare", "merge", "descends"]), _clock_text, _clock_text)
    .map(lambda t: ["clock", *t]),
    "increment": st.tuples(_actor, _clock_text, _options("--at"))
    .map(lambda t: ["clock", "increment", t[0], t[1], *t[2]]),
    "prune": st.tuples(_clock_text, _options("--now", "--small", "--large", "--young", "--old"))
    .map(lambda t: ["clock", "prune", t[0], *t[1]]),
    "exhaustive": _ints((-1, 4), (-1, 3)).map(lambda n: ["check", "--exhaustive", *n]),
    "random": _ints((-1, 3), (-1, 30), (-1, 4)).map(lambda n: ["check", "--random", *n]),
    "peano-bench": _ints((-5, 1000)).map(lambda n: ["peano-bench", *n]),
}


@pytest.fixture(scope="module")
def run_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenarios")
    (root / "good.txt").write_text(GOOD_SCENARIO)
    (root / "failing.txt").write_text(FAILING_SCENARIO)
    (root / "latin1.txt").write_bytes(b"replicas r1\nupdate r1 k v\xff\n")
    names = ("good.txt", "failing.txt", "latin1.txt", "missing.txt")
    return [str(root / name) for name in names] + [str(root)]


@pytest.mark.parametrize("kind", [*_ARGV, "run"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_main_exit_status_contract(run_paths, kind, data):
    if kind == "run":
        argv = ["run", data.draw(st.sampled_from(run_paths))]
    else:
        argv = data.draw(_ARGV[kind])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    # every drawn argv parses, so a 2 comes from a handler that rejected an input
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
