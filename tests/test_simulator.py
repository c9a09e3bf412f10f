"""Simulator tests: scenario parsing, replica semantics, determinism."""

import codecs
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclock import core
from vclock.codec import decode
from vclock.core import (
    Ordering,
    PruneBounds,
    VClock,
    canonical_text,
    compare,
    descends,
    equal,
    prune,
)
from vclock.simulator import (
    Command,
    ScenarioError,
    Sibling,
    integrate_siblings,
    load_scenario,
    parse_scenario,
    run_scenario,
    siblings_pairwise_concurrent,
)

import reference
from references import OVERLONG, SCENARIOS, prune_reference, spy, vc


def run_text(text: str, collapse: bool = True):
    return run_scenario(parse_scenario(text), collapse=collapse)


# --- parsing -------------------------------------------------------------------


def test_empty_scenario_runs_clean():
    report = run_text("")
    assert report.ok
    assert report.passes == 0 and report.fails == 0
    assert report.lines[-1] == "result: pass=0 fail=0"


def test_comments_and_blank_lines_are_skipped():
    scenario = parse_scenario("# a comment\n\nreplicas r1\n  # indented comment\nupdate r1 k v\n")
    assert len(scenario.commands) == 1


def test_unknown_replica_is_a_load_error():
    with pytest.raises(ScenarioError, match="unknown replica"):
        parse_scenario("replicas r1\nupdate r2 k v\n")


def test_update_before_replicas_is_a_load_error():
    with pytest.raises(ScenarioError, match="unknown replica"):
        parse_scenario("update r1 k v\nreplicas r1\n")


def test_duplicate_replicas_declaration_rejected():
    with pytest.raises(ScenarioError, match="duplicate replicas"):
        parse_scenario("replicas r1\nreplicas r2\n")


def test_duplicate_replica_name_rejected():
    with pytest.raises(ScenarioError, match="duplicate replica name"):
        parse_scenario("replicas r1 r1\n")


def test_unknown_key_is_a_load_error():
    with pytest.raises(ScenarioError, match="never written"):
        parse_scenario("replicas r1 r2\nsync r1 r2 k\n")
    with pytest.raises(ScenarioError, match="never written"):
        parse_scenario("replicas r1\nread r1 k\n")


def test_sync_to_self_rejected():
    with pytest.raises(ScenarioError, match="same"):
        parse_scenario("replicas r1\nupdate r1 k v\nsync r1 r1 k\n")


def test_prune_requires_bounds():
    with pytest.raises(ScenarioError, match="bounds"):
        parse_scenario("replicas r1\nupdate r1 k v\nprune r1 k\n")


def test_bad_bounds_rejected_at_load():
    with pytest.raises(ScenarioError, match="small"):
        parse_scenario("replicas r1\nbounds 5 2 0 0\n")
    with pytest.raises(ScenarioError, match="duplicate bounds"):
        parse_scenario("replicas r1\nbounds 0 1 0 0\nbounds 0 1 0 0\n")


def test_numeric_tokens_must_be_ascii_digits():
    # str.isdigit accepts superscripts and other scripts' digits; int() does not
    for token in ("\u00b2", "\u0663", "-1", "+1", "1.0"):
        with pytest.raises(ScenarioError, match="line 2: bound must be a non-negative integer"):
            parse_scenario(f"replicas r1\nbounds {token} 1 0 0\n")
        with pytest.raises(ScenarioError, match="line 3: sibling count"):
            parse_scenario(f"replicas r1\nupdate r1 k v\nexpect siblings r1 k {token}\n")


def test_overlong_numeric_tokens_rejected():
    with pytest.raises(ScenarioError, match="line 2: bound has too many digits"):
        parse_scenario(f"replicas r1\nbounds {OVERLONG} 1 0 0\n")
    with pytest.raises(ScenarioError, match="line 3: sibling index has too many digits"):
        parse_scenario(
            f"replicas r1\nupdate r1 k v\nexpect compare r1 k 0 {OVERLONG} Equal\n"
        )


def test_arity_errors():
    for line in ("update r1 k", "sync r1 r2", "read r1", "prune r1", "expect siblings r1 k"):
        with pytest.raises(ScenarioError):
            parse_scenario(f"replicas r1 r2\nupdate r1 k v\n{line}\n")


def test_bad_expect_clock_text_rejected_at_load():
    with pytest.raises(ScenarioError, match="bad clock text"):
        parse_scenario("replicas r1\nupdate r1 k v\nexpect clock r1 k nonsense\n")


def test_bad_ordering_token_rejected_at_load():
    with pytest.raises(ScenarioError, match="ordering"):
        parse_scenario("replicas r1\nupdate r1 k v\nexpect compare r1 k 0 1 Above\n")


def test_unknown_command_rejected():
    with pytest.raises(ScenarioError, match="unknown command"):
        parse_scenario("replicas r1\nfrobnicate r1\n")


def test_error_messages_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("replicas r1\nupdate r1 k v\nread r9 k\n")


def test_comment_holding_a_form_feed_is_skipped_whole():
    # str.splitlines() would end the comment at the form feed and run "page"
    scenario = parse_scenario("replicas r1\n# note\x0c page\nupdate r1 k v\n")
    assert [(c.line_no, c.op) for c in scenario.commands] == [(3, "update")]


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x85", "\u2028"], ids=ascii)
def test_only_newlines_end_a_line(blank):
    # the character is a blank inside line 2, so the bad read is still line 3
    text = f"replicas r1\nupdate r1 k v{blank}\nread r1 q\n"
    with pytest.raises(ScenarioError) as raised:
        parse_scenario(text)
    assert str(raised.value) == "line 3: key 'q' is never written before this line"


WRITTEN = "replicas r1 r2\nupdate r1 k v\n"


def test_numeric_digit_limit_is_the_parsers_own(int_digit_limit):
    # with int()'s own limit lifted, codec.MAX_DIGITS still bounds each number
    int_digit_limit(0)
    with pytest.raises(ScenarioError, match=r"line 1: bound has too many digits \(4301\)"):
        parse_scenario(f"bounds 1 {OVERLONG} 1 1\n")
    with pytest.raises(ScenarioError, match=r"line 3: sibling index has too many digits"):
        parse_scenario(WRITTEN + f"expect compare r1 k 0 {OVERLONG} Equal\n")
    at_limit = "9" * 4300
    bounds = parse_scenario(f"bounds 0 {at_limit} 0 {at_limit}\n").bounds
    assert bounds == PruneBounds(0, int(at_limit), 0, int(at_limit))


def test_numeric_token_over_a_lowered_int_limit_is_named(int_digit_limit):
    # a host may set int()'s limit below MAX_DIGITS; 640 is the lowest it takes
    int_digit_limit(640)
    with pytest.raises(ScenarioError, match=r"line 1: bound has too many digits \(641\)"):
        parse_scenario(f"bounds 0 {'1' * 641} 0 0\n")


@pytest.mark.parametrize(
    "script, message",
    [
        # replicas
        ("replicas r1\nreplicas r2\n", "line 2: duplicate replicas declaration"),
        ("replicas\n", "line 1: replicas needs at least one name"),
        ("replicas r1 r:1\n", "line 1: bad replica name 'r:1'"),
        ("replicas r1 r1\n", "line 1: duplicate replica name"),
        # bounds, and both _parse_nonneg messages
        ("bounds 0 1 0 0\nbounds 0 1 0 0\n", "line 2: duplicate bounds declaration"),
        ("bounds 0 1 0\n", "line 1: bounds takes small large young old"),
        ("bounds 0 x 0 0\n", "line 1: bound must be a non-negative integer, got 'x'"),
        (f"bounds {OVERLONG} 1 0 0\n", "line 1: bound has too many digits (4301)"),
        ("bounds 5 2 0 0\n", "line 1: prune bounds require small <= large, got 5 > 2"),
        # update
        ("replicas r1\nupdate r1 k\n", "line 2: update takes replica key value"),
        ("replicas r1\nupdate r2 k v\n", "line 2: unknown replica 'r2'"),
        ("replicas r1\nupdate r1 k:x v\n", "line 2: bad key token 'k:x'"),
        ("replicas r1\nupdate r1 k v\x07\n", "line 2: bad value token 'v\\x07'"),
        # sync, read, prune
        (WRITTEN + "sync r1 r2\n", "line 3: sync takes src dst key"),
        (WRITTEN + "sync r1 r1 k\n", "line 3: sync source and destination are the same"),
        (WRITTEN + "read r1 j\n", "line 3: key 'j' is never written before this line"),
        (WRITTEN + "read r1\n", "line 3: read takes replica key"),
        (WRITTEN + "prune r1 k extra\n", "line 3: prune takes replica key"),
        (WRITTEN + "prune r1 k\n", "line 3: prune used without a bounds declaration"),
        # expect
        (WRITTEN + "expect\n", "line 3: expect needs an assertion kind"),
        (WRITTEN + "expect siblings r1 k\n", "line 3: expect siblings takes replica key n"),
        (WRITTEN + "expect clock r1 k\n", "line 3: expect clock takes replica key clock-text"),
        (
            WRITTEN + "expect clock r1 k nonsense\n",
            "line 3: bad clock text: expected actor:count:timestamp, got 'nonsense'",
        ),
        (
            WRITTEN + "expect compare r1 k 0 1\n",
            "line 3: expect compare takes replica key i j ordering",
        ),
        (WRITTEN + "expect compare r1 k 0 1 Above\n", "line 3: unknown ordering token 'Above'"),
        (WRITTEN + "expect frob r1 k\n", "line 3: unknown expect kind 'frob'"),
        (WRITTEN + "frobnicate r1\n", "line 3: unknown command 'frobnicate'"),
        (WRITTEN + "expect_siblings r1 k 1\n", "line 3: unknown command 'expect_siblings'"),
        # parse_scenario takes U+FEFF as text; only load_scenario skips a file's mark
        ("\ufeffreplicas r1\n", "line 1: unknown command '\\ufeffreplicas'"),
        # which fault wins when a line has several
        ("replicas r1\nsync r1 r1 k\n", "line 2: sync source and destination are the same"),
        ("replicas r1\nsync r9 r9 k\n", "line 2: unknown replica 'r9'"),
        ("replicas r1\nupdate r9 k:x v\x07\n", "line 2: unknown replica 'r9'"),
        ("replicas r1\nupdate r1 k:x v\x07\n", "line 2: bad key token 'k:x'"),
        ("replicas r1\nprune r1 k\n", "line 2: key 'k' is never written before this line"),
        ("replicas r:1 r1 r1\n", "line 1: bad replica name 'r:1'"),
        ("bounds 0 1 0 0\nbounds x\n", "line 2: duplicate bounds declaration"),
        ("bounds 5 2 x 0\n", "line 1: bound must be a non-negative integer, got 'x'"),
        ("replicas r1\nexpect siblings\n", "line 2: expect siblings takes replica key n"),
        (
            WRITTEN + "expect siblings r1 k -1\n",
            "line 3: sibling count must be a non-negative integer, got '-1'",
        ),
        (
            WRITTEN + "expect compare r1 k x ² Above\n",
            "line 3: sibling index must be a non-negative integer, got 'x'",
        ),
        (
            WRITTEN + "expect compare r1 k 0 ² Above\n",
            "line 3: sibling index must be a non-negative integer, got '²'",
        ),
        (WRITTEN + "expect clock r9 j nonsense\n", "line 3: unknown replica 'r9'"),
        (
            WRITTEN + "expect clock r1 j nonsense\n",
            "line 3: key 'j' is never written before this line",
        ),
        # a repeated command line reuses its first parse; a declaration never does
        (
            WRITTEN + "read r1 k\nread r1 k\nreplicas r1 r2\n",
            "line 5: duplicate replicas declaration",
        ),
        (
            WRITTEN + "read r1 k\nread r1 k\nread r1 k\nread r1 j\n",
            "line 6: key 'j' is never written before this line",
        ),
    ],
)
def test_parse_error_messages(script, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(script)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text", [b"replicas r1\n", None, ["replicas r1"]], ids=["bytes", "None", "list"]
)
def test_parse_scenario_refuses_a_non_str(text):
    with pytest.raises(TypeError) as info:
        parse_scenario(text)
    assert str(info.value) == f"scenario text must be str, got {type(text).__name__}"


_GRAMMAR_WORDS = (
    "replicas bounds update sync read prune expect siblings clock compare expect_siblings "
    "r1 r2 r3 k j v # 0 1 2 ² -1 - r1:1:1 r1:1:1;r2:2:3 a:0:1 Equal Descends Dominated "
    "Concurrent Above"
).split() + [OVERLONG]
_token = st.one_of(st.sampled_from(_GRAMMAR_WORDS), st.text())
_line = st.lists(_token, max_size=8).map(" ".join)
_PREFIXES = ("", "replicas r1 r2 r3\n", "replicas r1 r2\nbounds 0 1 0 0\nupdate r1 k v\n")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PREFIXES), st.lists(_line, max_size=10).map("\n".join))
def test_parse_scenario_only_raises_scenario_error(prefix, body):
    try:
        parse_scenario(prefix + body)
    except ScenarioError:
        pass


def seeded_script(seed: int, n_commands: int = 1500) -> str:
    """A seeded 8-replica x 32-key script over every command, names recurring on many lines."""
    rng = random.Random(seed)
    replicas = [f"r{i}" for i in range(8)]
    keys = [f"key{i}" for i in range(32)]
    written: list[str] = []
    lines = ["replicas " + " ".join(replicas), "bounds 2 4 3 6"]
    for n in range(n_commands):
        replica = rng.choice(replicas)
        if not written or rng.random() < 0.3:
            key = rng.choice(keys)
            if key not in written:
                written.append(key)
            lines.append(f"update {replica} {key} v{n}")
            continue
        key = rng.choice(written)
        op = rng.choice(("sync", "sync", "read", "prune", "siblings", "clock", "compare"))
        if op == "sync":
            other = rng.choice([r for r in replicas if r != replica])
            lines.append(f"sync {replica} {other} {key}")
        elif op in ("read", "prune"):
            lines.append(f"{op} {replica} {key}")
        elif op == "siblings":
            lines.append(f"expect siblings {replica} {key} {rng.randrange(3)}")
        elif op == "clock":
            lines.append(f"expect clock {replica} {key} {replica}:{rng.randrange(1, 4)}:{n}")
        else:
            ordering = rng.choice([o.value for o in Ordering])
            lines.append(f"expect compare {replica} {key} 0 1 {ordering}")
    return "\n".join(lines) + "\n"


def _key_of(cmd: Command) -> str:
    return cmd.args[2] if cmd.op == "sync" else cmd.args[1]


def test_parsed_commands_share_one_str_per_name():
    scenario = parse_scenario(seeded_script(0))
    declared = {name: name for name in scenario.replicas}
    first_use: dict[str, str] = {}
    for cmd in scenario.commands:
        replica_args = cmd.args[:2] if cmd.op == "sync" else cmd.args[:1]
        assert all(arg is declared[arg] for arg in replica_args)
        key = _key_of(cmd)
        if key not in first_use:
            assert cmd.op == "update"
            first_use[key] = key
        assert key is first_use[key]
    names = {id(a) for cmd in scenario.commands for a in (*cmd.args[:1], _key_of(cmd))}
    assert len(scenario.commands) == 1500 and len(names) == 8 + 32


def test_parse_validates_each_declared_or_new_name_once(monkeypatch):
    # expect clock lines decode clock text, which validates that text's actors too
    script = "".join(
        line for line in seeded_script(1).splitlines(keepends=True)
        if not line.startswith("expect clock")
    )
    calls = spy(monkeypatch, [core], "is_valid_actor")
    scenario = parse_scenario(script)
    keys = {_key_of(cmd) for cmd in scenario.commands}
    assert sorted(calls) == sorted((name,) for name in [*scenario.replicas, *keys])
    assert len(calls) == 8 + 32


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repeated_lines_parse_as_the_uncached_parse(seed):
    # split() ignores runs of inner spaces, but the reuse of a repeated line's
    # parse keys on the line's text: widening line i's first separator to
    # i + 1 spaces leaves no line repeated, so every line is parsed in full
    text = seeded_script(seed)
    lines = text.splitlines()
    widened = "\n".join(line.replace(" ", " " * (i + 1), 1) for i, line in enumerate(lines, 1))
    assert len(set(widened.splitlines())) == len(lines)
    cached, uncached = parse_scenario(text), parse_scenario(widened)
    assert cached.commands == uncached.commands  # line_no, op and args
    assert len({id(cmd.args) for cmd in uncached.commands}) == len(uncached.commands)
    for collapse in (True, False):
        assert run_scenario(cached, collapse).text == run_scenario(uncached, collapse).text
    # a repeated line shares its first occurrence's args object
    first: dict[str, Command] = {}
    repeats = 0
    for cmd in cached.commands:
        seen = first.setdefault(lines[cmd.line_no - 1], cmd)
        if seen is not cmd:
            assert cmd.args is seen.args and cmd.op == seen.op
            repeats += 1
    assert repeats > 100  # 123-127 of the 1,500 command lines on seeds 0-2
    # leading and trailing blanks are stripped before the line is looked up
    padded = WRITTEN + "read r1 k\n  read r1 k\n\tread r1 k\nread r1 k \t\n"
    reads = parse_scenario(padded).commands[1:]
    assert reads == tuple(Command(n, "read", ("r1", "k")) for n in range(3, 7))
    assert all(cmd.args is reads[0].args for cmd in reads)


# sha256 of repr(scenario.commands), and of the reports, as parsed and run
# before replica and key names were shared (prune_lost_write: before a
# repeated line reused its first parse): equal strings, equal commands
_COMMANDS_SHA256 = {
    "causal_overwrite": "c95a211185e1b8c2609c35a2513b40053bed8b406295f402f7ddfb0bf2e399f3",
    "concurrent_write": "ee668dea0bcd2e973f545c67c71dffa4f4c718d5c60d1911018a21b17195435c",
    "prune_false_concurrency": "d24ab920b8b9b0122c00e73eddcef670dfedabca6ee5d1bb49672f36b8967371",
    "prune_lost_write": "35e4dc74f6b3e845fc225e07a2ad6904695b434e583a09b7310a5d735837aa23",
    "seeded": "987fa5a6de86728e4113083efc21d284f7713985cc80df31168c9899718aa62e",
}
_SEEDED_REPORT_SHA256 = {
    True: "a82108410f51e7c69bd88d1b84d2a95d92ddcabbce3bdd42b42013fc89174596",
    False: "0b389881d26f46181a38261bedb197a182d9a2eaaae530e36e132e0e57dadb96",
}


@pytest.mark.parametrize("name", sorted(_COMMANDS_SHA256))
def test_parsed_commands_are_pinned(name):
    if name == "seeded":
        text = seeded_script(0)
    else:
        text = (SCENARIOS / f"{name}.txt").read_text(encoding="utf-8")
    commands = parse_scenario(text).commands
    assert all(type(cmd) is Command for cmd in commands)
    assert hashlib.sha256(repr(commands).encode()).hexdigest() == _COMMANDS_SHA256[name]


@pytest.mark.parametrize("collapse", [True, False], ids=["collapse", "no-collapse"])
def test_seeded_script_report_is_pinned(collapse):
    text = run_scenario(parse_scenario(seeded_script(0)), collapse=collapse).text
    assert hashlib.sha256(text.encode()).hexdigest() == _SEEDED_REPORT_SHA256[collapse]


# --- update semantics -------------------------------------------------------------


def test_first_write_uses_step_as_timestamp():
    report = run_text("replicas r1\nupdate r1 k v\nexpect clock r1 k r1:1:1\n")
    assert report.ok


def test_update_supersedes_concurrent_siblings():
    text = (
        "replicas r1 r2\n"
        "update r1 k v1\n"
        "update r2 k v2\n"
        "sync r2 r1 k\n"
        "expect siblings r1 k 2\n"
        "update r1 k v3\n"
        "expect siblings r1 k 1\n"
        "expect clock r1 k r1:2:5;r2:1:2\n"
    )
    report = run_text(text)
    assert report.ok, report.text


def test_two_updates_same_replica_count_to_two():
    report = run_text("replicas r1\nupdate r1 k v1\nupdate r1 k v2\nexpect clock r1 k r1:2:2\n")
    assert report.ok


def test_no_collapse_preserves_siblings():
    text = "replicas r1\nupdate r1 k v1\nupdate r1 k v2\nexpect siblings r1 k 2\n"
    assert run_text(text, collapse=False).ok
    assert not run_text(text, collapse=True).ok


# --- sync semantics -------------------------------------------------------------


def test_sync_dominant_incoming_replaces():
    text = (
        "replicas r1 r2\n"
        "update r1 k v1\n"
        "sync r1 r2 k\n"
        "update r2 k v2\n"
        "sync r2 r1 k\n"
        "expect siblings r1 k 1\n"
    )
    report = run_text(text)
    assert report.ok
    assert report.stores["r1"]["k"] == report.stores["r2"]["k"]


def test_sync_identical_object_is_noop():
    text = (
        "replicas r1 r2\n"
        "update r1 k v1\n"
        "sync r1 r2 k\n"
        "sync r1 r2 k\n"
        "expect siblings r2 k 1\n"
    )
    assert run_text(text).ok


def test_sync_concurrent_writes_build_siblings():
    text = (
        "replicas r1 r2\n"
        "update r1 k v1\n"
        "update r2 k v2\n"
        "sync r1 r2 k\n"
        "expect siblings r2 k 2\n"
        "expect compare r2 k 0 1 Concurrent\n"
    )
    assert run_text(text).ok


def test_sync_absent_key_is_logged_noop():
    text = "replicas r1 r2\nupdate r2 k v\nsync r1 r2 k\nexpect siblings r2 k 1\n"
    report = run_text(text)
    assert report.ok
    assert any("no-op (key absent at source)" in line for line in report.lines)


# --- prune semantics -------------------------------------------------------------


def test_prune_identity_when_under_small():
    text = (
        "replicas r1\n"
        "bounds 5 10 0 100\n"
        "update r1 k v1\n"
        "prune r1 k\n"
        "expect clock r1 k r1:1:1\n"
    )
    assert run_text(text).ok


def test_prune_absent_key_is_an_assertion_failure():
    text = "replicas r1 r2\nbounds 0 0 0 0\nupdate r2 k v\nprune r1 k\n"
    report = run_text(text)
    assert not report.ok
    assert any(line.startswith("FAIL prune") for line in report.lines)


def test_aggressive_prune_empties_clocks_and_logs_removals():
    text = (
        "replicas r1\n"
        "bounds 0 0 0 0\n"
        "update r1 k v1\n"
        "prune r1 k\n"
        "expect clock r1 k -\n"
    )
    report = run_text(text)
    assert report.ok, report.text
    assert any("removed [r1]" in line for line in report.lines)


def test_prune_collapses_newly_equal_siblings():
    # both siblings prune to the empty clock; one survivor, logged
    text = (
        "replicas r1 r2\n"
        "bounds 0 0 0 0\n"
        "update r1 k v1\n"
        "update r2 k v2\n"
        "sync r2 r1 k\n"
        "prune r1 k\n"
        "expect siblings r1 k 1\n"
    )
    report = run_text(text)
    assert report.ok, report.text
    assert any("collapsed 1 sibling(s)" in line for line in report.lines)


def test_prune_false_concurrency_demo():
    text = (
        "replicas r1 r2\n"
        "bounds 1 1 0 0\n"
        "update r1 k v1\n"
        "sync r1 r2 k\n"
        "update r2 k v2\n"
        "prune r2 k\n"
        "sync r2 r1 k\n"
        "expect siblings r1 k 2\n"
        "expect compare r1 k 0 1 Concurrent\n"
    )
    assert run_text(text).ok


# --- sibling integration ----------------------------------------------------------


def test_integrate_keeps_pairwise_concurrency():
    rng = random.Random(13)
    actors = "abcde"
    for _ in range(200):
        versions = []
        for i in range(rng.randint(0, 6)):
            entries = [
                (actor, rng.randint(1, 4), rng.randint(0, 9))
                for actor in actors
                if rng.random() < 0.5
            ]
            versions.append(Sibling(f"v{i}", VClock(entries)))
        result = integrate_siblings([], versions)
        assert siblings_pairwise_concurrent(result)
        # every input version is covered by some survivor
        for sib in versions:
            assert any(descends(out.clock, sib.clock) for out in result)


def test_siblings_pairwise_concurrent_rejects_an_ordered_pair():
    old, new = Sibling("x", vc(("a", 1, 5))), Sibling("y", vc(("a", 2, 6)))
    concurrent = Sibling("z", vc(("b", 1, 7)))
    assert siblings_pairwise_concurrent([old, concurrent])
    assert not siblings_pairwise_concurrent([new, old])
    assert not siblings_pairwise_concurrent([old, concurrent, new])


def test_integrate_drops_equal_incoming():
    a = Sibling("x", vc(("a", 1, 5)))
    b = Sibling("y", vc(("a", 1, 9)))  # same counts, different timestamp
    assert integrate_siblings([a], [b]) == [a]


def two_pass_integrate(existing, incoming):
    """The sibling rule in two scans: a coverage test, then a removal pass."""
    result = list(existing)
    for sib in incoming:
        covering = (Ordering.EQUAL, Ordering.DESCENDS)
        if any(compare(cur.clock, sib.clock) in covering for cur in result):
            continue
        result = [cur for cur in result if compare(sib.clock, cur.clock) is not Ordering.DESCENDS]
        result.append(sib)
    return sorted(result, key=lambda s: (canonical_text(s.clock), s.value))


# few actors and small counts, so equal counts, dominance and concurrency all
# occur, and stored lists are often not pairwise concurrent
_small_clocks = st.dictionaries(
    st.sampled_from("abc"), st.tuples(st.integers(1, 3), st.integers(0, 2)), max_size=3
).map(lambda d: VClock((actor, c, t) for actor, (c, t) in d.items()))
_sibling_lists = st.lists(st.builds(Sibling, st.sampled_from("xyz"), _small_clocks), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_sibling_lists, _sibling_lists)
def test_integrate_equals_the_two_pass_rule(existing, incoming):
    assert integrate_siblings(existing, incoming) == two_pass_integrate(existing, incoming)


def test_integrate_compares_each_stored_incoming_pair_once(monkeypatch):
    calls = spy(monkeypatch, [core], "compare")
    x, y, z = (Sibling(v, vc((a, 2, 0))) for v, a in (("x", "a"), ("y", "b"), ("z", "c")))
    joins = Sibling("u", vc(("d", 1, 0)))  # concurrent with x, y and z
    dominates = Sibling("w", vc(("a", 3, 0), ("b", 2, 0)))  # replaces x and y
    covered = Sibling("v", vc(("c", 1, 0)))  # z descends it
    result = integrate_siblings([x, y, z], [joins, dominates, covered])
    assert result == two_pass_integrate([x, y, z], [joins, dominates, covered])
    assert result == [dominates, z, joins]
    # 3 pairs for u, 4 for w against [x, y, z, u], 1 for v against z
    compared = [tuple(sorted(map(canonical_text, pair))) for pair in calls]
    assert len(compared) == 8
    assert len(set(compared)) == len(compared)


# --- prune reference --------------------------------------------------------------


def test_prune_reference_matches_core_on_random_cases():
    rng = random.Random(4)
    for _ in range(500):
        entries = [
            (f"n{i}", rng.randint(1, 5), rng.randint(0, 100))
            for i in range(rng.randint(0, 10))
        ]
        v = VClock(entries)
        small = rng.randint(0, 5)
        young = rng.randint(0, 40)
        bounds = PruneBounds(
            small=small,
            large=small + rng.randint(0, 5),
            young=young,
            old=young + rng.randint(0, 50),
        )
        now = rng.randint(0, 120)
        assert prune_reference(v, now, bounds) == prune(v, now, bounds)


# --- whole-run properties ----------------------------------------------------------


@st.composite
def _simulated_scripts(draw):
    """A script of update, sync, read and prune under drawn bounds, as vcbench/gen.py writes.

    sync, read and prune name only a key the replica holds (it wrote it or
    received it by sync): reference.simulate raises KeyError on a prune of any
    other key, where run_scenario reports a FAIL line.
    """
    names = [f"r{i}" for i in range(draw(st.integers(2, 3), label="replicas"))]
    keys = ["k0", "k1"][: draw(st.integers(1, 2), label="keys")]
    small, young = draw(st.integers(0, 3)), draw(st.integers(0, 30))
    large, old = small + draw(st.integers(0, 3)), young + draw(st.integers(0, 30))
    lines = [f"replicas {' '.join(names)}", f"bounds {small} {large} {young} {old}"]
    held: dict[str, list[str]] = {name: [] for name in names}
    for n in range(draw(st.integers(0, 60), label="commands")):
        replica = draw(st.sampled_from(names))
        op = draw(st.sampled_from(("update", "sync", "read", "prune")))
        if op == "update" or not held[replica]:
            key = draw(st.sampled_from(keys))
            lines.append(f"update {replica} {key} v{n}")
            holder = replica
        elif op == "sync":
            key = draw(st.sampled_from(held[replica]))
            holder = draw(st.sampled_from([r for r in names if r != replica]))
            lines.append(f"sync {replica} {holder} {key}")
        else:
            lines.append(f"{op} {replica} {draw(st.sampled_from(held[replica]))}")
            continue
        if key not in held[holder]:
            held[holder].append(key)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_simulated_scripts())
def test_whole_runs_match_the_dict_simulator(script):
    assert run_text(script).stores == reference.simulate(script)


def test_report_is_deterministic():
    text = (
        "replicas r1 r2 r3\n"
        "update r1 k1 v1\n"
        "update r2 k1 v2\n"
        "update r3 k2 v3\n"
        "sync r1 r2 k1\n"
        "sync r3 r1 k2\n"
        "read r2 k1\n"
        "expect siblings r2 k1 2\n"
    )
    assert run_text(text).text == run_text(text).text


def test_full_sync_round_converges_in_any_order():
    base = (
        "replicas r1 r2 r3\n"
        "update r1 k1 v1\n"
        "update r2 k1 v2\n"
        "update r3 k1 v3\n"
        "update r2 k2 w1\n"
        "update r3 k2 w2\n"
        "sync r1 r2 k1\n"
        "update r2 k1 v4\n"
    )
    pairs = [
        (src, dst)
        for src in ("r1", "r2", "r3")
        for dst in ("r1", "r2", "r3")
        if src != dst
    ]
    rng = random.Random(21)
    for _ in range(6):
        order = pairs[:]
        rng.shuffle(order)
        suffix = "".join(f"sync {s} {d} k1\nsync {s} {d} k2\n" for s, d in order)
        report = run_text(base + suffix)
        assert report.ok
        assert report.stores["r1"] == report.stores["r2"] == report.stores["r3"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_sync_round_converges_in_any_drawn_order(data):
    names = [f"r{i}" for i in range(data.draw(st.integers(2, 4), label="replicas"))]
    replica = st.sampled_from(names)
    key = st.sampled_from(["k0", "k1"])
    lines = [f"replicas {' '.join(names)}"]
    written: list[str] = []
    for i in range(data.draw(st.integers(0, 16), label="prefix length")):
        src, dst, k = data.draw(st.tuples(replica, replica, key))
        if k in written and src != dst and data.draw(st.booleans(), label="sync"):
            lines.append(f"sync {src} {dst} {k}")
        else:
            lines.append(f"update {src} {k} v{i}")
            written.append(k)
    syncs = [(s, d, k) for s in names for d in names if s != d for k in sorted(set(written))]
    for src, dst, k in data.draw(st.permutations(syncs), label="round"):
        lines.append(f"sync {src} {dst} {k}")
    report = run_text("\n".join(lines) + "\n")
    assert report.ok
    first = report.stores[names[0]]
    assert sorted(first) == sorted(set(written))
    for name in names[1:]:
        assert report.stores[name] == first
    for rendered in first.values():
        clocks = [decode(text.split("@", 1)[1]) for text in rendered]
        assert siblings_pairwise_concurrent(Sibling("", clock) for clock in clocks)


def test_stored_clocks_match_oracle_replay_without_prune():
    from vclock.oracle import build_history

    # update r1, sync to r2, update r2: the same event structure as
    # history [(r1, local), (r2, receive e0)]
    text = "replicas r1 r2\nupdate r1 k v1\nsync r1 r2 k\nupdate r2 k v2\n"
    report = run_text(text)
    stored = report.stores["r2"]["k"][0]
    clock_text = stored.split("@", 1)[1]
    h = build_history((("r1", None), ("r2", 0)))
    assert equal(decode(clock_text), h.events[1].clock)


def test_command_keeps_its_fields_and_is_immutable():
    cmd = parse_scenario("replicas r1\nupdate r1 k v\n").commands[0]
    assert Command._fields == ("line_no", "op", "args")
    assert cmd == Command(line_no=2, op="update", args=("r1", "k", "v"))
    with pytest.raises(AttributeError):
        cmd.op = "read"


def test_values_with_punctuation_survive():
    report = run_text("replicas r1\nupdate r1 k a=b:c\nread r1 k\n")
    assert any("a=b:c@" in line for line in report.lines)


def test_expect_compare_out_of_range_fails_cleanly():
    text = "replicas r1\nupdate r1 k v\nexpect compare r1 k 0 1 Equal\n"
    report = run_text(text)
    assert not report.ok
    assert any("only 1 sibling(s)" in line for line in report.lines)


def test_sibling_order_is_canonical_in_reports():
    # siblings sort by clock text, then value, so reports are stable
    text = (
        "replicas r1 r2\n"
        "update r2 k v2\n"
        "update r1 k v1\n"
        "sync r2 r1 k\n"
        "read r1 k\n"
    )
    report = run_text(text)
    read_line = next(line for line in report.lines if line.startswith("read"))
    assert read_line.index("v1@") < read_line.index("v2@")


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SHIPPED_SCENARIOS = sorted(p.stem for p in SCENARIOS.glob("*.txt"))


def test_goldens_pair_with_scenarios():
    # each shipped scenario has both reports, and each report names a scenario
    want = {f"{name}{suffix}.txt" for name in SHIPPED_SCENARIOS for suffix in ("", ".no-collapse")}
    have = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert sorted(want - have) == [], "scenarios without a golden report"
    assert sorted(have - want) == [], "golden reports without a scenario"


@pytest.mark.parametrize("collapse", [True, False], ids=["collapse", "no-collapse"])
@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_shipped_scenario_reports_match_golden(name, collapse):
    suffix = "" if collapse else ".no-collapse"
    golden = (GOLDEN_DIR / f"{name}{suffix}.txt").read_text(encoding="utf-8")
    scenario = load_scenario(str(SCENARIOS / f"{name}.txt"))
    assert run_scenario(scenario, collapse=collapse).text == golden


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_shipped_scenarios_read_the_same_with_crlf_and_cr_endings(name, ending, tmp_path):
    data = (SCENARIOS / f"{name}.txt").read_bytes()
    path = tmp_path / f"{name}.txt"
    path.write_bytes(data.replace(b"\n", ending.encode()))
    scenario = load_scenario(str(path))
    for collapse, suffix in ((True, ""), (False, ".no-collapse")):
        golden = (GOLDEN_DIR / f"{name}{suffix}.txt").read_text(encoding="utf-8")
        assert run_scenario(scenario, collapse=collapse).text == golden


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_shipped_scenarios_read_the_same_after_a_byte_order_mark(name, tmp_path):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(codecs.BOM_UTF8 + (SCENARIOS / f"{name}.txt").read_bytes())
    scenario = load_scenario(str(path))
    for collapse, suffix in ((True, ""), (False, ".no-collapse")):
        golden = (GOLDEN_DIR / f"{name}{suffix}.txt").read_text(encoding="utf-8")
        assert run_scenario(scenario, collapse=collapse).text == golden


def test_a_bad_byte_after_a_byte_order_mark_is_named_at_its_file_offset(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"replicas r1\nupdate r1 k \xff\n")
    with pytest.raises(ScenarioError) as info:
        load_scenario(str(path))
    assert str(info.value) == "not UTF-8 at byte offset 27: invalid start byte"
