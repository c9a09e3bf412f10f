"""Command-line front end.

Subcommands: clock (pointwise algebra on canonical clock texts), run
(scenario execution), check (graph-vs-clock equivalence), peano-bench
(unary numeral cost table). Exit status: 0 success, 1 assertion or
equivalence failure, 2 usage or parse error. Clocks cross this boundary
only as canonical text; booleans print as lowercase true/false.

Only ``core`` is imported with this module. Each subcommand imports what it
runs when it runs: ``clock`` and ``peano-bench`` the codec, ``run`` the
simulator (which loads the codec), ``check`` the oracle.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    MAX_DIGITS,
    EncodeError,
    FixedClock,
    PruneBounds,
    VClock,
    compare,
    descends,
    increment,
    merge,
    prune,
)

# an early-2014 UNIX timestamp: the standing example of a value whose unary
# encoding is hopeless at full scale
BENCH_TIMESTAMP = 1_390_525_760

_BENCH_GRID = [10**k for k in range(2, 8)]


class _UsageError(Exception):
    """A rejected input: main prints it as one `error: ` line and returns 2."""


def _int_arg(text: str) -> int:
    """argparse type of every integer option: int(), refusing over MAX_DIGITS digits.

    Digits are counted as int() counts them, so under the interpreter's
    default limit every text is accepted or refused with the same message.
    """
    try:
        if sum(map(str.isdecimal, text)) > MAX_DIGITS:
            raise ValueError
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _decode_arg(name: str, text: str) -> VClock:
    from . import codec  # imported on use, so `vclock check` does not compile it

    try:
        return codec.decode(text)
    except codec.DecodeError as exc:
        raise _UsageError(f"argument {name}: {exc}") from exc


def _encode(v: VClock) -> str:
    from . import codec

    return codec.encode(v)


# name -> (help text, result line) of each two-clock operation
_PAIR_OPS = {
    "compare": ("four-way comparison", lambda a, b: compare(a, b).value),
    "merge": ("per-actor maximum", lambda a, b: _encode(merge(a, b))),
    "descends": ("left covers right?", lambda a, b: "true" if descends(a, b) else "false"),
}


def _cmd_pair(args: argparse.Namespace) -> int:
    left = _decode_arg("left", args.left)
    right = _decode_arg("right", args.right)
    print(_PAIR_OPS[args.clock_op][1](left, right))
    return 0


def _cmd_increment(args: argparse.Namespace) -> int:
    v = _decode_arg("clock", args.clock)
    try:
        result = increment(args.actor, v, FixedClock(args.at))
    except ValueError as exc:
        raise _UsageError(f"argument actor/--at: {exc}") from exc
    print(_encode(result))
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    v = _decode_arg("clock", args.clock)
    try:
        bounds = PruneBounds(args.small, args.large, args.young, args.old)
    except ValueError as exc:
        raise _UsageError(f"argument --small/--large/--young/--old: {exc}") from exc
    if args.now < 0:
        raise _UsageError("argument --now: must be >= 0")
    print(_encode(prune(v, args.now, bounds)))
    return 0


def run_scenario(scenario, collapse=True):
    """simulator.run_scenario, called by `vclock run` through this module's name.

    A tracer wraps every `vclock run` by patching this one name on the module.
    """
    from . import simulator

    return simulator.run_scenario(scenario, collapse=collapse)


def _cmd_run(args: argparse.Namespace) -> int:
    from .simulator import ScenarioError, load_scenario  # imported on use, as the oracle is

    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise _UsageError(f"cannot read scenario: {exc}") from exc
    except ScenarioError as exc:
        raise _UsageError(exc) from exc
    report = run_scenario(scenario, collapse=not args.no_collapse)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.text)
        except OSError as exc:
            raise _UsageError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(report.text)
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from . import oracle  # imported on use, so `vclock run` does not compile it

    rendered: list[str] = []
    checked = 0
    try:
        # each mode gives (history, violations) pairs, and a note that heads
        # a violating history's lines, made from its index and the history
        if args.exhaustive is not None:
            checks = oracle.check_enumerated(*args.exhaustive)
            note = "# history #{} over {.actors}".format
        else:
            seeds, events, actors = args.random
            if seeds < 1:
                raise _UsageError("need at least one seed")
            histories = (oracle.random_history(seed, events, actors) for seed in range(seeds))
            checks = ((history, oracle.check_equivalence(history)) for history in histories)
            note = "# seed {}".format  # the index is the seed
        for history, violations in checks:
            if violations:
                print(note(checked, history), file=sys.stderr)
                rendered.extend(v.render() for v in violations)
            checked += 1
    except ValueError as exc:  # includes oracle.EnumerationBudgetError
        raise _UsageError(exc) from exc
    for line in sorted(rendered):
        print(line)
    print(f"checked {checked} histories: {len(rendered)} violation line(s)", file=sys.stderr)
    return 0 if not rendered else 1


def _best_micros(fn) -> float:
    import timeit  # imported on use, so `import vclock.cli` does not pay for it

    # timeit switches the collector off; "gc.enable()" times fn with it on
    return min(timeit.repeat(fn, "gc.enable()", repeat=3, number=1)) * 1e6


def _cmd_peano_bench(args: argparse.Namespace) -> int:
    from . import codec

    max_n = args.max_n
    if max_n < 0 or max_n > codec.MATERIALIZATION_LIMIT:
        raise _UsageError(f"max_n must be between 0 and {codec.MATERIALIZATION_LIMIT}")
    print("n,nodes,encode_micros,decode_micros")
    for n in _BENCH_GRID:
        if n > max_n:
            break
        numeral = codec.natural_to_peano(n)
        enc = _best_micros(lambda: codec.natural_to_peano(n))
        dec = _best_micros(lambda: codec.peano_to_natural(numeral))
        print(f"{n},{codec.peano_cost(n)},{enc:.1f},{dec:.1f}")
        del numeral
    nodes = codec.peano_cost(BENCH_TIMESTAMP)
    per_node = sys.getsizeof(codec.Successor(codec.ZERO))
    floor_gib = nodes / 2**30
    est_gib = nodes * per_node / 2**30
    print(
        f"extrapolation: encoding {BENCH_TIMESTAMP} requires {nodes} nodes; "
        f">= {floor_gib:.1f} GiB at 1 byte/node; "
        f"~{est_gib:.1f} GiB at the measured {per_node} bytes/node"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vclock",
        description="Vector clock algebra, scenario runner, causality checker, numeral benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    clock = sub.add_parser("clock", help="operations on canonical clock texts")
    clock_sub = clock.add_subparsers(dest="clock_op", required=True)
    for name, (help_text, _) in _PAIR_OPS.items():
        p = clock_sub.add_parser(name, help=help_text)
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(func=_cmd_pair)
    p = clock_sub.add_parser("increment", help="advance one actor")
    p.add_argument("actor")
    p.add_argument("clock")
    p.add_argument(
        "--at", type=_int_arg, required=True, help="timestamp for the new entry"
    )
    p.set_defaults(func=_cmd_increment)
    p = clock_sub.add_parser("prune", help="apply the size/age pruning rule")
    p.add_argument("clock")
    for name in ("now", "small", "large", "young", "old"):
        p.add_argument(f"--{name}", type=_int_arg, required=True)
    p.set_defaults(func=_cmd_prune)

    run = sub.add_parser("run", help="execute a scenario script")
    run.add_argument("scenario", help="path to the scenario file")
    run.add_argument("--no-collapse", action="store_true", help="keep superseded siblings on update")
    run.add_argument("--report", help="write the run report to this path instead of stdout")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="verify clock order against graph causality")
    mode = check.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--exhaustive",
        nargs=2,
        type=_int_arg,
        metavar=("EVENTS", "ACTORS"),
        help="enumerate every history within the bounds",
    )
    mode.add_argument(
        "--random",
        nargs=3,
        type=_int_arg,
        metavar=("SEEDS", "EVENTS", "ACTORS"),
        help="check seeded random histories for seeds 0..SEEDS-1",
    )
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("peano-bench", help="unary numeral encode/decode cost table")
    bench.add_argument("max_n", type=_int_arg, help="largest grid point to materialize")
    bench.set_defaults(func=_cmd_peano_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    # an EncodeError is an input clock whose result the wire cannot carry
    except (_UsageError, EncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
