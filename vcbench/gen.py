"""Seeded input generators for the workloads that take generated inputs.

Every function here is a pure function of its seed: the same seed gives the
same script or request pool, byte for byte. Nothing here imports vclock;
expected results come from the dict-based reference.
"""

from __future__ import annotations

import random

import reference

# --- replica-sim ----------------------------------------------------------

REPLICAS = 8
KEYS = 32
SCRIPT_COMMANDS = 40_000
# logical time is the command ordinal, so these are in commands
SCRIPT_BOUNDS = (2, 6, 200, 2000)


def replica_script(seed: int) -> str:
    """An N-replica x K-key scenario mixing update, sync, read and prune.

    sync, read and prune only name a key the replica already holds (it wrote
    it or received it by sync), so no command is a no-op or a FAIL line.
    """
    rng = random.Random(seed)
    names = [f"r{i}" for i in range(REPLICAS)]
    keys = [f"k{i:02d}" for i in range(KEYS)]
    held: list[list[str]] = [[] for _ in names]
    held_sets: list[set[str]] = [set() for _ in names]

    def hold(replica: int, key: str) -> None:
        if key not in held_sets[replica]:
            held_sets[replica].add(key)
            held[replica].append(key)

    lines = [
        f"# replica-sim: {REPLICAS} replicas x {KEYS} keys, {SCRIPT_COMMANDS} commands, seed {seed}",
        "replicas " + " ".join(names),
        "bounds " + " ".join(str(b) for b in SCRIPT_BOUNDS),
    ]
    for n in range(SCRIPT_COMMANDS):
        i = rng.randrange(REPLICAS)
        roll = rng.random()
        if roll < 0.40 or not held[i]:
            key = rng.choice(keys)
            lines.append(f"update {names[i]} {key} v{n}")
            hold(i, key)
        elif roll < 0.75:
            key = rng.choice(held[i])
            dst = rng.randrange(REPLICAS - 1)
            dst += dst >= i
            lines.append(f"sync {names[i]} {names[dst]} {key}")
            hold(dst, key)
        elif roll < 0.90:
            lines.append(f"read {names[i]} {rng.choice(held[i])}")
        else:
            lines.append(f"prune {names[i]} {rng.choice(held[i])}")
    return "\n".join(lines) + "\n"


# --- wire-ops -------------------------------------------------------------

WIRE_ACTORS = 16
WIRE_BLOCK = 64
WIRE_BLOCKS = 64
WIRE_BASE_TS = 1_700_000_000
WIRE_TS_SPAN = 1_000_000
# small, large, young, old in seconds of wire timestamp
WIRE_PRUNE_BOUNDS = (4, 10, 100_000, 500_000)
OPS = (("compare", 0.30), ("descends", 0.15), ("equal", 0.10), ("merge", 0.30), ("prune", 0.15))

# One request per kind in every block of WIRE_BLOCK carries a malformed text.
# "!" + class name is the expected DecodeError subclass; "!*" accepts any
# DecodeError subclass (no dedicated class exists for over-long digits).
MALFORMED = (
    ("malformed_entry", "!MalformedEntryError"),
    ("numeric_field", "!NumericFieldError"),
    ("count_range", "!CountRangeError"),
    ("actor_token", "!ActorTokenError"),
    ("duplicate_actor", "!DuplicateActorError"),
    ("overlong_digits", "!*"),
)
# one past CPython's default int-string conversion limit
OVERLONG_DIGITS = 4301


def _universe(rng: random.Random) -> list[str]:
    actors: set[str] = set()
    while len(actors) < WIRE_ACTORS:
        actors.add("n" + "".join(rng.choice("0123456789abcdef") for _ in range(7)))
    return sorted(actors)


def _clock(rng: random.Random, universe: list[str]) -> dict:
    size = rng.randint(1, WIRE_ACTORS)
    return {
        a: (rng.randint(1, 1000), WIRE_BASE_TS + rng.randrange(WIRE_TS_SPAN))
        for a in rng.sample(universe, size)
    }


def _related(rng: random.Random, a: dict, universe: list[str]) -> dict:
    """A second clock that is, in turn, ahead of, behind, equal to or unrelated to a."""
    roll = rng.random()
    if roll < 0.25:
        b = dict(a)
        for actor in rng.sample(universe, rng.randint(1, 3)):
            count, _ = b.get(actor, (0, 0))
            b[actor] = (count + rng.randint(1, 5), WIRE_BASE_TS + rng.randrange(WIRE_TS_SPAN))
        return b
    if roll < 0.45:
        keep = rng.sample(sorted(a), rng.randint(0, len(a)))
        return {x: (rng.randint(1, a[x][0]), a[x][1]) for x in keep}
    if roll < 0.55:
        return {x: (c, WIRE_BASE_TS + rng.randrange(WIRE_TS_SPAN)) for x, (c, _) in a.items()}
    return _clock(rng, universe)


def _text(rng: random.Random, clock: dict) -> str:
    """Wire text; one in four has its entries out of canonical order."""
    if not clock:
        return "-"
    entries = [f"{a}:{c}:{t}" for a, (c, t) in sorted(clock.items())]
    if rng.random() < 0.25:
        rng.shuffle(entries)
    return ";".join(entries)


def _corrupt(rng: random.Random, kind: str, clock: dict) -> str:
    entries = [[a, str(c), str(t)] for a, (c, t) in sorted(clock.items())]
    victim = entries[rng.randrange(len(entries))]
    if kind == "malformed_entry":
        del victim[2]
    elif kind == "numeric_field":
        victim[1] = victim[1] + "x"
    elif kind == "count_range":
        victim[1] = "0"
    elif kind == "actor_token":
        victim[0] = victim[0][:3] + " " + victim[0][3:]
    elif kind == "duplicate_actor":
        entries.append([victim[0], str(int(victim[1]) + 1), victim[2]])
    elif kind == "overlong_digits":
        victim[1] = "1" + "0" * (OVERLONG_DIGITS - 1)
    else:
        raise ValueError(kind)
    return ";".join(":".join(e) for e in entries)


def _expected(op: str, a: dict, b: dict, now: int) -> str:
    if op == "compare":
        return reference.compare(a, b)
    if op == "descends":
        return "true" if reference.covers(a, b) else "false"
    if op == "equal":
        return "true" if reference.covers(a, b) and reference.covers(b, a) else "false"
    merged = reference.merge(a, b)
    if op == "merge":
        return reference.encode(merged)
    return reference.encode(reference.prune(merged, now, *WIRE_PRUNE_BOUNDS))


def wire_pool(seed: int) -> list[list]:
    """WIRE_BLOCKS x WIRE_BLOCK requests: [op, text_a, text_b, now, expected].

    prune requests merge both clocks, then prune the result at `now`; every
    other op applies to (a, b) directly. `expected` is the reference result
    text, or the expected error as described at MALFORMED.
    """
    rng = random.Random(seed)
    universe = _universe(rng)
    ops = [op for op, _ in OPS]
    weights = [w for _, w in OPS]
    pool = []
    for _ in range(WIRE_BLOCKS):
        bad = dict(zip(rng.sample(range(WIRE_BLOCK), len(MALFORMED)), MALFORMED))
        for slot in range(WIRE_BLOCK):
            op = rng.choices(ops, weights)[0]
            a = _clock(rng, universe)
            b = _related(rng, a, universe)
            now = WIRE_BASE_TS + WIRE_TS_SPAN + rng.randrange(WIRE_TS_SPAN // 10)
            text_a, text_b = _text(rng, a), _text(rng, b)
            if slot in bad:
                kind, expected = bad[slot]
                if rng.random() < 0.5 or not b:
                    text_a = _corrupt(rng, kind, a)
                else:
                    text_b = _corrupt(rng, kind, b)
            else:
                expected = _expected(op, a, b, now)
            pool.append([op, text_a, text_b, now, expected])
    return pool
