"""Dict-based reference clock operations, independent of the library.

A clock is a dict mapping actor -> (count, timestamp). Nothing here imports
vclock, so results computed with it can judge the library's kernels, codec
and core operations without sharing a code path with them.
"""

from __future__ import annotations


def parse(text: str) -> dict[str, tuple[int, int]]:
    """Parse well-formed wire text ('-' or 'actor:count:timestamp;...')."""
    if text == "-":
        return {}
    out = {}
    for field in text.split(";"):
        actor, count, timestamp = field.split(":")
        out[actor] = (int(count), int(timestamp))
    return out


def encode(clock: dict[str, tuple[int, int]]) -> str:
    if not clock:
        return "-"
    return ";".join(f"{a}:{c}:{t}" for a, (c, t) in sorted(clock.items()))


def covers(a: dict, b: dict) -> bool:
    """Every actor's count in b is at most its count in a (absent = 0)."""
    return all(a.get(actor, (0, 0))[0] >= count for actor, (count, _) in b.items())


def compare(a: dict, b: dict) -> str:
    ge = covers(a, b)
    le = covers(b, a)
    if ge and le:
        return "Equal"
    if ge:
        return "Descends"
    if le:
        return "Dominated"
    return "Concurrent"


def merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for actor, (count, timestamp) in b.items():
        if actor in out:
            c, t = out[actor]
            out[actor] = (max(c, count), max(t, timestamp))
        else:
            out[actor] = (count, timestamp)
    return out


def prune(clock: dict, now: int, small: int, large: int, young: int, old: int) -> dict:
    """The size/age rule, applied literally: drop the oldest entry while allowed."""
    out = dict(clock)
    while len(out) > small:
        actor = min(out, key=lambda a: (out[a][1], a))
        timestamp = out[actor][1]
        if not ((len(out) > large or timestamp < now - old) and timestamp < now - young):
            break
        del out[actor]
    return out


def entries_to_dict(entries) -> dict:
    """Kernel entry tuples ((actor, count, timestamp), ...) -> reference clock."""
    return {actor: (count, timestamp) for actor, count, timestamp in entries}


def dict_to_entries(clock: dict) -> tuple:
    return tuple((a, c, t) for a, (c, t) in sorted(clock.items()))


def simulate(script: str) -> dict[str, dict[str, tuple[str, ...]]]:
    """Final stores of a generated replica-sim script, in RunReport.stores form.

    Covers the commands the generator emits (replicas, bounds, update, sync,
    read, prune) with the simulator's documented semantics: logical time is
    the command ordinal, an update supersedes every sibling it saw, and sync
    and prune fold versions in under clock dominance.
    """
    stores: dict[str, dict[str, list[tuple[str, dict]]]] = {}
    bounds = None
    step = 0
    for line in script.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        op, args = tokens[0], tokens[1:]
        if op == "replicas":
            stores = {name: {} for name in args}
            continue
        if op == "bounds":
            bounds = [int(b) for b in args]
            continue
        step += 1
        if op == "update":
            replica, key, value = args
            base: dict = {}
            for _, clock in stores[replica].get(key, []):
                base = merge(base, clock)
            count = base.get(replica, (0, 0))[0]
            stores[replica][key] = [(value, {**base, replica: (count + 1, step)})]
        elif op == "sync":
            src, dst, key = args
            if key in stores[src]:
                stores[dst][key] = _integrate(stores[dst].get(key, []), stores[src][key])
        elif op == "prune":
            replica, key = args
            resolved: list = []
            for value, clock in stores[replica][key]:
                resolved = _integrate(resolved, [(value, prune(clock, step, *bounds))])
            stores[replica][key] = resolved
    return {
        name: {key: tuple(f"{v}@{encode(c)}" for v, c in sibs) for key, sibs in keys.items()}
        for name, keys in stores.items()
    }


def _integrate(existing: list, incoming: list) -> list:
    result = list(existing)
    for value, clock in incoming:
        if any(compare(cur, clock) in ("Equal", "Descends") for _, cur in result):
            continue
        result = [(v, c) for v, c in result if compare(clock, c) != "Descends"]
        result.append((value, clock))
    result.sort(key=lambda sib: (encode(sib[1]), sib[0]))
    return result
