"""Vector clock values and their operations.

A vector clock is an immutable, canonically ordered collection of
(actor, count, timestamp) entries. Counts order events causally; timestamps
exist only to drive pruning and never affect comparison. All operations are
pure functions; the single effectful dependency, the time source, is
injected as a :class:`ClockSource`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Protocol

# core reads each kernel off the module when called, so patching it reaches every caller
from . import _kernels_py as kernels
from ._kernels_py import ClockEntry, _new_tuple

__all__ = [
    "ClockEntry",
    "ClockSource",
    "EncodeError",
    "FixedClock",
    "InvalidActorError",
    "Ordering",
    "PruneBounds",
    "StepClock",
    "SystemClock",
    "VClock",
    "all_nodes",
    "canonical_text",
    "compare",
    "descends",
    "equal",
    "fresh",
    "get_counter",
    "get_timestamp",
    "increment",
    "is_valid_actor",
    "merge",
    "prune",
]


class InvalidActorError(ValueError):
    """Actor token is empty or contains whitespace, ':', ';' or unprintables."""


class EncodeError(ValueError):
    """A clock holds a count or timestamp that its wire text cannot carry."""


# most digits a count, timestamp or scenario number may have: CPython's
# default int() limit, held here so no interpreter setting can move it
MAX_DIGITS = 4300
# the least number with more than MAX_DIGITS digits
_TOO_MANY_DIGITS = 10**MAX_DIGITS


class Ordering(Enum):
    """Four-way result of comparing two clocks.

    DESCENDS means the left clock strictly dominates the right one;
    DOMINATED is the mirror image; CONCURRENT means neither covers the other.
    """

    EQUAL = "Equal"
    DESCENDS = "Descends"
    DOMINATED = "Dominated"
    CONCURRENT = "Concurrent"


# kernel result code -> Ordering, index-aligned with the kernel constants
_ORDERINGS = (Ordering.EQUAL, Ordering.DESCENDS, Ordering.DOMINATED, Ordering.CONCURRENT)


# is_valid_actor's memo: exact-str tokens it has accepted. Bounded by these
# constants: a longer token is never remembered, and a token that takes the
# set past _ACCEPTED_MAX empties it.
_ACCEPTED_MAX = 1024
_ACCEPTED_MAX_LEN = 64
_accepted: set[str] = set()


def is_valid_actor(token: str) -> bool:
    """Check the actor lexical rule: non-empty, printable, no whitespace/':'/';'.

    Actors repeat (a cluster's few replica ids), so accepted tokens are
    remembered: a token whose type is exactly str and that was accepted
    before costs one set lookup. A str subclass, a non-str, or an unseen or
    rejected token takes the full rule, and only an accepted exact str joins
    the memo. The memo holds at most _ACCEPTED_MAX tokens of at most
    _ACCEPTED_MAX_LEN characters, and is cleared when full. Every answer is
    as without the memo, and callers still call through this module global,
    so a wrapper installed there counts the same calls.
    """
    exact = type(token) is str
    if exact and token in _accepted:
        return True
    # ' ' is the one whitespace character that str.isprintable() accepts
    if not (
        isinstance(token, str)
        and token.isprintable()
        and token != ""
        and " " not in token
        and ":" not in token
        and ";" not in token
    ):
        return False
    if exact and len(token) <= _ACCEPTED_MAX_LEN:
        _accepted.add(token)
        # tested after the add, so that the bound holds whenever no call is
        # in progress, even when threads add at once
        if len(_accepted) > _ACCEPTED_MAX:
            _accepted.clear()
    return True


_actor_of = itemgetter(0)
_age_of = itemgetter(2, 0)  # (timestamp, actor): prune's oldest-first order


def _malformed_entry(entry: object) -> Exception:
    # VClock's error path for an entry that is not a sequence of three: a
    # tuple or list of another length and a non-iterable are named by the
    # error their unpacking raises; anything else (a str, bytes, dict, set,
    # range of another length, iterator, ...) is named by its type
    try:
        _, _, _ = entry  # type: ignore[misc]
    except TypeError as exc:
        return TypeError(f"{exc}: entry {entry!r}")
    except ValueError as exc:
        if isinstance(entry, (tuple, list)):
            return ValueError(f"{exc}: entry {entry!r}")
    kind = type(entry).__name__
    return ValueError(f"a {kind} is not an (actor, count, timestamp) triple: entry {entry!r}")


def _bad_number(count: object, timestamp: object) -> ValueError:
    # VClock's error for an entry whose count or timestamp fails: the count
    # is named first
    if not isinstance(count, int) or count < 1:
        return ValueError(f"entry count must be an integer >= 1, got {count!r}")
    return ValueError(f"entry timestamp must be an integer >= 0, got {timestamp!r}")


class _Fields:
    """Value behaviour over the attributes named in a class's __match_args__.

    == holds only against an instance of the same class (anything else gets
    NotImplemented), and hash and repr go over the tuple of those attributes
    in order, as a dataclass's do. Copies and pickles rebuild an instance
    through its constructor, called with that tuple. _set_fields stores the
    attributes, bypassing any __setattr__. A subclass without __slots__
    keeps an instance __dict__.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return (self.__class__, self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Fields):
    """A _Fields record that refuses to set or delete any attribute.

    It raises dataclasses.FrozenInstanceError with a frozen dataclass's
    messages; dataclasses is imported on that error path only.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Immutable(_Fields):
    """A _Fields value that refuses to set or delete any attribute."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable")


class VClock(_Immutable):
    """Immutable vector clock: entries sorted by actor, one entry per actor.

    Structural equality (``==``) includes timestamps; the causal,
    timestamp-insensitive notion is :func:`equal`. Copies and pickles carry
    the entries only and rebuild the clock through validation.
    """

    # _text: canonical_text's rendering, stored on first use; unset until then
    __slots__ = ("entries", "_text")
    __match_args__ = ("entries",)

    entries: tuple[ClockEntry, ...]

    def __init__(self, entries: Iterable[tuple[str, int, int]] = ()):
        # one pass, entry by entry: shape (a sequence of three that is not a
        # str, bytes or bytearray), actor, then count, then timestamp.
        # The actor check stays a call through the module global, so a wrapper
        # installed there (a tracer, a counting test) sees every check.
        items = []
        for entry in entries:
            match entry:
                case (actor, count, timestamp):
                    if not is_valid_actor(actor):
                        raise InvalidActorError(f"invalid actor token: {actor!r}")
                    if type(count) is int and type(timestamp) is int:
                        # exact ints (decode's and most callers'): stored as given
                        if count < 1 or timestamp < 0:
                            raise _bad_number(count, timestamp)
                    else:
                        # a bool, another int subclass or a non-int
                        if (
                            not isinstance(count, int)
                            or count < 1
                            or not isinstance(timestamp, int)
                            or timestamp < 0
                        ):
                            raise _bad_number(count, timestamp)
                        count, timestamp = int(count), int(timestamp)
                    items.append(_new_tuple(ClockEntry, (actor, count, timestamp)))
                case _:
                    raise _malformed_entry(entry)
        items.sort(key=_actor_of)
        if len(set(map(_actor_of, items))) < len(items):
            # report the first duplicate in actor order
            for prev, cur in zip(items, items[1:]):
                if prev[0] == cur[0]:
                    raise ValueError(f"duplicate actor in clock: {cur[0]!r}")
        object.__setattr__(self, "entries", tuple(items))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ClockEntry]:
        return iter(self.entries)

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        try:
            text = canonical_text(self)
        except EncodeError as exc:  # name the number instead of printing it
            return f"VClock(<{exc}>)"
        return f"VClock({text!r})"


# fast path for entries already canonical, skipping __init__ validation: a
# bare instance, then the entries slot stored past __setattr__. increment,
# merge, prune and _EMPTY take these two steps in their own frame, with no
# helper call, since the oracle's replay calls increment once per event and
# merge once per received message.
_new_object = object.__new__
_set_entries = VClock.entries.__set__

_EMPTY = _new_object(VClock)
_set_entries(_EMPTY, ())


class ClockSource(Protocol):
    """Injected time provider; successive now() calls never decrease."""

    def now(self) -> int: ...


class SystemClock:
    """Wall-clock seconds since the epoch, clamped to be non-decreasing."""

    def __init__(self) -> None:
        self._last = 0

    def now(self) -> int:
        current = int(time.time())
        if current > self._last:
            self._last = current
        return self._last


class FixedClock:
    """Always reports the same instant. Handy for tests and replays."""

    def __init__(self, value: int):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"timestamp must be >= 0, got {value!r}")
        self._value = int(value)

    def now(self) -> int:
        return self._value


class StepClock:
    """Logical time: starts at `start` and advances by `step` per call."""

    def __init__(self, start: int = 0, step: int = 1):
        for value in (start, step):
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"start and step must be >= 0, got {value!r}")
        self._next = int(start)
        self._step = int(step)

    def now(self) -> int:
        value = self._next
        self._next += self._step
        return value


class PruneBounds(_Immutable):
    """The four pruning parameters.

    small: keep the clock untouched at or below this many entries.
    large: above this many entries, old-enough entries go regardless of age cap.
    young: entries younger than now - young are never removed.
    old:   entries older than now - old are removable even below `large`.

    An immutable value, as a VClock is: equal to a PruneBounds of the same
    fields, hashed by them, and copied or pickled through validation. A bool
    or another int subclass is stored as its int.
    """

    __slots__ = ("small", "large", "young", "old")
    __match_args__ = __slots__

    small: int
    large: int
    young: int
    old: int

    def __init__(self, small: int, large: int, young: int, old: int):
        values = (small, large, young, old)
        for name, value in zip(self.__slots__, values):
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"prune bound {name} must be an integer >= 0, got {value!r}")
        if small > large:
            raise ValueError(f"prune bounds require small <= large, got {small} > {large}")
        if young > old:
            raise ValueError(f"prune bounds require young <= old, got {young} > {old}")
        self._set_fields(*map(int, values))


def fresh() -> VClock:
    """The empty vector clock."""
    return _EMPTY


def increment(actor: str, v: VClock, clock: ClockSource) -> VClock:
    """Advance `actor` by one event.

    A new actor enters with count 1; an existing actor's count rises by one.
    Either way the entry's timestamp becomes clock.now().
    """
    if not is_valid_actor(actor):
        raise InvalidActorError(f"invalid actor token: {actor!r}")
    now = clock.now()
    if not isinstance(now, int) or now < 0:
        raise ValueError(f"clock source produced a bad timestamp: {now!r}")
    if type(now) is not int:
        now = int(now)
    entries = v.entries
    i = bisect_left(entries, actor, key=_actor_of)
    if i < len(entries) and entries[i][0] == actor:
        count, rest = entries[i][1] + 1, entries[i + 1 :]
    else:
        count, rest = 1, entries[i:]
    result = _new_object(VClock)
    _set_entries(result, entries[:i] + (_new_tuple(ClockEntry, (actor, count, now)),) + rest)
    return result


def equal(v1: VClock, v2: VClock) -> bool:
    """Causal equality: identical (actor, count) pairs. Timestamps are ignored."""
    return kernels.equal_entries(v1.entries, v2.entries)


def descends(v1: VClock, v2: VClock) -> bool:
    """True iff v1 contains v2's causal history (pointwise counts >=).

    Non-strict: every clock descends itself, and every clock descends the
    empty clock.
    """
    return kernels.descends_entries(v1.entries, v2.entries)


def compare(v1: VClock, v2: VClock) -> Ordering:
    """Classify the pair as Equal, Descends, Dominated or Concurrent."""
    return _ORDERINGS[kernels.compare_entries(v1.entries, v2.entries)]


def merge(v1: VClock, v2: VClock, clock: ClockSource | None = None) -> VClock:
    """Least upper bound: per-actor maximum of counts and of timestamps.

    The clock source parameter is accepted for signature symmetry with
    increment but never consulted.
    """
    if not v1.entries:
        return v2
    if not v2.entries:
        return v1
    result = _new_object(VClock)
    _set_entries(result, kernels.merge_entries(v1.entries, v2.entries))
    return result


def get_counter(actor: str, v: VClock) -> int:
    """The actor's count, or 0 when absent."""
    for entry in v.entries:
        if entry.actor == actor:
            return entry.count
    return 0


def get_timestamp(actor: str, v: VClock) -> int | None:
    """The actor's timestamp, or None when absent."""
    for entry in v.entries:
        if entry.actor == actor:
            return entry.timestamp
    return None


def all_nodes(v: VClock) -> list[str]:
    """All actors present in the clock, ascending."""
    return [entry.actor for entry in v.entries]


def prune(v: VClock, now: int, bounds: PruneBounds) -> VClock:
    """Shrink a clock under the size/age rule.

    Entries are examined oldest first (ties broken by actor token). The
    oldest entry is removed while all of the following hold for the current
    state: more than `small` entries remain; the clock is over `large`
    entries or the entry is older than now - old; and the entry is older
    than now - young. Survivors keep their counts and timestamps. A clock
    that loses no entry is returned as itself.
    """
    if not isinstance(bounds, PruneBounds):
        raise TypeError(f"prune bounds must be a PruneBounds, got {type(bounds).__name__}")
    if not isinstance(now, int) or now < 0:
        raise ValueError(f"prune now must be an integer >= 0, got {now!r}")
    entries = v.entries
    size = len(entries)
    if size <= bounds.small:
        return v
    by_age = sorted(entries, key=_age_of)
    young_cut = now - bounds.young
    old_cut = now - bounds.old
    idx = 0
    while size > bounds.small:
        oldest = by_age[idx]
        if oldest.timestamp >= young_cut:
            break
        if size <= bounds.large and oldest.timestamp >= old_cut:
            break
        idx += 1
        size -= 1
    if idx == 0:
        return v
    result = _new_object(VClock)
    _set_entries(result, tuple(sorted(by_age[idx:], key=_actor_of)))
    return result


def canonical_text(v: VClock) -> str:
    """The boundary form: 'actor:count:timestamp' entries joined by ';'.

    The empty clock renders as '-'. Actors ascend, so equal clock values
    always produce byte-identical text. Each clock is rendered once: the
    text is stored on the clock, which is safe because its entries never
    change. A number this interpreter will not convert to text raises
    EncodeError naming its actor and field.
    """
    text = getattr(v, "_text", None)
    if text is None:
        try:
            text = ";".join(f"{e.actor}:{e.count}:{e.timestamp}" for e in v.entries) or "-"
        except ValueError:  # a number past the interpreter's int-to-text limit
            _refuse_long_number(v)
            raise
        object.__setattr__(v, "_text", text)
    return text


def _refuse_long_number(v: VClock) -> None:
    # the error path of canonical_text and codec.encode: raise EncodeError for
    # the first number, in entry order, that has too many digits for the wire
    # or for str() on this host
    for actor, count, timestamp in v.entries:
        for field, number in (("count", count), ("timestamp", timestamp)):
            if number >= _TOO_MANY_DIGITS:
                problem = f"more than {MAX_DIGITS} digits"
            else:
                try:
                    str(number)
                    continue
                except ValueError:  # over a lower int() limit set on this host
                    problem = "more digits than this interpreter converts to text"
            raise EncodeError(
                f"cannot encode {field} of actor {actor!r}: it has {problem}"
            ) from None
