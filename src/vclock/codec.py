"""Boundary codecs: wire text for clocks and the unary (Peano) numeral codec.

The wire form is the canonical text defined by the core module. The unary
codec exists to measure what nested-constructor numerals cost: depth equals
the number denoted, so materializing a modern UNIX timestamp is a
gigabyte-scale object graph.
"""

from __future__ import annotations

from .core import (
    MAX_DIGITS,
    EncodeError,
    VClock,
    _refuse_long_number,
    canonical_text,
    fresh,
    is_valid_actor,
)

__all__ = [
    "ActorTokenError",
    "CountRangeError",
    "DecodeError",
    "DuplicateActorError",
    "EncodeError",
    "MalformedEntryError",
    "NumericFieldError",
    "PeanoCapacityError",
    "PeanoNumeral",
    "Successor",
    "Zero",
    "ZERO",
    "MATERIALIZATION_LIMIT",
    "decode",
    "encode",
    "natural_to_peano",
    "peano_cost",
    "peano_to_natural",
]

EMPTY_FORM = "-"


class DecodeError(ValueError):
    """Base class for wire-text parse failures."""


class MalformedEntryError(DecodeError):
    """An entry does not have exactly three ':'-separated fields."""


class NumericFieldError(DecodeError):
    """Count or timestamp field is not a plain decimal number."""


class CountRangeError(DecodeError):
    """Count field is zero; present entries always count at least one."""


class ActorTokenError(DecodeError):
    """Actor field violates the token rule."""


class DuplicateActorError(DecodeError):
    """The same actor appears in more than one entry."""


def encode(v: VClock) -> str:
    """Render a clock as canonical wire text. A non-VClock raises TypeError.

    A count or timestamp of more than MAX_DIGITS digits, which decode would
    refuse, or one this interpreter will not convert to text, raises
    EncodeError naming its actor and field, whatever the interpreter's limit.
    """
    if not isinstance(v, VClock):
        raise TypeError(f"encode needs a VClock, got {type(v).__name__}")
    text = canonical_text(v)  # raises EncodeError for a number str() will not convert
    if len(text) > MAX_DIGITS:  # only a text this long can hold an over-long number
        _refuse_long_number(v)
    return text


def decode(text: str) -> VClock:
    """Parse wire text into a clock, re-sorting entries if needed.

    A well-formed text is validated once: this pass checks only what VClock
    cannot (three ':' fields, ASCII decimal digits), and VClock(entries)
    checks actors, counts and duplicates. Only a text that fails, or one
    longer than MAX_DIGITS characters, is read field by field to name its
    first defect with a distinct DecodeError subclass: wrong field count, bad
    actor token, non-numeric or over-long (more than MAX_DIGITS digits)
    count/timestamp, zero count, duplicate actor. Text that is not a str
    raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"wire text must be str, got {type(text).__name__}")
    if text == EMPTY_FORM:
        return fresh()
    if len(text) > MAX_DIGITS:  # only a text this long can hold an over-long field
        return _decode_fields(text)
    # every defect _decode_fields reports makes this pass raise ValueError
    # (InvalidActorError and VClock's own errors included) or break
    try:
        entries = []
        for field in text.split(";"):
            actor, count_text, timestamp_text = field.split(":")
            if not (
                count_text.isascii()
                and count_text.isdigit()
                and timestamp_text.isascii()
                and timestamp_text.isdigit()
            ):
                break
            entries.append((actor, int(count_text), int(timestamp_text)))
        else:
            return VClock(entries)
    except ValueError:
        pass
    return _decode_fields(text)


def _decode_fields(text: str) -> VClock:
    # decode's error path: check each field in turn (arity, actor, digits,
    # digit count, count range, then duplicates) and raise the first defect's
    # DecodeError; a text with none still ends in the validated constructor
    entries: list[tuple[str, int, int]] = []
    seen: set[str] = set()
    for field in text.split(";"):
        parts = field.split(":")
        if len(parts) != 3:
            raise MalformedEntryError(
                f"expected actor:count:timestamp, got {field!r}"
            )
        actor, count_text, timestamp_text = parts
        if not is_valid_actor(actor):
            raise ActorTokenError(f"bad actor token {actor!r} in entry {field!r}")
        if not (
            count_text.isascii()
            and count_text.isdigit()
            and timestamp_text.isascii()
            and timestamp_text.isdigit()
        ):
            raise NumericFieldError(
                f"count and timestamp must be decimal digits in entry {field!r}"
            )
        try:
            if len(count_text) > MAX_DIGITS or len(timestamp_text) > MAX_DIGITS:
                raise ValueError
            count = int(count_text)
            timestamp = int(timestamp_text)
        except ValueError:  # over MAX_DIGITS, or over a lower int() limit set on this host
            raise NumericFieldError(
                f"count or timestamp has too many digits in entry {field[:40]!r}..."
            ) from None
        if count < 1:
            raise CountRangeError(f"count must be >= 1 in entry {field!r}")
        if actor in seen:
            raise DuplicateActorError(f"duplicate actor {actor!r}")
        seen.add(actor)
        entries.append((actor, count, timestamp))
    return VClock(entries)


# --- unary numerals -------------------------------------------------------

MATERIALIZATION_LIMIT = 10_000_000


class PeanoCapacityError(ValueError):
    """Refusal to materialize a numeral too deep to hold in memory sanely."""


class PeanoNumeral:
    """A unary numeral: either Zero or a Successor wrapping another numeral.

    Two numerals are equal when they have the same depth; counting it is
    iterative, so deep numerals compare without recursion.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeanoNumeral):
            return NotImplemented
        return peano_to_natural(self) == peano_to_natural(other)

    __hash__ = None  # type: ignore[assignment]


class Zero(PeanoNumeral):
    """The base numeral, denoting 0."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Zero()"


class Successor(PeanoNumeral):
    """One constructor layer: denotes 1 + whatever it wraps."""

    __slots__ = ("pred",)

    def __init__(self, pred: PeanoNumeral):
        self.pred = pred

    def __repr__(self) -> str:
        return f"Successor(depth={peano_to_natural(self)})"


ZERO = Zero()


def natural_to_peano(n: int) -> PeanoNumeral:
    """Materialize the numeral of depth n (one constructor node per unit).

    Refuses n above MATERIALIZATION_LIMIT: cost grows linearly and a
    timestamp-sized n would need gigabytes. Construction is iterative, so
    depth is bounded by memory, not the call stack.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    if n > MATERIALIZATION_LIMIT:
        raise PeanoCapacityError(
            f"refusing to materialize a numeral of depth {n} "
            f"(limit {MATERIALIZATION_LIMIT}); see peano_cost for the size estimate"
        )
    # object.__new__ plus a slot store skips the Python-level __init__ call
    new = object.__new__
    node: PeanoNumeral = ZERO
    for _ in range(n):
        succ = new(Successor)
        succ.pred = node
        node = succ
    return node


def peano_to_natural(p: PeanoNumeral) -> int:
    """Count a numeral's depth by full, iterative descent."""
    n = 0
    node = p
    while isinstance(node, Successor):
        n += 1
        node = node.pred
    if not isinstance(node, Zero):
        raise TypeError(f"not a Peano numeral: {node!r}")
    return n


def peano_cost(n: int) -> int:
    """Constructor-node count of the numeral for n, without materializing.

    The numeral for n is n Successor nodes over one Zero, so the cost is
    n + 1 exactly. Usable at timestamp scale where materialization is not.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    return n + 1
