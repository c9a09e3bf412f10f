"""Wire codec and unary numeral tests."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclock import codec, core
from vclock.codec import (
    MATERIALIZATION_LIMIT,
    ZERO,
    ActorTokenError,
    CountRangeError,
    DecodeError,
    DuplicateActorError,
    EncodeError,
    MalformedEntryError,
    NumericFieldError,
    PeanoCapacityError,
    Successor,
    Zero,
    decode,
    encode,
    natural_to_peano,
    peano_cost,
    peano_to_natural,
)
from vclock.core import ClockEntry, VClock, fresh, is_valid_actor, merge

from references import DECIMAL, OVERLONG, decode_reference, outcome, spy


def test_encode_empty():
    assert encode(fresh()) == "-"


def test_encode_canonical_form():
    v = VClock([("a", 2, 105), ("b", 1, 106)])
    assert encode(v) == "a:2:105;b:1:106"


def test_encode_merge_order_independent():
    v1 = VClock([("a", 2, 10), ("b", 1, 5)])
    v2 = VClock([("a", 1, 12), ("c", 3, 7)])
    assert encode(merge(v1, v2)) == encode(merge(v2, v1))


@pytest.mark.parametrize("value", ["a:1:1", None, ("a", 1, 1)], ids=repr)
def test_encode_rejects_what_is_not_a_clock(value):
    with pytest.raises(TypeError) as info:
        encode(value)
    assert str(info.value) == f"encode needs a VClock, got {type(value).__name__}"


def test_decode_empty():
    assert decode("-") == fresh()


def test_decode_resorts_entries():
    v = decode("b:1:106;a:2:105")
    assert v.entries == (ClockEntry("a", 2, 105), ClockEntry("b", 1, 106))


def test_decode_rejects_duplicate_actor():
    with pytest.raises(DuplicateActorError):
        decode("a:2:105;a:3:1")


def test_decode_rejects_malformed_entries():
    for text in ("", "a:1", "a:1:2:3", "a", ";", "a:1:2;"):
        with pytest.raises(MalformedEntryError):
            decode(text)


def test_decode_rejects_non_numeric_fields():
    for text in ("a:x:1", "a:1:y", "a:-1:2", "a:+1:2", "a:1:2 ", "a: 1:2"):
        with pytest.raises((NumericFieldError, ActorTokenError)):
            decode(text)
    with pytest.raises(NumericFieldError):
        decode("a:²:2")


def test_decode_rejects_overlong_count():
    with pytest.raises(NumericFieldError, match="too many digits"):
        decode(f"a:{OVERLONG}:5")


def test_decode_rejects_overlong_timestamp():
    with pytest.raises(NumericFieldError, match="too many digits"):
        decode(f"a:1:{OVERLONG}")


def test_decode_digit_limit_is_the_codecs_own(int_digit_limit):
    # with int()'s own limit lifted, MAX_DIGITS still bounds every field
    int_digit_limit(0)
    assert len(OVERLONG) == codec.MAX_DIGITS + 1
    for text in (f"a:{OVERLONG}:5", f"a:1:{OVERLONG}", f"b:1:1;a:{OVERLONG}:5"):
        with pytest.raises(NumericFieldError, match="too many digits"):
            decode(text)
    at_limit = "9" * codec.MAX_DIGITS
    text = f"a:{at_limit}:{at_limit}"
    assert encode(decode(text)) == text


def test_decode_names_a_field_over_a_lowered_int_limit(int_digit_limit):
    # a host may set int()'s limit below MAX_DIGITS; 640 is the lowest it takes
    int_digit_limit(640)
    with pytest.raises(NumericFieldError, match="too many digits"):
        decode("a:1:" + "1" * 641)


@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "lifted-limit"])
def test_encode_names_a_number_over_max_digits(int_digit_limit, limit):
    # VClock takes ints of any size; the wire carries at most MAX_DIGITS digits
    if limit is not None:
        int_digit_limit(limit)
    huge = 10**codec.MAX_DIGITS  # the least number with MAX_DIGITS + 1 digits
    cases = [
        (VClock([("a", huge, 0)]), "count of actor 'a'"),
        (VClock([("a", 10**5000, 0)]), "count of actor 'a'"),
        (VClock([("a", 1, 1), ("b", 2, huge)]), "timestamp of actor 'b'"),
        (VClock([("a", 1, huge), ("b", huge, 1)]), "timestamp of actor 'a'"),
    ]
    for v, named in cases:
        with pytest.raises(EncodeError) as info:
            encode(v)
        assert str(info.value) == (
            f"cannot encode {named}: it has more than {codec.MAX_DIGITS} digits"
        )
        assert isinstance(info.value, ValueError)
    # at the limit, and over it in total but not in any one number, encodes
    at_limit = huge - 1
    v = VClock([("a", at_limit, at_limit), ("b", 1, 2)])
    assert decode(encode(v)) == v


def test_encode_names_a_number_over_a_lowered_int_limit(int_digit_limit):
    int_digit_limit(640)
    with pytest.raises(EncodeError) as info:
        encode(VClock([("a", 1, 10**700)]))
    assert str(info.value) == (
        "cannot encode timestamp of actor 'a': it has more digits than this interpreter"
        " converts to text"
    )


def test_decode_rejects_zero_count():
    with pytest.raises(CountRangeError):
        decode("a:0:5")


def test_decode_rejects_bad_actor_tokens():
    for text in (":1:2", "a b:1:2", "\t:1:2"):
        with pytest.raises((ActorTokenError, MalformedEntryError)):
            decode(text)


def test_decode_errors_share_a_base_class():
    for exc_type in (
        MalformedEntryError,
        NumericFieldError,
        CountRangeError,
        ActorTokenError,
        DuplicateActorError,
    ):
        assert issubclass(exc_type, DecodeError)
        assert issubclass(exc_type, ValueError)


@pytest.mark.parametrize("text", [None, 5, b"-", b"a:1:1", ["a:1:1"]], ids=repr)
def test_decode_rejects_text_that_is_not_a_str(text):
    with pytest.raises(TypeError) as info:
        decode(text)
    assert str(info.value) == f"wire text must be str, got {type(text).__name__}"


# (wire text, error class, exact message): fields are checked left to right, and
# within a field arity, then actor, then digits, then count range, then duplicates
_DECODE_PRECEDENCE = [
    ("a b:x:1", ActorTokenError, "bad actor token 'a b' in entry 'a b:x:1'"),
    (":0:x", ActorTokenError, "bad actor token '' in entry ':0:x'"),
    ("a:0:x", NumericFieldError, "count and timestamp must be decimal digits in entry 'a:0:x'"),
    ("a:1:2;a:3:4;b", DuplicateActorError, "duplicate actor 'a'"),
    ("a:1:2;a:x:1", NumericFieldError,
     "count and timestamp must be decimal digits in entry 'a:x:1'"),
    ("a:0:1;a:1:1", CountRangeError, "count must be >= 1 in entry 'a:0:1'"),
    ("a:0:1;b:x:1", CountRangeError, "count must be >= 1 in entry 'a:0:1'"),
    ("a:x:1;b:0:1", NumericFieldError,
     "count and timestamp must be decimal digits in entry 'a:x:1'"),
    ("b:1:1;a b:1:1;c", ActorTokenError, "bad actor token 'a b' in entry 'a b:1:1'"),
    ("a:1:1;b b:0:0;a:1:1", ActorTokenError, "bad actor token 'b b' in entry 'b b:0:0'"),
    ("a:1:1;b:0:1:1", MalformedEntryError, "expected actor:count:timestamp, got 'b:0:1:1'"),
    ("a:1:2;;", MalformedEntryError, "expected actor:count:timestamp, got ''"),
]


@pytest.mark.parametrize(("text", "error", "message"), _DECODE_PRECEDENCE)
def test_decode_error_precedence_is_pinned(text, error, message):
    with pytest.raises(error) as info:
        decode(text)
    assert type(info.value) is error
    assert str(info.value) == message


# one wire field: well formed, or carrying one drawn defect. Actors come from a
# small pool, so texts of several fields often repeat one.
_DEFECTS = ["arity", "actor", "digits", "overlong", "zero"]


@st.composite
def _field_text(draw):
    actor = draw(st.sampled_from(["a", "b", "c", "é"]))
    numbers = [str(draw(st.integers(1, 99))), str(draw(st.integers(0, 10**6)))]
    defect = draw(st.sampled_from([None, None, *_DEFECTS]))
    if defect == "arity":
        return draw(st.sampled_from(["", actor, f"{actor}:1", f"{actor}:1:2:3", "::"]))
    if defect == "actor":
        actor = draw(st.sampled_from(["", "a b", " ", "\x07", "a\tb", "\u2028"]))
    elif defect == "zero":
        numbers[0] = draw(st.sampled_from(["0", "00"]))
    elif defect is not None:
        bad = OVERLONG if defect == "overlong" else draw(st.sampled_from(["²", "+1", " 1", "1_0"]))
        numbers[draw(st.integers(0, 1))] = bad
    return f"{actor}:{numbers[0]}:{numbers[1]}"


_defective_text = st.lists(_field_text(), min_size=1, max_size=6).map(";".join)


@settings(max_examples=1000, deadline=None)
@given(_defective_text | st.sampled_from(["-", None, b"a:1:1"]))
def test_decode_equals_the_reference_loop(text):
    # same clock, or the same exception class and message, as the plain
    # field-by-field loop; several defects per text exercise the precedence
    assert outcome(decode, text) == outcome(decode_reference, text)


@pytest.fixture
def validation_calls(monkeypatch):
    """The actor checks and validated constructions, wherever they run."""
    return {
        "actor": spy(monkeypatch, [core, codec], "is_valid_actor"),
        "init": spy(monkeypatch, [VClock], "__init__"),
    }


def _wire_entries(k):
    return [f"n{i}:{i + 1}:{i}" for i in reversed(range(k))]


@pytest.mark.parametrize("k", [1, 2, 16])
def test_decode_validation_counts(validation_calls, k):
    # a well-formed text is validated once, by VClock.__init__: k actor checks
    # and one validated construction per k-entry text
    assert len(decode(";".join(_wire_entries(k)))) == k
    assert len(validation_calls["actor"]) == k
    assert len(validation_calls["init"]) == 1


@pytest.mark.parametrize(
    ("k", "last", "error", "message"),
    [
        (1, "a b:1:1", ActorTokenError, "bad actor token 'a b' in entry 'a b:1:1'"),
        (2, "a b:1:1", ActorTokenError, "bad actor token 'a b' in entry 'a b:1:1'"),
        (16, "a b:1:1", ActorTokenError, "bad actor token 'a b' in entry 'a b:1:1'"),
        (2, "n0:9:9", DuplicateActorError, "duplicate actor 'n0'"),
        (16, "n0:9:9", DuplicateActorError, "duplicate actor 'n0'"),
    ],
)
def test_decode_validation_counts_on_a_bad_last_entry(validation_calls, k, last, error, message):
    # the constructor finds the defect, then one re-read names it: at most
    # 2k actor checks for a k-entry text
    with pytest.raises(error) as info:
        decode(";".join(_wire_entries(k - 1) + [last]))
    assert type(info.value) is error
    assert str(info.value) == message
    assert len(validation_calls["actor"]) <= 2 * k
    assert len(validation_calls["init"]) <= 1


def test_round_trip_identity_on_random_clocks():
    rng = random.Random(5)
    for _ in range(300):
        entries = [
            (f"node{i}", rng.randint(1, 9), rng.randint(0, 999))
            for i in range(rng.randint(0, 6))
        ]
        v = VClock(entries)
        assert decode(encode(v)) == v


def test_encode_after_decode_canonicalizes():
    assert encode(decode("b:1:106;a:2:105")) == "a:2:105;b:1:106"


# DECIMAL is decode's digit rule written as a regex, the reference for its
# str.isascii() and str.isdigit() test (the scenario parser's rule)
_FIELD_EDGES = ["", "0", "7", "007", "12\n", "\n12", " 1", "1 ", "+1", "-1", "1_000", "1²"]


def test_decode_digit_rule_matches_the_regex():
    numeric = []
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        assert (ch.isascii() and ch.isdigit()) is bool(DECIMAL.match(ch)), hex(cp)
        if ch.isnumeric():
            numeric.append(ch)
    for field in numeric + _FIELD_EDGES:
        for text in (f"a:{field}:5", f"a:1:{field}"):
            if DECIMAL.match(field):
                try:
                    decode(text)
                except CountRangeError:
                    assert field.strip("0") == ""
            else:
                with pytest.raises(NumericFieldError):
                    decode(text)


_piece = (
    st.text(max_size=4)
    | st.sampled_from(["-", "a", "b", "a b", "0", "²", "١", OVERLONG])
    | st.integers(0, 2**70).map(str)
)
_wire_text = st.text() | st.lists(
    st.lists(_piece, max_size=4).map(":".join), min_size=1, max_size=4
).map(";".join)


@settings(max_examples=300, deadline=None)
@given(_wire_text)
def test_decode_raises_only_decode_errors(text):
    try:
        v = decode(text)
    except DecodeError:
        return
    assert type(v) is VClock


# entries as a sender may write them: any order, numbers with leading zeros
_entry_text = st.tuples(
    st.sampled_from("abcdef") | st.text(min_size=1, max_size=3).filter(is_valid_actor),
    st.integers(1, 2**70),
    st.integers(0, 2**70),
    st.integers(0, 2),
    st.integers(0, 2),
).map(lambda e: f"{e[0]}:{'0' * e[3]}{e[1]}:{'0' * e[4]}{e[2]}")
_valid_wire_text = st.just("-") | st.lists(
    _entry_text, min_size=1, max_size=6, unique_by=lambda t: t.split(":")[0]
).map(";".join)


@settings(max_examples=300, deadline=None)
@given(_valid_wire_text | _wire_text)
def test_encode_of_decode_is_canonical_and_a_fixed_point(text):
    try:
        v = decode(text)
    except DecodeError:
        return
    canonical = encode(v)
    if canonical != "-":
        fields = [field.split(":") for field in canonical.split(";")]
        actors = [actor for actor, _, _ in fields]
        assert actors == sorted(set(actors))
        for _, count, timestamp in fields:
            assert count == str(int(count)) and timestamp == str(int(timestamp))
    assert decode(canonical) == v
    assert encode(decode(canonical)) == canonical


# --- unary numerals ---------------------------------------------------------


def test_zero_numeral():
    assert natural_to_peano(0) == Zero()
    assert isinstance(natural_to_peano(0), Zero)
    assert peano_to_natural(ZERO) == 0
    assert repr(ZERO) == "Zero()"


def test_two_is_two_successors_over_zero():
    numeral = natural_to_peano(2)
    assert numeral == Successor(Successor(Zero()))
    assert isinstance(numeral, Successor)
    assert isinstance(numeral.pred, Successor)
    assert isinstance(numeral.pred.pred, Zero)


def test_peano_to_natural_counts_depth():
    assert peano_to_natural(Successor(ZERO)) == 1
    assert peano_to_natural(natural_to_peano(1024)) == 1024
    assert repr(natural_to_peano(3)) == "Successor(depth=3)"


def test_round_trip_sample():
    for n in (0, 1, 2, 3, 17, 255, 4096, 10_000):
        assert peano_to_natural(natural_to_peano(n)) == n


def test_deep_numerals_do_not_recurse():
    # deeper than any default recursion limit
    n = 100_000
    numeral = natural_to_peano(n)
    assert peano_to_natural(numeral) == n
    assert numeral == natural_to_peano(n)


def test_numeral_equality_is_structural():
    assert natural_to_peano(3) == natural_to_peano(3)
    assert natural_to_peano(3) != natural_to_peano(4)
    assert natural_to_peano(0) != natural_to_peano(1)
    # a numeral never equals anything else, not even the int it denotes
    assert natural_to_peano(2) != 2
    assert natural_to_peano(2).__eq__(2) is NotImplemented


def test_materialization_ceiling():
    with pytest.raises(PeanoCapacityError):
        natural_to_peano(MATERIALIZATION_LIMIT + 1)


def test_natural_to_peano_rejects_negatives():
    with pytest.raises(ValueError):
        natural_to_peano(-1)


def test_peano_to_natural_rejects_foreign_objects():
    with pytest.raises(TypeError):
        peano_to_natural("O")


def test_peano_cost_examples():
    assert peano_cost(0) == 1
    assert peano_cost(2) == 3
    assert peano_cost(1_390_525_760) == 1_390_525_761


def test_peano_cost_is_n_plus_one():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(10**12)
        assert peano_cost(n) == n + 1
    with pytest.raises(ValueError):
        peano_cost(-5)
