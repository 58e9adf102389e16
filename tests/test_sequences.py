"""Tests for alphabets, sequence notation, and pi evaluation."""

import copy
import math
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from univoque.sequences import (
    MAX_EXPANDED_LENGTH,
    MAX_GROUP_DEPTH,
    Alphabet,
    EPSeq,
    NotationError,
    Word,
    format_seq,
    parse_seq,
    pi_complement,
    pi_eval,
    pi_word,
)

T3 = Alphabet.ternary(3)


def test_ternary_alphabet_properties():
    assert T3.digits == (0.0, 1.0, 3.0)
    assert T3.chars == ("0", "1", "m")
    assert T3.necessity_threshold == pytest.approx(2.5)


def test_general_alphabet_uses_index_characters():
    a = Alphabet.from_digits([0, 1, 2.5, 7])
    assert a.chars == ("0", "1", "2", "3")
    assert a.digits[-1] == 7.0


@pytest.mark.parametrize("digits", [[1], [0, 0], [2, 1], [],
                                    [0, math.inf], [0, math.nan], list(range(11))])
def test_bad_alphabets_rejected(digits):
    with pytest.raises(ValueError):
        Alphabet.from_digits(digits)


@pytest.mark.parametrize("chars,message", [
    (("0", "1", "m"), "one character per digit required"),
    *((("0", c), "invalid digit character") for c in "()^"),
])
def test_alphabet_refuses_bad_digit_characters(chars, message):
    with pytest.raises(ValueError, match=message):
        Alphabet((0.0, 1.0), chars)


def test_ternary_needs_m_at_least_two():
    with pytest.raises(ValueError):
        Alphabet.ternary(1.5)


@pytest.mark.parametrize("text,pre,per", [
    ("m1^w", (2,), (1,)),
    ("(m1)^w", (), (2, 1)),
    ("mm1(m11m)^w", (2, 2, 1), (2, 1, 1, 2)),
    ("1^3m^w", (1, 1, 1), (2,)),
    ("0(01)^w", (0,), (0, 1)),
    ("(1m)^2(m1)^w", (1, 2, 1, 2), (2, 1)),
])
def test_parse_eventually_periodic(text, pre, per):
    seq = parse_seq(text, T3)
    assert isinstance(seq, EPSeq)
    assert seq.preperiod == pre
    assert seq.period == per


def test_parse_finite_word():
    w = parse_seq("11m", T3)
    assert isinstance(w, Word)
    assert w.symbols == (1, 1, 2)
    assert w.text() == "11m"


def test_repeat_counts_expand():
    w = parse_seq("(m1)^3", T3)
    assert w.symbols == (2, 1, 2, 1, 2, 1)
    # leading zeros do not count towards the expansion cap
    assert parse_seq("1^" + "0" * 5000 + "3", T3) == parse_seq("111", T3)


def test_canonical_form_absorbs_rotations():
    # m(1m)^w is the same infinite sequence as (m1)^w
    assert parse_seq("m(1m)^w", T3) == parse_seq("(m1)^w", T3)
    assert parse_seq("1mm^w", T3) == parse_seq("1m^w", T3)
    assert parse_seq("(mm)^w", T3) == parse_seq("m^w", T3)
    assert parse_seq("1m1m(1m)^w", T3) == parse_seq("(1m)^w", T3)


def test_canonical_preperiod_never_shares_last_symbol_with_period():
    seq = parse_seq("m111(1m11)^w", T3)
    assert not seq.preperiod or seq.preperiod[-1] != seq.period[-1]


# Each call builds a fresh record; two calls build equal ones.
RECORDS = [
    (lambda: Alphabet.ternary(3)),
    (lambda: Alphabet.from_digits([0, 1, 2.5])),
    (lambda: parse_seq("m1(1m)^w", Alphabet.ternary(3))),
    (lambda: Word(T3, (1, 2, 2))),
]


@pytest.mark.parametrize("make", RECORDS)
def test_records_compare_and_hash_by_field(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_never_equal_another_type():
    word, seq = Word(T3, (1, 2)), EPSeq(T3, (), (1, 2))
    assert word != seq and seq != word
    assert word != (T3, (1, 2)) and seq != (T3, (), (1, 2))
    assert T3 != ((0.0, 1.0, 3.0), ("0", "1", "m"))
    # field for field equal, but a different class
    assert Alphabet.ternary(3) != type("Other", (Alphabet,), {"__slots__": ()})(
        (0.0, 1.0, 3.0), ("0", "1", "m"))


@pytest.mark.parametrize("make", RECORDS)
def test_records_are_immutable(make):
    record = make()
    before = repr(record)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


def test_record_repr_is_unchanged():
    assert repr(parse_seq("m1(1m)^w", Alphabet.ternary(3))) == (
        "EPSeq(alphabet=Alphabet(digits=(0.0, 1.0, 3.0), chars=('0', '1', 'm')), "
        "preperiod=(2, 1), period=(1, 2))")
    assert repr(Word(T3, (1, 2))) == (
        "Word(alphabet=Alphabet(digits=(0.0, 1.0, 3.0), chars=('0', '1', 'm')), "
        "symbols=(1, 2))")


def test_records_take_keyword_arguments():
    seq = EPSeq(alphabet=T3, preperiod=(2, 1, 1), period=(1,))
    assert seq == EPSeq(T3, (2,), (1,))
    assert Word(alphabet=T3, symbols=(2,)) == Word(T3, (2,))
    assert Alphabet(digits=(0.0, 1.0), chars=("a", "b")).chars == ("a", "b")


@pytest.mark.parametrize("make", RECORDS)
@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_records_round_trip(make, round_trip):
    record = make()
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)


def test_unpickling_checks_again():
    # a record is rebuilt through its constructor, so its checks run:
    # here on a pickle whose second digit character is edited to the first
    bad = pickle.dumps(Alphabet((0.0, 1.0), ("a", "b"))).replace(b"\x8c\x01b", b"\x8c\x01a")
    with pytest.raises(ValueError, match="distinct"):
        pickle.loads(bad)


@pytest.mark.parametrize("text,offset", [
    ("m1^", 3),
    ("^w", 0),
    ("m1^0", 3),
    ("(m1", 0),
    ("m)1", 1),
    ("()^w", 0),
    ("x1^w", 0),
    ("m^w1", 1),
    ("(m^w)", 2),
    ("m^-2", 2),
    # repeat counts are ASCII digits: not an Arabic-Indic 3, not a superscript 2
    ("1^\u0663", 2),
    ("1^\u00b2", 2),
    ("1^3\u0663", 3),
])
def test_notation_errors_carry_offsets(text, offset):
    with pytest.raises(NotationError) as exc:
        parse_seq(text, T3)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text,offset", [
    ("1^999999999", 2),
    ("((1^1000)^1000)^1000", 16),
    ("(1^999999)(1^999999)", 10),
    ("1^99999999999999999999^w", 2),
    # more digits than int() converts by default
    pytest.param("1^" + "9" * 5000, 2, id="1^9x5000"),
])
def test_expansion_cap_raises_before_allocating(text, offset):
    start = time.perf_counter()
    with pytest.raises(NotationError) as exc:
        parse_seq(text, T3)
    assert time.perf_counter() - start < 1.0
    assert exc.value.offset == offset
    assert str(MAX_EXPANDED_LENGTH) in str(exc.value)


def test_parsing_allocates_no_object_per_symbol():
    # a one-element list per plain symbol once peaked at about 10 MB here;
    # the symbols themselves, as a list and the two tuples, take 3 MB
    text = "1m" * 50_000 + "(1)^w"
    tracemalloc.start()
    try:
        seq = parse_seq(text, T3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq.preperiod) == 100_000
    assert peak < 5_000_000


def test_expansion_cap_is_inclusive():
    w = parse_seq(f"1^{MAX_EXPANDED_LENGTH}", T3)
    assert len(w) == MAX_EXPANDED_LENGTH
    with pytest.raises(NotationError):
        parse_seq(f"m1^{MAX_EXPANDED_LENGTH}", T3)


def test_group_depth_cap_is_inclusive():
    deepest = "(" * MAX_GROUP_DEPTH + "m1" + ")" * MAX_GROUP_DEPTH + "^w"
    assert parse_seq(deepest, T3) == parse_seq("(m1)^w", T3)
    for depth in (MAX_GROUP_DEPTH + 1, 2000, 100_000):
        with pytest.raises(NotationError) as exc:
            parse_seq("(" * depth + "1" + ")" * depth + "^w", T3)
        assert exc.value.offset == MAX_GROUP_DEPTH
        assert str(MAX_GROUP_DEPTH) in str(exc.value)


def test_format_round_trips_fixed_cases():
    for text in ["m1^w", "(m1)^w", "mm1(m11m)^w", "m^w", "0(01)^w", "11m"]:
        assert format_seq(parse_seq(text, T3)) == text


sym_lists = st.lists(st.integers(0, 2), max_size=8)
periods = st.lists(st.integers(0, 2), min_size=1, max_size=6)


@given(pre=sym_lists, per=periods)
def test_format_parse_round_trip(pre, per):
    seq = EPSeq(T3, tuple(pre), tuple(per))
    again = parse_seq(format_seq(seq), T3)
    assert again == seq


@given(pre=sym_lists, per=periods, probe=st.integers(0, 40))
def test_canonicalization_preserves_the_sequence(pre, per, probe):
    raw_symbol = (pre + per * 40)[probe] if probe < len(pre) else \
        per[(probe - len(pre)) % len(per)]
    seq = EPSeq(T3, tuple(pre), tuple(per))
    assert seq.symbol(probe) == raw_symbol


def _reference_canonical(pre, per):
    """The canonical form one absorbed symbol at a time: pop the last
    preperiod symbol while it equals the period's last, rotating the
    period right each time."""
    per = tuple(per)
    for d in range(1, len(per)):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    pre = list(pre)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = per[-1:] + per[:-1]
    return tuple(pre), per


@st.composite
def absorbing_inputs(draw):
    """A period, possibly repeated, and a preperiod that ends with a run
    of the period's last symbols (repeated periods included)."""
    per = draw(periods)
    head = draw(sym_lists)
    cut = draw(st.integers(0, len(per)))
    run = per * draw(st.integers(0, 4)) + per[len(per) - cut:]
    return head + run, per * draw(st.integers(1, 3))


@given(absorbing_inputs())
def test_canonical_form_matches_the_one_symbol_at_a_time_route(case):
    pre, per = case
    seq = EPSeq(T3, tuple(pre), tuple(per))
    assert (seq.preperiod, seq.period) == _reference_canonical(pre, per)


def test_canonical_form_copies_nothing_when_nothing_is_absorbed():
    # the preperiod of (1m)^499999(m1)^w ends in m, the period in 1
    pre, per = (1, 2) * 499_999, (2, 1)
    tracemalloc.start()
    try:
        seq = EPSeq(T3, pre, per)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.preperiod == pre and seq.period == per
    assert peak < 1_000_000


@given(syms=sym_lists)
def test_word_round_trip(syms):
    w = Word(T3, tuple(syms))
    assert parse_seq(w.text(), T3) == w


def test_empty_period_rejected():
    with pytest.raises(ValueError):
        EPSeq(T3, (1,), ())


def test_symbols_validated_against_alphabet():
    with pytest.raises(ValueError):
        EPSeq(T3, (3,), (1,))
    with pytest.raises(ValueError):
        Word(T3, (0, 5))


# --- evaluation -------------------------------------------------------------

def test_pi_eval_known_values():
    assert pi_eval(parse_seq("1^w", T3), 2.0) == pytest.approx(1.0)
    assert pi_eval(parse_seq("m^w", T3), 2.5) == pytest.approx(2.0)
    # (m1)^w at q: (m q + 1) / (q^2 - 1)
    q = 2.25
    assert pi_eval(parse_seq("(m1)^w", T3), q) == pytest.approx(
        (3 * q + 1) / (q * q - 1), rel=1e-14)


def test_pi_word_is_the_finite_sum():
    q = 2.5
    assert pi_word(parse_seq("m01", T3), q) == pytest.approx(
        3 / q + 0 / q**2 + 1 / q**3, rel=1e-14)


def test_base_must_exceed_one():
    seq = parse_seq("1^w", T3)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            pi_eval(seq, bad)


def test_base_must_be_finite():
    # pi_eval once returned 0.0 at q = inf
    seq = parse_seq("1^w", T3)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="base must be finite"):
            pi_eval(seq, bad)
        with pytest.raises(ValueError, match="base must be finite"):
            pi_word(parse_seq("m01", T3), bad)
        with pytest.raises(ValueError, match="base must be finite"):
            pi_complement(parse_seq("(1m)^w", T3), 3.0, bad)


def test_pi_eval_matches_truncation_within_tail_bound():
    rng = random.Random(20240811)
    for _ in range(1000):
        m = rng.uniform(2.0, 6.0)
        alphabet = Alphabet.ternary(m)
        pre = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        per = tuple(rng.randrange(3) for _ in range(1, rng.randrange(1, 6) + 1))
        seq = EPSeq(alphabet, pre, per)
        q = rng.uniform(1.1, 4.0)
        n = rng.randrange(30, 60)
        # analytic tail bound plus a rounding allowance for the two sums
        bound = m * q ** (-n) / (q - 1.0) + 1e-12
        partial = sum(seq.alphabet.digits[seq.symbol(i)] * q ** (-(i + 1)) for i in range(n))
        assert abs(pi_eval(seq, q) - partial) <= bound


def test_pi_complement_matches_reflected_partial_sums():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.uniform(2.0, 5.0)
        alphabet = Alphabet.ternary(m)
        pre = tuple(rng.choice([1, 2]) for _ in range(rng.randrange(4)))
        per = tuple(rng.choice([1, 2]) for _ in range(1, rng.randrange(1, 5) + 1))
        seq = EPSeq(alphabet, pre, per)
        q = rng.uniform(2.05, 3.5)
        n = 80
        partial = sum((m - seq.alphabet.digits[seq.symbol(i)]) * q ** (-(i + 1)) for i in range(n))
        assert pi_complement(seq, m, q) == pytest.approx(partial, abs=1e-12)


def test_pi_complement_requires_zero_free_digits():
    with pytest.raises(ValueError):
        pi_complement(parse_seq("0(1m)^w", T3), 3.0, 2.5)
    with pytest.raises(ValueError):
        pi_complement(parse_seq("(1m)^w", T3), 4.0, 2.5)


# --- order and the tail recurrence ------------------------------------------

def test_lex_order_agrees_with_pi_above_saturation():
    """Above 1 + span/min_gap the value map is strictly increasing in
    lexicographic order, so constructed pairs must compare the same way."""
    rng = random.Random(991)
    q = 4.2  # saturation for m=3 is 4
    for _ in range(1000):
        k = rng.randrange(0, 13)
        common = [rng.randrange(3) for _ in range(k)]
        lo_sym = rng.randrange(0, 2)
        hi_sym = rng.randrange(lo_sym + 1, 3)
        tail_a = tuple(rng.randrange(3) for _ in range(1, rng.randrange(1, 4) + 1))
        tail_b = tuple(rng.randrange(3) for _ in range(1, rng.randrange(1, 4) + 1))
        a = EPSeq(T3, tuple(common + [lo_sym]), tail_a)
        b = EPSeq(T3, tuple(common + [hi_sym]), tail_b)
        assert pi_eval(a, q) < pi_eval(b, q)


def test_pi_drops_the_first_digit():
    """pi_q(c) = (c_1 + pi_q(c_2 c_3 ...)) / q, with the shifted sequence
    built from the preperiod, or from the period rotated by one."""
    rng = random.Random(5150)
    for _ in range(300):
        pre = tuple(rng.randrange(3) for _ in range(rng.randrange(5)))
        per = tuple(rng.randrange(3) for _ in range(1, rng.randrange(1, 5) + 1))
        seq = EPSeq(T3, pre, per)
        pre, per = seq.preperiod, seq.period
        if pre:
            rest = EPSeq(T3, pre[1:], per)
        else:
            rest = EPSeq(T3, (), per[1:] + per[:1])
        q = rng.uniform(1.2, 3.8)
        lhs = pi_eval(seq, q)
        rhs = seq.alphabet.digits[seq.symbol(0)] / q + pi_eval(rest, q) / q
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
