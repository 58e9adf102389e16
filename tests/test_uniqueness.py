"""Tests for uniqueness verdicts, forbidden blocks, and certificates."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from univoque import uniqueness
from univoque.automata import build_safety_automaton
from univoque.critical import COMPLEMENT, R, bisect_root, r_of_m, solve_pi_root
from univoque.sequences import (
    EPS_CMP,
    Alphabet,
    EPSeq,
    Word,
    _pi_closed,
    parse_seq,
    pi_complement,
    pi_eval,
    pi_word,
)
from univoque.uniqueness import (
    VerdictKind,
    Witness,
    certify_family,
    check_univoque_general,
    check_v_membership,
    is_forbidden_block,
    scan_forbidden,
)

T3 = Alphabet.ternary(3)
B01 = Alphabet.from_digits([0, 1])
B012 = Alphabet.from_digits([0, 1, 2])


def _zero_free(rng, m, max_pre=5, max_per=5):
    alphabet = Alphabet.ternary(m)
    pre = tuple(rng.choice([1, 2]) for _ in range(rng.randrange(max_pre + 1)))
    per = tuple(rng.choice([1, 2]) for _ in range(1, rng.randrange(1, max_per + 1) + 1))
    return EPSeq(alphabet, pre, per)


def _saturation(alphabet):
    """1 + span / min_gap: above this base every sequence is unique."""
    d = alphabet.digits
    return 1.0 + (d[-1] - d[0]) / min(b - a for a, b in zip(d, d[1:]))


# --- general checker --------------------------------------------------------

def test_all_ones_over_binary_alphabet_is_unique():
    v = check_univoque_general(parse_seq("1^w", B01), 1.5)
    assert v.kind is VerdictKind.PROVEN_UNIQUE


def test_top_digit_boundary_case_flagged():
    # 1^w over {0,1,2} at q=2: the raise condition holds with equality
    v = check_univoque_general(parse_seq("1^w", B012), 2.0)
    assert v.kind is VerdictKind.PROVEN_NOT_UNIQUE
    assert v.witness is not None
    assert v.witness.boundary
    assert v.witness.slack == pytest.approx(0.0, abs=1e-12)
    # raise and lower both have slack 0.0 there: the first position wins
    # the tie, and at one position "raise" comes before "lower"
    assert (v.witness.position, v.witness.condition) == (1, "raise")
    # at q=3 both conditions hold with slack 0.5, well clear of the margin
    v = check_univoque_general(parse_seq("1^w", B012), 3.0)
    assert v.kind is VerdictKind.PROVEN_UNIQUE
    assert v.witness.slack == pytest.approx(0.5, abs=1e-12)
    assert not v.witness.boundary


def test_a_verdict_builds_one_witness(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Witness(*args)

    monkeypatch.setattr(uniqueness, "Witness", counting)
    # 1^w over {0, 1, 2} tests two conditions at its one position
    v = check_univoque_general(parse_seq("1^w", B012), 3.0)
    assert v.witness == Witness(*built[0])
    assert len(built) == 1
    v = check_v_membership(parse_seq("1m1(1mm)^w", T3), 3.0, 2.4)
    assert v.witness is not None and len(built) == 2


def test_general_check_rejects_a_slack_that_overflows():
    # m/(q-1) overflows to inf, so the lower slack inf - inf is NaN
    seq = parse_seq("m^w", Alphabet.ternary(1e308))
    with pytest.raises(ValueError, match="the slack overflows a float"):
        check_univoque_general(seq, 1.5)


def test_alternating_binary_below_golden_ratio_not_unique():
    v = check_univoque_general(parse_seq("(10)^w", B01), 1.5)
    assert v.kind is VerdictKind.PROVEN_NOT_UNIQUE
    assert v.witness.position == 1
    assert v.witness.condition == "lower"
    # the violated margin is 1 - q/(q^2-1) = -0.2 at q = 1.5
    assert v.witness.slack == pytest.approx(-0.2, abs=1e-12)


def test_alternating_binary_flips_at_golden_ratio():
    phi = (1 + 5 ** 0.5) / 2
    seq = parse_seq("(10)^w", B01)
    assert check_univoque_general(seq, phi - 0.01).kind is VerdictKind.PROVEN_NOT_UNIQUE
    assert check_univoque_general(seq, phi + 0.01).kind is VerdictKind.PROVEN_UNIQUE


def test_constant_sequences_always_unique():
    rng = random.Random(31)
    for _ in range(50):
        digits = sorted(rng.sample(range(12), rng.randrange(2, 5)))
        alphabet = Alphabet.from_digits(digits)
        q = rng.uniform(1.05, 5.0)
        for ch in (alphabet.chars[0], alphabet.chars[-1]):
            v = check_univoque_general(parse_seq(f"{ch}^w", alphabet), q)
            assert v.kind is VerdictKind.PROVEN_UNIQUE


def test_everything_unique_above_saturation():
    rng = random.Random(77)
    for _ in range(200):
        digits = sorted(rng.sample(range(10), rng.randrange(2, 5)))
        alphabet = Alphabet.from_digits(digits)
        pre = tuple(rng.randrange(len(digits)) for _ in range(rng.randrange(4)))
        per = tuple(rng.randrange(len(digits))
                    for _ in range(1, rng.randrange(1, 4) + 1))
        seq = EPSeq(alphabet, pre, per)
        q = _saturation(alphabet) + rng.uniform(0.01, 2.0)
        assert check_univoque_general(seq, q).kind is VerdictKind.PROVEN_UNIQUE


def test_inconclusive_only_above_necessity_threshold():
    rng = random.Random(13)
    seen_inconclusive = 0
    for _ in range(500):
        digits = sorted(rng.sample(range(9), rng.randrange(2, 5)))
        alphabet = Alphabet.from_digits(digits)
        pre = tuple(rng.randrange(len(digits)) for _ in range(rng.randrange(4)))
        per = tuple(rng.randrange(len(digits))
                    for _ in range(1, rng.randrange(1, 4) + 1))
        seq = EPSeq(alphabet, pre, per)
        q = rng.uniform(1.05, _saturation(alphabet) + 1)
        v = check_univoque_general(seq, q)
        if v.kind is VerdictKind.INCONCLUSIVE:
            seen_inconclusive += 1
            assert q > alphabet.necessity_threshold
    assert seen_inconclusive > 0


def test_verdicts_monotone_in_q():
    """Once proven unique, a larger base can only keep it unique."""
    rng = random.Random(4242)
    for _ in range(300):
        m = rng.uniform(2.1, 4.5)
        seq = _zero_free(rng, m)
        q = rng.uniform(2.05, 3.5)
        if check_v_membership(seq, m, q).kind is VerdictKind.PROVEN_UNIQUE:
            for dq in (0.1, 0.5, 1.0):
                assert check_v_membership(seq, m, q + dq).kind \
                    is VerdictKind.PROVEN_UNIQUE


# --- zero-free membership ---------------------------------------------------

def test_top_constant_is_vacuously_member():
    v = check_v_membership(parse_seq("m^w", T3), 3.0, 2.3)
    assert v.kind is VerdictKind.PROVEN_UNIQUE
    assert v.witness is None


def test_pair_sequence_member_above_its_root():
    v = check_v_membership(parse_seq("(m1)^w", T3), 3.0, 2.25)
    assert v.kind is VerdictKind.PROVEN_UNIQUE
    assert v.witness.slack > 0


def test_membership_requires_zero_free():
    with pytest.raises(ValueError):
        check_v_membership(parse_seq("0(m1)^w", T3), 3.0, 2.5)


A0123 = Alphabet.from_digits([0, 1, 2, 3])


def _zero_free_entry_points(seq, m):
    """Every zero-free entry point, applied to one sequence: its symbols
    as a block string where the entry point takes blocks."""
    entry = [
        lambda: pi_complement(seq, m, 2.3),
        lambda: solve_pi_root(seq, COMPLEMENT, m),
        lambda: check_v_membership(seq, m, 2.3),
    ]
    if seq.alphabet == Alphabet.ternary(m):
        block = Word(seq.alphabet, seq.preperiod + seq.period).text()
        entry += [lambda: is_forbidden_block(block, m, 2.3),
                  lambda: certify_family([block], m, 2.3),
                  lambda: build_safety_automaton([block])]
    return entry


@pytest.mark.parametrize("text,alphabet,m,message", [
    ("1(m0)^w", T3, 3.0, "zero-free"),
    ("(1m)^w", T3, 4.0, "top digit"),
    ("2(13)^w", A0123, 3.0, "zero-free"),
])
def test_one_zero_free_check_for_every_caller(text, alphabet, m, message):
    for call in _zero_free_entry_points(parse_seq(text, alphabet), m):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("block,fault", [
    (("1", "1"), "block must be a str, got tuple"),
    (7, "block must be a str, got int"),
    ("", "block must be nonempty"),
    ("10", "zero-free, got '0' at offset 1"),
    ("1x", "unknown digit character 'x' at offset 1"),
    ("m1m0x", "zero-free, got '0' at offset 3"),
    ("11x0", "unknown digit character 'x' at offset 2"),
])
def test_one_block_fault_one_error(block, fault):
    def error(call):
        with pytest.raises((TypeError, ValueError)) as info:
            call()
        return info.type, str(info.value)

    expected = error(lambda: build_safety_automaton([block]))
    assert fault in expected[1]
    assert error(lambda: certify_family([block], 3.0, 2.3)) == expected
    if isinstance(block, str):
        assert error(lambda: is_forbidden_block(block, 3.0, 2.3)) == expected


def test_every_zero_free_entry_point_refuses_an_infinite_m():
    for call in (lambda: check_v_membership(parse_seq("(1m)^w", T3), math.inf, 2.3),
                 lambda: certify_family(["m1"], math.inf, 2.3),
                 lambda: is_forbidden_block("m1", math.inf, 2.3),
                 lambda: scan_forbidden(math.inf, 2.3, 4)):
        with pytest.raises(ValueError, match="^m must be finite, got inf$"):
            call()


def test_zero_free_check_covers_every_digit_and_the_top_digit():
    # a digit other than 1 and m is refused even where it sits before
    # every digit 1, or where no digit 1 occurs
    for text in ("2(13)^w", "2^w", "23^w"):
        with pytest.raises(ValueError, match="zero-free"):
            check_v_membership(parse_seq(text, A0123), 3.0, 2.3)
    # a sequence of ones is refused when m is not its alphabet's top digit
    with pytest.raises(ValueError, match="top digit"):
        check_v_membership(parse_seq("1^w", T3), 4.0, 2.3)


def test_membership_refuses_alphabets_other_than_0_1_m():
    # {0, 1, 2, 3} passes the zero-free check with m = 3, but its gaps
    # are not those of {0, 1, m}
    with pytest.raises(ValueError, match="alphabet"):
        check_v_membership(parse_seq("(13)^w", A0123), 3.0, 2.3)
    # the digits decide, not the characters that write them
    v = check_v_membership(parse_seq("(12)^w", Alphabet.from_digits([0, 1, 3])),
                           3.0, 2.3)
    assert v == check_v_membership(parse_seq("(1m)^w", T3), 3.0, 2.3)


def test_membership_requires_q_above_two():
    with pytest.raises(ValueError):
        check_v_membership(parse_seq("(m1)^w", T3), 3.0, 1.9)


def test_membership_agrees_with_general_checker():
    """On zero-free input the two checkers must reach the same verdict
    (away from boundary slack, where the margin decides)."""
    rng = random.Random(2718)
    agreements = 0
    for _ in range(400):
        m = rng.uniform(2.1, 5.0)
        seq = _zero_free(rng, m)
        q = rng.uniform(2.05, R(m) + 0.4)
        special = check_v_membership(seq, m, q)
        if special.witness is not None and abs(special.witness.slack) < 1e-6:
            continue
        general = check_univoque_general(seq, q)
        assert special.kind is general.kind
        agreements += 1
    assert agreements > 300


def _dropped(seq, n):
    """``seq`` with its first n symbols dropped, built as a new EPSeq."""
    pre, per = seq.preperiod, seq.period
    if n <= len(pre):
        return EPSeq(seq.alphabet, pre[n:], per)
    k = (n - len(pre)) % len(per)
    return EPSeq(seq.alphabet, (), per[k:] + per[:k])


def _reference_witnesses(seq, q, only=None):
    """Every condition of the checkers' loop as a Witness, with each tail
    evaluated as pi_eval of the sequence with its first n symbols
    dropped, O(L) per position: an independent float route to the
    checkers' slacks."""
    digits = seq.alphabet.digits
    lo_tail = digits[0] / (q - 1.0)
    hi_tail = digits[-1] / (q - 1.0)
    found = []
    for n in range(1, len(seq.preperiod) + len(seq.period) + 1):
        j = seq.symbol(n - 1)
        if only is not None and j != only:
            continue
        tail = pi_eval(_dropped(seq, n), q)
        slacks = []
        if j < len(digits) - 1:
            slacks.append(("raise", (digits[j + 1] - digits[j]) - (tail - lo_tail)))
        if j > 0:
            slacks.append(("lower", (digits[j] - digits[j - 1]) - (hi_tail - tail)))
        found += [Witness(n, side, slack, abs(slack) <= EPS_CMP)
                  for side, slack in slacks]
    return found


def _reference_worst_witness(seq, q, only=None):
    """The first lowest of _reference_witnesses, or None."""
    return min(_reference_witnesses(seq, q, only), key=lambda w: w.slack, default=None)


def _slack_bound(digits, q):
    """B, a bound on how far the checkers' float slack can lie from the
    dropped-prefix route's, or from the exact slack at the float q.

    Let u = 2**-53, D = max |digit|, S = D + D/(q-1) and r = q/(q-1).
    Every tail and every Horner partial sum lies within D/(q-1) of 0,
    and every sum c + t formed on the way within S.

    - A step t -> (c + t)/q rounds the sum (at most u*S) and the
      quotient (at most u*S/q) and divides the error it carries by q,
      so from an error e it leaves at most (e + 2u*S)/q.  Over the p
      symbols of a period, started from 0, that is at most
      2u*S*(1 - q**-p)/(q-1).
    - Dividing by 1 - q**-p, computed with relative error at most
      u + 2u/(q**p - 1), gives a periodic tail within
      2u*S/(q-1) + 2u*S/q + 2u*S/(q*(q-1)) <= 6u*S*r of its value, and
      the recurrence keeps every later tail within that bound too.
      pi_eval's extra product and sum add at most 2u*S*r.
    - The slack rounds d/(q-1), a difference of tails, a difference of
      digits and the final difference, each at most 2u*S.

    So either route's slack lies within 16u*S*r of the exact slack, to
    first order, and the two within 32u*S*r of each other.  B doubles
    that, to 64u*S*r, which absorbs the second-order terms and a
    ``pow`` a few ulps off.
    """
    d = max(map(abs, digits))
    return 64 * 2.0 ** -53 * (d + d / (q - 1.0)) * q / (q - 1.0)


def _assert_matches_reference(verdict, seq, q, only=None):
    """The verdict against the dropped-prefix route, up to B = _slack_bound.

    B bounds |slack - reference slack| at every condition, so the two
    minima differ by at most B, and the reference's slack at the
    returned witness is at most the returned slack + B <= the returned
    slack at the reference's witness + B <= the reference's minimum
    + 2B: a different (position, condition) is a tie at float
    resolution.  The kinds agree unless the reference's minimum lies
    within B of the margin EPS_CMP that decides them."""
    ref = _reference_worst_witness(seq, q, only)
    got = verdict.witness
    if ref is None:
        assert got is None and verdict.kind is VerdictKind.PROVEN_UNIQUE
        return
    bound = _slack_bound(seq.alphabet.digits, q)
    assert abs(got.slack - ref.slack) <= bound
    if abs(ref.slack - EPS_CMP) > bound:
        assert verdict.kind is uniqueness._decide(
            ref, q, seq.alphabet.necessity_threshold).kind
    if (got.position, got.condition) != (ref.position, ref.condition):
        at_got, = (w for w in _reference_witnesses(seq, q, only)
                   if (w.position, w.condition) == (got.position, got.condition))
        assert at_got.slack - ref.slack <= 2 * bound


_SYMBOLS = st.lists(st.integers(0, 4), max_size=14)
# whole bases, where exact ties are common, and any base
_BASES = st.one_of(st.sampled_from([2.0, 3.0, 4.0]), st.floats(1.05, 6.0))


def _general_seq(digits, pre, per):
    alphabet = Alphabet.from_digits(sorted(d / 2 for d in digits))
    k = len(digits)
    return EPSeq(alphabet, tuple(s % k for s in pre), tuple(s % k for s in per))


def _zero_free_seq(m, pre, per):
    # over {1, m}: symbol 1 or 2 of {0, 1, m}
    return EPSeq(Alphabet.ternary(m), tuple(1 + s % 2 for s in pre),
                 tuple(1 + s % 2 for s in per))


@settings(max_examples=300, deadline=None)
@given(digits=st.lists(st.integers(-6, 12), min_size=2, max_size=5, unique=True),
       pre=_SYMBOLS, per=_SYMBOLS.filter(bool), q=st.floats(1.05, 6.0))
def test_general_witness_matches_the_dropped_prefix_route(digits, pre, per, q):
    seq = _general_seq(digits, pre, per)
    _assert_matches_reference(check_univoque_general(seq, q), seq, q)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(2.0, 6.0), pre=_SYMBOLS, per=_SYMBOLS.filter(bool),
       q=st.floats(2.001, 4.0))
def test_membership_witness_matches_the_dropped_prefix_route(m, pre, per, q):
    seq = _zero_free_seq(m, pre, per)
    _assert_matches_reference(check_v_membership(seq, m, q), seq, q, only=1)


def _exact_pi(seq, q):
    """pi_q of an EPSeq in Fractions: exact at the float digits and base."""
    digits = [Fraction(d) for d in seq.alphabet.digits]
    q = Fraction(q)

    def horner(symbols):
        s = Fraction(0)
        for i in reversed(symbols):
            s = (s + digits[i]) / q
        return s

    # pre per^inf: pi_q(pre) + q**-|pre| * pi_q(per) * q**p / (q**p - 1)
    p = len(seq.period)
    head = horner(seq.preperiod)
    return head + horner(seq.period) * q ** (p - len(seq.preperiod)) / (q ** p - 1)


def _exact_worst_slack(seq, q, only=None):
    """The lowest slack over the checkers' conditions, exactly, or None."""
    digits = [Fraction(d) for d in seq.alphabet.digits]
    lo_tail = digits[0] / (Fraction(q) - 1)
    hi_tail = digits[-1] / (Fraction(q) - 1)
    slacks = []
    for n in range(1, len(seq.preperiod) + len(seq.period) + 1):
        j = seq.symbol(n - 1)
        if only is not None and j != only:
            continue
        tail = _exact_pi(_dropped(seq, n), q)
        if j < len(digits) - 1:
            slacks.append((digits[j + 1] - digits[j]) - (tail - lo_tail))
        if j > 0:
            slacks.append((digits[j] - digits[j - 1]) - (hi_tail - tail))
    return min(slacks, default=None)


def _assert_matches_exact(verdict, seq, q, only=None):
    """The slack within B = _slack_bound of the exact worst slack, and
    the kind the exact slack decides unless it lies within B of EPS_CMP."""
    exact = _exact_worst_slack(seq, q, only)
    if exact is None:
        assert verdict.witness is None and verdict.kind is VerdictKind.PROVEN_UNIQUE
        return
    bound = _slack_bound(seq.alphabet.digits, q)
    assert abs(Fraction(verdict.witness.slack) - exact) <= bound
    if abs(exact - Fraction(EPS_CMP)) > bound:
        if exact > EPS_CMP:
            kind = VerdictKind.PROVEN_UNIQUE
        elif q <= seq.alphabet.necessity_threshold + EPS_CMP:
            kind = VerdictKind.PROVEN_NOT_UNIQUE
        else:
            kind = VerdictKind.INCONCLUSIVE
        assert verdict.kind is kind


@settings(max_examples=200, deadline=None)
@given(digits=st.lists(st.integers(-6, 12), min_size=2, max_size=5, unique=True),
       pre=_SYMBOLS, per=_SYMBOLS.filter(bool), q=_BASES,
       m=st.floats(2.0, 6.0), zq=st.floats(2.001, 4.0))
def test_verdicts_match_the_exact_worst_slack(digits, pre, per, q, m, zq):
    seq = _general_seq(digits, pre, per)
    _assert_matches_exact(check_univoque_general(seq, q), seq, q)
    seq = _zero_free_seq(m, pre, per)
    _assert_matches_exact(check_v_membership(seq, m, zq), seq, zq, only=1)


def _counting_horner(monkeypatch):
    calls = []

    def counting(symbols, digits, q, _horner=uniqueness._horner):
        calls.append(len(symbols))
        return _horner(symbols, digits, q)

    monkeypatch.setattr(uniqueness, "_horner", counting)
    return calls


@pytest.mark.parametrize("p", [1, 7, 64])
def test_a_verdict_makes_one_horner_pass(monkeypatch, p):
    rng = random.Random(p)
    seq = EPSeq(T3, (1, 2, 2), tuple(rng.choice([1, 2]) for _ in range(p)))
    calls = _counting_horner(monkeypatch)
    check_univoque_general(seq, 2.4)
    check_v_membership(seq, 3.0, 2.4)
    # one closed form per verdict, over the period; no pass per position
    assert calls == [p, p]


@pytest.mark.parametrize("text", ["0(1)^w", "1^w"])
def test_exact_ties_go_to_the_earliest_position_and_raise(text):
    # at q = 2 over {0, 1, 2} every tail is 1.0 and every slack 0.0
    # exactly: 0(1)^w ties position 1 "raise" with position 2 "raise"
    # and "lower", 1^w ties "raise" with "lower" at position 1
    w = check_univoque_general(parse_seq(text, B012), 2.0).witness
    assert (w.position, w.condition, w.slack) == (1, "raise", 0.0)


# --- forbidden blocks -------------------------------------------------------

def test_scan_small_fixtures():
    assert [w.text() for w in scan_forbidden(2.0, 2.6, 2)] == ["1m"]
    assert [w.text() for w in scan_forbidden(3.0, 2.5, 3)] == ["111"]


def test_scan_at_the_uncountability_threshold_for_m_3():
    words = [w.text() for w in scan_forbidden(3.0, r_of_m(3.0), 7)]
    assert words == ["111", "1mmm", "11m11", "11m1m1",
                     "1mm1mm", "11m1mm1", "1mm1m1m"]


def test_scan_results_are_minimal_and_ordered():
    words = [w.text() for w in scan_forbidden(3.0, 2.35, 7)]
    for i, w in enumerate(words):
        assert not any(other in w for other in words[:i] + words[i + 1:])
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_longer_block_beyond_the_first_seven():
    # 1 mm1m11mm1 is not forbidden at the m=3 threshold but becomes
    # forbidden a little below it; bisecting the test itself puts the
    # crossing near 2.3700310, against r(3) = 2.3701991
    w = "mm1m11mm1"
    r3 = r_of_m(3.0)
    assert not is_forbidden_block(w, 3.0, r3)
    assert is_forbidden_block(w, 3.0, 2.3)
    assert is_forbidden_block(w, 3.0, 2.1)
    crossing = bisect_root(
        lambda q: 1.0 if is_forbidden_block(w, 3.0, q) else -1.0, 2.05, r3)
    assert 2.37003 < crossing < 2.3700311


def test_forbidden_block_validates_inputs():
    with pytest.raises(ValueError):
        is_forbidden_block("m1", 3.0, 2.0)  # q must exceed 2
    with pytest.raises(ValueError):
        is_forbidden_block("m1", 3.0, R(3.0) + 0.1)
    with pytest.raises(ValueError):
        is_forbidden_block("", 3.0, 2.3)
    with pytest.raises(ValueError):
        is_forbidden_block("1x", 3.0, 2.3)


def test_forbidden_block_names_a_non_finite_m_and_a_non_str_w():
    with pytest.raises(ValueError, match="m must be finite, got inf"):
        is_forbidden_block("1m", math.inf, 2.3)
    # a list of characters was once accepted as a block
    with pytest.raises(TypeError, match="w must be a str, got list"):
        is_forbidden_block(["1", "m"], 3.0, 2.3)
    with pytest.raises(TypeError, match="w must be a str, got tuple"):
        is_forbidden_block((1, 2), 3.0, 2.3)


def test_scan_validates_m_and_q_even_when_it_tests_no_word():
    # lmax = 1 tests no word, so no block test can catch these
    for lmax in (1, 2):
        with pytest.raises(ValueError, match=r"q=99 outside \(2, 2.5\]"):
            scan_forbidden(3, 99, lmax)
        with pytest.raises(ValueError, match=r"q=1.5 outside"):
            scan_forbidden(3, 1.5, lmax)
        with pytest.raises(ValueError, match="m must be at least 2"):
            scan_forbidden(1.5, 2.3, lmax)
        with pytest.raises(ValueError, match="m must be finite"):
            scan_forbidden(math.inf, 2.3, lmax)


R3 = r_of_m(3.0)
# scan_forbidden(3.0, r(3), 16)
R3_BLOCKS = ("111", "1mmm", "11m11", "11m1m1", "1mm1mm", "11m1mm1", "1mm1m1m",
             "1mm1m11mm1m", "1mm1m11mm11mm1m")


def _reference_is_forbidden_block(w, m, q):
    """The block test's two bounds and its verdict, with the completions
    built as EPSeqs over {0, 1, m} and valued by pi_eval: the route the
    closed form on plain strings must reproduce bit for bit."""
    alphabet = Alphabet.ternary(m)
    symbols = tuple(alphabet.index_of_char(c) for c in w)
    lowest = pi_eval(EPSeq(alphabet, symbols, (1,)), q)
    highest = pi_eval(EPSeq(alphabet, symbols, (2,)), q)
    forbidden = (lowest >= m - 1.0 - EPS_CMP
                 or highest <= m / (q - 1.0) - 1.0 + EPS_CMP)
    return lowest, highest, forbidden


# (m, q) with q in (2, R(m)], m an int or a float
_BLOCK_PARAMS = st.one_of(st.integers(2, 6), st.floats(2.0, 6.0)).flatmap(
    lambda m: st.tuples(st.just(m), st.floats(2.0, R(m), exclude_min=True)))


@settings(max_examples=500, deadline=None)
@given(w=st.text(alphabet="1m", min_size=1, max_size=16), params=_BLOCK_PARAMS)
def test_block_bounds_match_the_epseq_route(w, params):
    m, q = params
    bounds = []

    def recording(*args):
        bounds.append(_pi_closed(*args))
        return bounds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniqueness, "_pi_closed", recording)
        verdict = is_forbidden_block(w, m, q)
    lowest, highest, forbidden = _reference_is_forbidden_block(w, m, q)
    assert bounds == [lowest, highest]
    assert verdict is forbidden


for _block in R3_BLOCKS:
    test_block_bounds_match_the_epseq_route = example(
        w=_block[1:], params=(3.0, R3))(test_block_bounds_match_the_epseq_route)


def test_scan_builds_no_epseq(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("EPSeq built during a scan")

    monkeypatch.setattr(EPSeq, "__init__", refuse)
    with pytest.raises(AssertionError):
        EPSeq(T3, (), (1,))
    assert [w.text() for w in scan_forbidden(3.0, R3, 16)] == list(R3_BLOCKS)


def test_forbidden_blocks_kill_membership():
    """Embedding a forbidden block anywhere in a sequence rules it out
    (below the necessity threshold the conditions are two-sided)."""
    rng = random.Random(808)
    checked = 0
    for _ in range(200):
        m = rng.uniform(2.2, 4.0)
        q = rng.uniform(2.1, R(m) - 0.05)
        found = scan_forbidden(m, q, 6)
        if not found:
            continue
        block = rng.choice(found)
        alphabet = block.alphabet
        filler = tuple(rng.choice([1, 2]) for _ in range(rng.randrange(4)))
        per = tuple(rng.choice([1, 2])
                    for _ in range(1, rng.randrange(1, 4) + 1))
        seq = EPSeq(alphabet, filler + block.symbols, per)
        v = check_v_membership(seq, m, q)
        assert v.kind is VerdictKind.PROVEN_NOT_UNIQUE
        checked += 1
    assert checked > 100


def _scan_by_brute_force(m, q, lmax):
    """Reference scan: every word 1w of each length, in lex order.

    Returns the kept blocks and the tails w passed to is_forbidden_block.
    """
    alphabet = Alphabet.ternary(m)
    kept, tested = [], []
    for length in range(2, lmax + 1):
        for tail in product((1, 2), repeat=length - 1):
            text = Word(alphabet, (1,) + tail).text()
            if any(k in text for k in kept):
                continue
            tested.append(text[1:])
            if is_forbidden_block(text[1:], m, q):
                kept.append(text)
    return kept, tested


def _recorded_scan(m, q, lmax):
    """scan_forbidden's blocks as text and the tails it passed to
    is_forbidden_block."""
    tested = []

    def recording(w, *args):
        tested.append(w)
        return is_forbidden_block(w, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniqueness, "is_forbidden_block", recording)
        found = [w.text() for w in scan_forbidden(m, q, lmax)]
    return found, tested


@settings(max_examples=60, deadline=None)
@given(m=st.floats(2.0, 5.0), lmax=st.integers(1, 10), data=st.data())
def test_scan_matches_brute_force(m, lmax, data):
    # q ranges over (2, R(m)], so above r(m) too, where the frontier grows
    q = data.draw(st.floats(2.0, R(m), exclude_min=True), label="q")
    expected, expected_tested = _scan_by_brute_force(m, q, lmax)
    found, tested = _recorded_scan(m, q, lmax)
    assert found == expected
    # the scan tests some of the brute-force words, in the same order,
    # every kept block among them, and the words it skips are not forbidden
    remaining = iter(expected_tested)
    assert all(w in remaining for w in tested)
    assert {k[1:] for k in expected} <= set(tested)
    skipped = set(expected_tested) - set(tested)
    assert all(is_forbidden_block(w, m, q) is False for w in skipped)


def _reference_frontier_scan(m, q, lmax):
    """scan_forbidden without the boundary walk: every extension that
    avoids the kept blocks and is not kept joins the next frontier.
    Returns the blocks as text and the tails passed to is_forbidden_block."""
    allowance = (m + 1.0) * uniqueness._HEAD_SUM_ALLOWANCE
    lo_cut = m - 1.0 - EPS_CMP
    hi_cut = m / (q - 1.0) - 1.0 + EPS_CMP
    kept, tested = (), []
    frontier = [("", 0.0)]
    t = 1.0
    for _ in range(2, lmax + 1):
        t /= q
        low, high = t / (q - 1.0), m * t / (q - 1.0)
        grown = []
        for tail, h in frontier:
            for c, d in (("1", t), ("m", m * t)):
                ext = tail + c
                if ("1" + ext).endswith(kept):
                    continue
                hd = h + d
                if not (hd + low + allowance < lo_cut and hd + high - allowance > hi_cut):
                    tested.append(ext)
                    if is_forbidden_block(ext, m, q):
                        kept += ("1" + ext,)
                        continue
                grown.append((ext, hd))
        frontier = grown
    return list(kept), tested


# above r(m), where the full frontier nearly doubles with each length
@pytest.mark.parametrize("m, q", [
    (3.0, 2.5), (2.2, R(2.2)), (4.5, R(4.5)), (3.0, R3 + 1e-9)])
def test_boundary_walk_matches_the_full_frontier_at_depth_16(m, q):
    assert _recorded_scan(m, q, 16) == _reference_frontier_scan(m, q, 16)


@settings(max_examples=100, deadline=None)
@given(params=_BLOCK_PARAMS, lmax=st.integers(1, 12))
# the scan's frontier empties at length 2, 3, 4 and 5 of the 16 it may reach
@example(params=(2.0, 2.45), lmax=16)
@example(params=(2.5, 2.05), lmax=16)
@example(params=(3.0, 2.15), lmax=16)
@example(params=(3.0, 2.025), lmax=16)
def test_boundary_walk_matches_the_full_frontier(params, lmax):
    m, q = params
    assert _recorded_scan(m, q, lmax) == _reference_frontier_scan(m, q, lmax)


def _flip(w, m, a, b):
    """Adjacent floats a < b on which is_forbidden_block(w, m, .) differs,
    bisected from a bracket [a, b] on which it does."""
    at_a = is_forbidden_block(w, m, a)
    assert is_forbidden_block(w, m, b) is not at_a
    while math.nextafter(a, b) != b:
        mid = (a + b) / 2
        if is_forbidden_block(w, m, mid) is at_a:
            a = mid
        else:
            b = mid
    return a, b


def _close_calls():
    """(tail, q) at and next to the floats where a block test flips: each
    tail of R3_BLOCKS that flips on (2, r(3)] or [r(3), R(3)], and the
    flip of mm1m11mm1 near 2.3700310."""
    cases = []
    for block in R3_BLOCKS:
        w = block[1:]
        for a, b in ((2.0 + 1e-12, R3), (R3, R(3.0))):
            if is_forbidden_block(w, 3.0, a) is not is_forbidden_block(w, 3.0, b):
                cases.append((w, _flip(w, 3.0, a, b)))
    # mm1m11mm1 and its prefix mm1m11mm share the completion
    # mm1m11mm 1^inf, so they flip at the same float, and there the scan
    # meets the prefix first: 1mm1m11mm is the block that comes and goes
    flip = _flip("mm1m11mm1", 3.0, 2.3, R3)
    assert _flip("mm1m11mm", 3.0, 2.3, R3) == flip
    cases.append(("mm1m11mm", flip))
    return [(w, q) for w, (a, b) in cases
            for q in (math.nextafter(a, 0.0), a, b, math.nextafter(b, 3.0))]


def test_scan_sends_close_calls_to_the_block_test():
    cases = _close_calls()
    assert len(cases) >= 4 * 8
    for w, q in cases:
        found, tested = _recorded_scan(3.0, q, len(w) + 1)
        assert found == _scan_by_brute_force(3.0, q, len(w) + 1)[0]
        assert w in tested, (w, q)


def _reference_head_bounds(w, m, q):
    """The scan's carried bounds on w 1^inf and w m^inf: the head sum and
    weight updated symbol by symbol, with the scan's float operations."""
    h, t = 0.0, 1.0
    for c in w:
        t /= q
        h = h + (t if c == "1" else m * t)
    return h + t / (q - 1.0), h + m * t / (q - 1.0)


@settings(max_examples=500, deadline=None)
@given(w=st.text(alphabet="1m", min_size=1, max_size=15), params=_BLOCK_PARAMS)
def test_head_bounds_lie_well_within_the_allowance(w, params):
    m, q = params
    allowance = (m + 1.0) * uniqueness._HEAD_SUM_ALLOWANCE
    lo, hi = _reference_head_bounds(w, m, q)
    digits = {"1": 1.0, "m": float(m)}
    assert abs(lo - _pi_closed(w.rstrip("1"), "1", digits, q)) <= allowance / 64
    assert abs(hi - _pi_closed(w.rstrip("m"), "m", digits, q)) <= allowance / 64


@pytest.mark.parametrize("q", [2.5, R3])
def test_scan_tests_about_as_many_words_as_it_keeps(q):
    # testing every word the scan meets took 19,512 calls at q = 2.5,
    # which keeps one block, and 371 at r(3)
    found, tested = _recorded_scan(3.0, q, 16)
    assert len(tested) <= len(found) + 3


def test_scan_limits():
    with pytest.raises(ValueError):
        scan_forbidden(3.0, 2.3, 0)
    with pytest.raises(ValueError):
        scan_forbidden(3.0, 2.3, 17)


@pytest.mark.parametrize("lmax, kind", [(2.0, "float"), (True, "bool")])
def test_scan_takes_lmax_only_as_an_int(lmax, kind):
    # 2.0 once failed inside range() and True scanned as lmax 1
    with pytest.raises(TypeError, match=f"lmax must be an int, got {kind}"):
        scan_forbidden(3, 2.3, lmax)


# --- families ---------------------------------------------------------------

def test_certify_family_rejects_empty_blocks():
    with pytest.raises(ValueError, match="at least one block"):
        certify_family([], 4.0, 2.25)
    with pytest.raises(ValueError, match="nonempty"):
        certify_family(["mm1", ""], 4.0, 2.25)
    with pytest.raises(ValueError, match="unknown digit character"):
        certify_family(["mm1", "mx"], 4.0, 2.25)


CERTIFIED = [
    (("mmmmm1", "mmmmmm1"), 3.0, 2.5),
    (("m111", "m1111"), 2.0, 2.65),
    (("mm1", "mm1m1"), 4.0, 2.25),
]


@pytest.mark.parametrize("texts,m,q", CERTIFIED)
def test_known_families_certify(texts, m, q):
    assert certify_family(texts, m, q)


@pytest.mark.parametrize("texts,m,q", CERTIFIED)
def test_known_families_fail_below_the_threshold(texts, m, q):
    assert not certify_family(texts, m, r_of_m(m) - 0.01)


def test_certified_concatenations_are_members():
    """Any periodic word built from certified blocks must pass the
    membership check at the same parameters."""
    rng = random.Random(606)
    for texts, m, q in CERTIFIED:
        assert certify_family(texts, m, q)
        for _ in range(25):
            picks = [rng.choice(texts) for _ in range(rng.randrange(1, 5))]
            seq = parse_seq(f"({''.join(picks)})^w", Alphabet.ternary(m))
            assert check_v_membership(seq, m, q).kind \
                is VerdictKind.PROVEN_UNIQUE


def test_certify_family_validates_inputs():
    with pytest.raises(ValueError):
        certify_family(["m1"], 3.0, 1.9)


def test_certify_family_takes_blocks_as_strings():
    # a bare str once split into one-symbol blocks
    with pytest.raises(TypeError, match="not a str"):
        certify_family("mm1", 4.0, 2.25)
    with pytest.raises(TypeError, match="block must be a str, got tuple"):
        certify_family([("m", "m", "1")], 4.0, 2.25)
    assert certify_family((t for t in ("mm1", "mm1m1")), 4.0, 2.25)


def _greedy_prefix(suffix, blocks, depth, take_max):
    """Lexicographically extreme length-``depth`` prefix of suffix.blocks^inf,
    chosen greedily symbol by symbol over the (block, offset) states."""
    out = list(suffix[:depth])
    states = {(bi, 0) for bi in range(len(blocks))}
    pick = max if take_max else min
    while len(out) < depth:
        emitted = {}
        for bi, off in states:
            emitted.setdefault(blocks[bi][off], set()).add((bi, off))
        sym = pick(emitted)
        nxt = set()
        for bi, off in emitted[sym]:
            if off + 1 < len(blocks[bi]):
                nxt.add((bi, off + 1))
            else:
                nxt.update((j, 0) for j in range(len(blocks)))
        out.append(sym)
        states = nxt
    return out


def _reference_family_tails(texts, m, q, depth=64):
    """Per digit-1 suffix class, the supremum bound and the infimum of the
    tail: each extreme expanded greedily to ``depth`` symbols, the
    supremum plus the worst-case remainder m q**-depth / (q - 1)."""
    alphabet = Alphabet.ternary(m)
    words = [tuple(alphabet.index_of_char(c) for c in t) for t in texts]
    remainder = m * q ** (-depth) / (q - 1.0)
    suffixes = {b[j + 1:] for b in words for j in range(len(b)) if b[j] == 1}

    def prefix(s, take_max):
        return pi_word(Word(alphabet, tuple(_greedy_prefix(s, words, depth, take_max))), q)

    return [(prefix(s, True) + remainder, prefix(s, False)) for s in sorted(suffixes)]


def _reference_certify_family(texts, m, q):
    """The depth-64 route: every bound must clear its threshold."""
    return all(sup < m - 1.0 - EPS_CMP and m / (q - 1.0) - inf < 1.0 - EPS_CMP
               for sup, inf in _reference_family_tails(texts, m, q))


_FAMILY_BLOCKS = st.lists(st.text(alphabet="1m", min_size=1, max_size=10),
                          min_size=1, max_size=5)
# (m, q) with m in [2, 5] and q in (2, R(m)]
_FAMILY_PARAMS = st.floats(2.0, 5.0).flatmap(
    lambda m: st.tuples(st.just(m), st.floats(2.0, R(m), exclude_min=True)))


@settings(max_examples=400, deadline=None)
@given(texts=_FAMILY_BLOCKS, params=_FAMILY_PARAMS)
def test_certify_family_matches_the_depth_64_route(texts, params):
    m, q = params
    if any(abs(sup - (m - 1.0 - EPS_CMP)) < 1e-12
           or abs(m / (q - 1.0) - inf - (1.0 - EPS_CMP)) < 1e-12
           for sup, inf in _reference_family_tails(texts, m, q)):
        return  # the truncation and remainder may decide there
    assert certify_family(texts, m, q) == _reference_certify_family(texts, m, q)


for _texts, _m, _q in [(("mmmmm1", "mmmmmm1"), 3.0, 2.5),
                       (("m111", "m1111"), 2.0, 2.65),
                       (("mm1", "mm1m1"), 4.0, 2.25)]:
    test_certify_family_matches_the_depth_64_route = example(
        texts=_texts, params=(_m, _q))(test_certify_family_matches_the_depth_64_route)


def _expand(pre, per, length):
    return (list(pre) + list(per) * length)[:length]


@settings(max_examples=300, deadline=None)
@given(texts=_FAMILY_BLOCKS, params=_FAMILY_PARAMS)
def test_family_extremes_are_short_and_valued_as_pi_eval(texts, params):
    m, q = params
    alphabet = Alphabet.ternary(m)
    words = [tuple(alphabet.index_of_char(c) for c in t) for t in texts]
    n = sum(map(len, words))
    extreme = uniqueness._extreme
    extremes = []
    for pick, take_max in ((max, True), (min, False)):
        pre, per = extreme(words, pick)
        assert len(pre) + len(per) <= n
        assert _expand(pre, per, 10 * n) == _greedy_prefix((), words, 10 * n, take_max)
        extremes.append((pre, per))
    suffixes = {b[j + 1:] for b in words for j in range(len(b)) if b[j] == 1}
    expected = {}
    for suffix in suffixes:
        for pre, per in extremes:
            seq = EPSeq(alphabet, suffix + pre, per)
            expected[seq.preperiod, seq.period] = pi_eval(seq, q)
    walks, valued = [], {}

    def counting(*args):
        walks.append(args)
        return extreme(*args)

    def recording(pre, per, digits, q):
        valued[pre, per] = _pi_closed(pre, per, digits, q)
        return valued[pre, per]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniqueness, "_extreme", counting)
        mp.setattr(uniqueness, "_pi_closed", recording)
        certified = certify_family(texts, m, q)
    # one walk per extreme, whatever the number of suffix classes
    assert len(walks) == 2
    # each tail is the float pi_eval gives for its EPSeq
    assert all(expected[key] == value for key, value in valued.items())
    if certified:
        assert valued.keys() == expected.keys()


@pytest.mark.parametrize("m,q,certified", [
    (3.0, 2.1, False), (3.0, 2.2, True), (3.0, R3 - 1e-3, True),
    (4.0, 2.05, True), (4.0, r_of_m(4.0) - 1e-3, True),
])
def test_commuting_blocks_certify_one_periodic_sequence(m, q, certified):
    # both families generate only (1m)^w, so certifying the first says
    # nothing about uncountably many sequences; the True values below
    # r(m) are the pitfall the docstring states, not refused
    assert certify_family(["1m", "1m1m"], m, q) is certified
    assert certify_family(["1m"], m, q) is certified
    assert q < r_of_m(m)


def test_checkers_refuse_an_infinite_base():
    # at q = inf every tail is 0, so each check once passed
    seq = parse_seq("(m1)^w", T3)
    with pytest.raises(ValueError, match="base must be finite"):
        check_univoque_general(seq, math.inf)
    with pytest.raises(ValueError, match="finite q > 2, got inf"):
        check_v_membership(seq, 3.0, math.inf)
    with pytest.raises(ValueError, match="finite q > 2, got inf"):
        certify_family(["mm1", "mm1m1"], 4.0, math.inf)
