"""Tests for uniqueness verdicts, forbidden blocks, and certificates."""

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from univoque import uniqueness
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
    """Every caller of the zero-free check, applied to one sequence:
    its symbols as a block string where the caller takes blocks."""
    entry = [
        lambda: pi_complement(seq, m, 2.3),
        lambda: solve_pi_root(seq, COMPLEMENT, m),
        lambda: check_v_membership(seq, m, 2.3),
    ]
    if seq.alphabet == Alphabet.ternary(m):
        block = Word(seq.alphabet, seq.preperiod + seq.period).text()
        entry += [lambda: is_forbidden_block(block, m, 2.3),
                  lambda: certify_family([block], m, 2.3)]
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


def _reference_worst_witness(seq, q, only=None):
    """The checkers' condition loop with each tail evaluated as pi_eval
    of the sequence with its first n symbols dropped, O(L) per position:
    the route the checkers' one-pass tails must reproduce bit for bit."""
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
    return min(found, key=lambda w: w.slack, default=None)


_SYMBOLS = st.lists(st.integers(0, 4), max_size=14)


@settings(max_examples=300, deadline=None)
@given(digits=st.lists(st.integers(-6, 12), min_size=2, max_size=5, unique=True),
       pre=_SYMBOLS, per=_SYMBOLS.filter(bool), q=st.floats(1.05, 6.0))
def test_general_witness_matches_the_dropped_prefix_route(digits, pre, per, q):
    alphabet = Alphabet.from_digits(sorted(d / 2 for d in digits))
    k = len(digits)
    seq = EPSeq(alphabet, tuple(s % k for s in pre), tuple(s % k for s in per))
    # Witness equality compares the slacks with ==
    assert check_univoque_general(seq, q).witness == _reference_worst_witness(seq, q)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(2.0, 6.0), pre=_SYMBOLS, per=_SYMBOLS.filter(bool),
       q=st.floats(2.001, 4.0))
def test_membership_witness_matches_the_dropped_prefix_route(m, pre, per, q):
    # over {1, m}: symbol 1 or 2 of {0, 1, m}
    seq = EPSeq(Alphabet.ternary(m), tuple(1 + s % 2 for s in pre),
                tuple(1 + s % 2 for s in per))
    assert check_v_membership(seq, m, q).witness == \
        _reference_worst_witness(seq, q, only=1)


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


@settings(max_examples=60, deadline=None)
@given(m=st.floats(2.0, 5.0), lmax=st.integers(1, 10), data=st.data())
def test_scan_matches_brute_force(m, lmax, data):
    # q ranges over (2, R(m)], so above r(m) too, where the frontier grows
    q = data.draw(st.floats(2.0, R(m), exclude_min=True), label="q")
    expected, expected_tested = _scan_by_brute_force(m, q, lmax)
    tested = []

    def recording(w, *args):
        tested.append(w)
        return is_forbidden_block(w, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniqueness, "is_forbidden_block", recording)
        found = [w.text() for w in scan_forbidden(m, q, lmax)]
    assert found == expected
    assert tested == expected_tested


def test_scan_limits():
    with pytest.raises(ValueError):
        scan_forbidden(3.0, 2.3, 0)
    with pytest.raises(ValueError):
        scan_forbidden(3.0, 2.3, 17)


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


def test_checkers_refuse_an_infinite_base():
    # at q = inf every tail is 0, so each check once passed
    seq = parse_seq("(m1)^w", T3)
    with pytest.raises(ValueError, match="base must be finite"):
        check_univoque_general(seq, math.inf)
    with pytest.raises(ValueError, match="finite q > 2, got inf"):
        check_v_membership(seq, 3.0, math.inf)
    with pytest.raises(ValueError, match="finite q > 2, got inf"):
        certify_family(["mm1", "mm1m1"], 4.0, math.inf)
