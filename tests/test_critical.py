"""Tests for the threshold curves, solved constants, and sign relations."""

import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from univoque import cli, selftest, sequences
from univoque._rounding import _float_at, _ordinal, _upper_midpoint, polynomial_root
from univoque.critical import (
    COMPLEMENT,
    PLAIN,
    Branch,
    P,
    R,
    _residual_fn,
    bisect_root,
    branch_for,
    branches,
    compute_constants,
    p_of_m,
    r_of_m,
    solve_pi_root,
)
from univoque.selftest import M_GRID, appendix_sign_suite, locate_crossovers
from univoque.sequences import (
    Alphabet,
    EPSeq,
    NotationError,
    parse_seq,
    pi_complement,
    pi_eval,
)

# High-precision reference roots, each computed independently from its
# defining polynomial with 40-digit interval arithmetic and rounded to
# the nearest float.
REF = {
    "alpha": 1.3247179572447460,
    "phi": 1.6180339887498949,
    "q_1": 2.3401769582012439,
    "m_1": 2.9128588459980364,
    # 1 + 2cos(pi/7) = 2.80193773580483825247..., nearest float
    # 2.801937735804838; a literal ending in ...383 is one ulp above it
    "m_d": 2.801937735804838,
    "M_d": 4.5464554446849952,
    "m_4": 3.3027756377319946,
    "q_4": 2.3027756377319946,
    "m_3": 3.1021409150958155,
    "r_2": 2.6180339887498949,
    "r_3": 2.3701991085129286,
    "r_4": 2.1902157302443957,
    "r_285": 2.2872132725825277,
    # (1.9 + sqrt 7.61)/2 = 2.32931142241337217..., nearest float
    # 2.329311422413372; a literal ending in ...722 is one ulp above it
    "r_29": 2.329311422413372,
    "p_3": 2.1861406616345072,
    "P_at_M_d": 2.1322418823119002,
}


def test_bracket_curves_and_identities():
    for m in M_GRID:
        assert (m - 1) * P(m) * (P(m) - 2) == pytest.approx(1.0, abs=1e-12)
        assert (m - 1) * (R(m) - 2) == pytest.approx(1.0, abs=1e-12)
        assert 2 < P(m) < R(m)
    with pytest.raises(ValueError):
        P(1.0)
    with pytest.raises(ValueError):
        R(0.5)


def test_bracket_curves_refuse_a_non_finite_m():
    # P and R once returned nan at m = inf, r_of_m and p_of_m None (off
    # the windows)
    for curve in (P, R, r_of_m, p_of_m):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="m must be finite"):
                curve(bad)


def test_constants_match_references():
    c = compute_constants()
    for name in ("alpha", "phi", "q_1", "m_1", "m_d", "M_d", "m_4", "q_4", "m_3"):
        assert getattr(c, name) == REF[name], name
    assert c.m_2 == 2.992
    assert c.kl_q_prime == 1.78723
    assert P(c.M_d) == pytest.approx(REF["P_at_M_d"], abs=1e-11)


def test_constants_ordering_and_report():
    c = compute_constants()
    assert 1 < c.alpha < c.phi < 2
    assert 2 < c.m_d < c.m_1 < c.m_2 < c.m_3 < c.m_4 < c.M_d
    assert 3.1015 <= c.m_3 <= 3.1025
    # closer to the printed 3.10214 than to the printed 3.10204
    assert abs(c.m_3 - 3.10214) <= 1.5e-5
    assert set(REF) - set(c.provenance) == {
        "r_2", "r_3", "r_4", "r_285", "r_29", "p_3", "P_at_M_d"}


def test_constants_are_cached():
    assert compute_constants() is compute_constants()


def _fields(record) -> tuple:
    return tuple(getattr(record, f) for f in type(record).__slots__)


@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
def test_constants_compare_by_identity(round_trip):
    c = compute_constants()
    again = round_trip(c)
    assert type(again) is type(c) and _fields(again) == _fields(c)
    assert repr(again) == repr(c)
    # the same fields, but another object
    assert c == c and again != c and hash(c) == object.__hash__(c)
    with pytest.raises(AttributeError):
        c.alpha = 1.0
    with pytest.raises(AttributeError):
        del c.provenance


def test_branches_are_records():
    b = branches()[2]
    again = Branch(b.label, b.notation, b.form, b.lo, b.hi)
    assert again is not b and again == b and hash(again) == hash(b)
    assert b != branches()[3] and b != _fields(b)
    assert repr(b).startswith("Branch(label='Comp10_mid', notation='mm1(m11m)^w', "
                              "form='plain', lo=2.992, ")
    assert repr(b).endswith(", preperiod=(2, 2, 1), period=(2, 1, 1, 2), numerator="
                            "((-1, 1), (1, -1), (1, -1), (-1, 2), (1, 0), (0, 1), "
                            "(0, 1), (1, -1)))")
    for name in Branch.__slots__:
        with pytest.raises(AttributeError):
            setattr(b, name, None)
        with pytest.raises(AttributeError):
            delattr(b, name)


@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
def test_branches_round_trip(round_trip):
    for b in branches():
        again = round_trip(b)
        assert type(again) is Branch and again == b and hash(again) == hash(b)
        assert repr(again) == repr(b)


def test_unpickled_branch_parses_its_notation_again():
    # only the five constructor fields are pickled: the derived ones
    # are rebuilt from the notation, which is checked again
    b = branches()[1]
    data = pickle.dumps(b)
    assert b"numerator" not in data and b"preperiod" not in data
    with pytest.raises(NotationError):
        pickle.loads(data.replace(b"(1m)^w", b"(1x)^w"))


# Each constant's polynomial, written out by hand.
_CONSTANT_POLYNOMIALS = {
    "alpha": lambda x: x**3 - x - 1,
    "phi": lambda x: x**2 - x - 1,
    "q_1": lambda q: q**2 * (q - 1) * (q**2 - q - 3) - 1,
    "m_1": lambda m: m**5 - 7 * m**4 + 18 * m**3 - 23 * m**2 + 17 * m - 5,
    "m_d": lambda m: m**3 - 4 * m**2 + 3 * m + 1,
    "M_d": lambda m: m**4 - 6 * m**3 + 7 * m**2 - 2 * m + 1,
    "m_3": lambda m: (4 * m**7 - 18 * m**6 + 21 * m**5 - 16 * m**4 + 17 * m**3
                      - 7 * m**2 - 3 * m + 1),
    "m_4": lambda m: m**2 - 3 * m - 1,
    "q_4": lambda q: q**2 - q - 3,
}


def _seq(notation, m):
    return parse_seq(notation, Alphabet.ternary(m))


def _bisected_q_1():
    return bisect_root(lambda q: q * q * (q - 1) * (q * q - q - 3) - 1, 2.0, 3.0)


def _mid_window_base(m):
    """Base where pi_q(mm1(m11m)^w) = m - 1 (middle window residual)."""
    return solve_pi_root(_seq("mm1(m11m)^w", m), PLAIN, m)


# Each algebraic constant by bisection of its defining equation, the
# route that defined it before its polynomial did, and the tolerance.
_BISECTION_ROUTES = {
    "alpha": (lambda: bisect_root(lambda x: x**3 - x - 1, 1.0, 2.0), 1e-12),
    "q_1": (_bisected_q_1, 1e-12),
    "m_1": (lambda: 1 + _bisected_q_1() - 1 / _bisected_q_1(), 1e-12),
    # where the pair curve (m1)^w meets P(m), plainly and reflected
    "m_d": (lambda: bisect_root(
        lambda m: pi_eval(_seq("(m1)^w", m), P(m)) - (m - 1), 2.5, 3.2), 1e-12),
    "M_d": (lambda: bisect_root(
        lambda m: pi_complement(_seq("(m1)^w", m), m, P(m)) - 1, 4.0, 5.0), 1e-12),
    # where the reflection of (1mm1)^w reaches 1 at the middle-window base
    "m_3": (lambda: bisect_root(
        lambda m: pi_complement(_seq("(1mm1)^w", m), m, _mid_window_base(m)) - 1,
        3.0, 3.2, tol=5e-12), 1e-11),
}


@pytest.mark.parametrize("name", sorted(_CONSTANT_POLYNOMIALS))
def test_constants_are_correctly_rounded_roots(name):
    """The constant's polynomial changes sign, exactly, between the two
    float midpoints around it, and its bisection route agrees."""
    x = getattr(compute_constants(), name)
    poly = _CONSTANT_POLYNOMIALS[name]
    below = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    assert poly(below) * poly(above) < 0
    if name in _BISECTION_ROUTES:
        route, tol = _BISECTION_ROUTES[name]
        assert abs(route() - x) <= tol


def test_constants_need_no_bisection_and_no_pi_eval(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called while solving the constants")

    for name in ("pi_eval", "bisect_root", "solve_pi_root", "parse_seq"):
        monkeypatch.setattr(f"univoque.critical.{name}", forbidden)
    compute_constants.cache_clear()
    try:
        c = compute_constants()
    finally:
        compute_constants.cache_clear()  # solved again once the patches are gone
    assert c.m_3 == REF["m_3"]


@given(st.integers(2, 2**53))
def test_polynomial_root_is_the_correctly_rounded_sqrt(k):
    """IEEE 754 sqrt is correctly rounded, so it is an exact oracle."""
    assert polynomial_root([1, 0, -k], float(k), 1.0) == math.sqrt(k)


def test_polynomial_root_refuses_a_bracket_without_the_root():
    # Newton's method stops at once and the exact tests walk up to sqrt 2
    for hi, lo in ((1.0, 0.5), (3.0, 2.0)):
        with pytest.raises(ValueError, match="lies outside"):
            polynomial_root([1, 0, -2], hi, lo)
    assert polynomial_root([1, 0, -2], 2.0, 1.0) == math.sqrt(2)


def test_polynomial_root_stops_past_the_largest_float():
    # negative everywhere, so the exact tests walk up past every float;
    # the midpoints stop there instead of growing without bound
    with pytest.raises(ValueError, match="above the largest float"):
        polynomial_root([-1, 0, -2], 2.0, 1.0)
    with pytest.raises(ValueError, match="above the largest float"):
        _upper_midpoint(_ordinal(math.inf))
    assert Fraction(*_upper_midpoint(_ordinal(sys.float_info.max))) == \
        Fraction(sys.float_info.max) + Fraction(2) ** 970


def _reference_upper_midpoint(y):
    """The midpoint of y and the next float up, as round_root built it
    before: from both floats over their larger power-of-2 denominator."""
    i = _ordinal(y)
    (n1, d1), (n2, d2) = (_float_at(j).as_integer_ratio() for j in (i, i + 1))
    d = max(d1, d2)
    return n1 * (d // d1) + n2 * (d // d2), 2 * d


@example(0.0)
@example(5e-324)  # the least subnormal
@example(2.0**-1022 - 5e-324)  # the greatest subnormal
@example(2.0**-1022)
@example(0.5)
@example(1.0)
@example(2.0)
@example(math.nextafter(2.0**1000, 0.0))
@example(2.0**1000)
@example(2.0**1023)
@example(math.nextafter(sys.float_info.max, 0.0))
@given(st.one_of(st.floats(0.0, math.nextafter(sys.float_info.max, 0.0)),
                 st.floats(0.0, 2.0**-1020),  # subnormals and the least normals
                 st.floats(2.0**999, 2.0**1001)))
def test_upper_midpoint_from_exponent_and_fraction_bits(y):
    assert Fraction(*_upper_midpoint(_ordinal(y))) == \
        Fraction(*_reference_upper_midpoint(y))


def test_first_endpoint_three_ways():
    closed = r_of_m(2.0)
    solved = solve_pi_root(parse_seq("m1^w", Alphabet.ternary(2)), PLAIN, 2.0)
    poly = bisect_root(lambda q: q * q - 3 * q + 1, 2.0, 3.0)
    golden_sq = (3 + math.sqrt(5)) / 2
    for v in (closed, solved, poly):
        assert v == pytest.approx(golden_sq, abs=1e-10)


@pytest.mark.parametrize("m,key", [
    (2.0, "r_2"), (3.0, "r_3"), (4.0, "r_4"), (2.85, "r_285"), (2.9, "r_29")])
def test_r_reference_values(m, key):
    assert r_of_m(m) == REF[key]


def test_a_root_builds_no_records(monkeypatch):
    branches()  # builds each branch's indicator sequences
    built = []
    for cls in (sequences.Alphabet, sequences.EPSeq):
        def counting(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    rows = cli.curve_rows(2.0, 4.995, 0.01)
    assert len(rows) == 300 and sum(r.r is not None for r in rows) > 100
    assert built == []


def test_curve_rows_finds_each_branch_once(monkeypatch):
    found = []

    def counting(m, _branch_for=branch_for):
        found.append(m)
        return _branch_for(m)

    monkeypatch.setattr("univoque.critical.branch_for", counting)
    rows = cli.curve_rows(2.0, 4.995, 0.01)
    # one lookup per row: the label and the root share it
    assert found == [row.m for row in rows]
    assert sum(row.r is not None for row in rows) > 100


def test_the_residual_check_still_fires(monkeypatch):
    b = Branch(*(getattr(branches()[0], f) for f in ("label", "notation", "form",
                                                      "lo", "hi")))
    wrong = ((2, -1),) + b.numerator[1:]  # one more in N's constant term
    object.__setattr__(b, "numerator", wrong)
    monkeypatch.setattr("univoque.critical.branch_for", lambda m: b)
    with pytest.raises(ValueError, match="exceeds tolerance"):
        r_of_m(2.2)


@pytest.mark.parametrize("notation,form", [("0^w", PLAIN), ("m^w", COMPLEMENT)])
def test_a_branch_refuses_a_residual_that_does_not_decrease(notation, form):
    # every series term is 0, so the residual is constant in q
    with pytest.raises(ValueError, match="not strictly decreasing"):
        Branch("x", notation, form, 2.0, 3.0)


def test_a_branch_refuses_a_sequence_with_a_zero_digit():
    # the root check values pi_q as 1/(q - 1) + (m - 1) pi_q(ms), which
    # holds only when every digit is 1 or m
    with pytest.raises(ValueError, match="zero-free"):
        Branch("x", "m0(m1)^w", PLAIN, 2.0, 3.0)


def test_each_root_is_checked_with_one_pi_eval(monkeypatch):
    calls = []

    def counted(seq, q):
        calls.append(seq)
        return pi_eval(seq, q)

    monkeypatch.setattr("univoque.critical.pi_eval", counted)
    for b in branches():
        calls.clear()
        m = (b.lo + b.hi) / 2
        assert r_of_m(m) is not None
        assert calls == [b.ms]


def test_r_gaps_return_none():
    c = compute_constants()
    for m in (1.99, 2.5, 2.95, 3.2, 4.6, 8.0, 1 + c.alpha + 1e-6):
        assert r_of_m(m) is None
        assert branch_for(m) is None


def test_branch_labels_and_windows():
    labels = [b.label for b in branches()]
    assert labels == ["Comp0_full", "Comp10_left", "Comp10_mid", "Comp10_right"]
    c = compute_constants()
    lo_hi = [(b.lo, b.hi) for b in branches()]
    assert lo_hi == [(2.0, 1 + c.alpha), (c.m_d, c.m_1),
                     (c.m_2, c.m_3), (c.m_4, c.M_d)]
    for (lo, hi) in lo_hi:
        assert lo < hi


@pytest.mark.parametrize("index", range(4))
def test_each_window_is_closed_between_its_rounded_edges(index):
    """A branch holds at both edges of its window and at neither float
    just outside them: m is compared with the edges as they are."""
    b = branches()[index]
    for edge in (b.lo, b.hi):
        assert branch_for(edge) is b
        assert r_of_m(edge) is not None
    for outside in (math.nextafter(b.lo, 0.0), math.nextafter(b.hi, math.inf)):
        assert branch_for(outside) is not b
        assert r_of_m(outside) is None


def test_p_holds_exactly_on_its_two_windows():
    c = compute_constants()
    assert p_of_m(2.0) == 2.0 and p_of_m(1 + c.alpha) == 1 + c.alpha
    for lo, hi in ((2.0, 1 + c.alpha), (c.m_d, c.M_d)):
        assert p_of_m(lo) is not None and p_of_m(hi) is not None
        assert p_of_m(math.nextafter(lo, 0.0)) is None
        assert p_of_m(math.nextafter(hi, math.inf)) is None


def test_nothing_below_two_reaches_a_branch():
    below = math.nextafter(2.0, 0.0)
    assert branch_for(below) is None
    assert r_of_m(below) is None and p_of_m(below) is None
    with pytest.raises(ValueError) as refused:
        Alphabet.ternary(1.5)
    for b in branches():
        with pytest.raises(ValueError) as raised:
            b.defining_seq(1.5)
        assert str(raised.value) == str(refused.value)


# Each window's defining equation as an integer polynomial in (m, q),
# written out by hand: its root in (2, R(m)) is r(m).
_WINDOW_POLYNOMIALS = {
    "Comp0_full": lambda m, q: (m - 1) * (q - 1) ** 2 - q,
    "Comp10_left": lambda m, q: q * q - (m - 1) * q - 1,
    "Comp10_mid": lambda m, q: (m - 1) * (q**6 - 2 * q**5 + q**4 - q**3 - q**2
                                          + 2 * q - 1) - (q**5 + q**3),
    "Comp10_right": lambda m, q: (m - 1) * (q**3 - q**2 - 2 * q + 1) - (q**2 + q),
}


@settings(max_examples=400)
@given(window=st.sampled_from(range(4)), u=st.floats(0.0, 1.0))
def test_r_is_the_correctly_rounded_root(window, u):
    """The window's polynomial changes sign, exactly, between the two
    float midpoints around r(m): no other float is nearer to the root."""
    b = branches()[window]
    m = b.lo + (b.hi - b.lo) * u
    r = r_of_m(m)
    assert branch_for(m) is b
    poly = _WINDOW_POLYNOMIALS[b.label]
    below = (Fraction(r) + Fraction(math.nextafter(r, 0.0))) / 2
    above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    assert poly(Fraction(m), below) * poly(Fraction(m), above) < 0, (b.label, m)


def test_residual_small_and_bracketed_across_branches():
    for b in branches():
        for i in range(40):
            m = b.lo + (b.hi - b.lo) * i / 39
            r = r_of_m(m)
            assert r is not None
            if b.form == PLAIN:
                res = pi_eval(b.defining_seq(m), r) - (m - 1)
            else:
                res = pi_complement(b.defining_seq(m), m, r) - 1
            assert abs(res) < 1e-10, (b.label, m)
            assert P(m) - 1e-9 <= r < R(m), (b.label, m)


def test_r_meets_p_curve_at_window_junctions():
    c = compute_constants()
    assert r_of_m(2.0 + 0.0) < R(2.0)
    # at the far ends of the first and last windows r touches P
    assert r_of_m(1 + c.alpha) == pytest.approx(P(1 + c.alpha), abs=1e-9)
    assert r_of_m(c.M_d) == pytest.approx(P(c.M_d), abs=1e-9)
    assert r_of_m(c.m_d) == pytest.approx(P(c.m_d), abs=1e-9)


def test_p_of_m_values():
    c = compute_constants()
    assert p_of_m(2.0) == pytest.approx(2.0, abs=1e-12)
    assert p_of_m(2.2) == pytest.approx(2.2, abs=1e-12)
    assert p_of_m(1 + c.alpha) == pytest.approx(1 + c.alpha, abs=1e-9)
    assert p_of_m(3.0) == pytest.approx(REF["p_3"], abs=1e-11)
    # past the crossover the reflected pair bound sqrt(m) dominates
    assert p_of_m(4.5) == pytest.approx(math.sqrt(4.5), abs=1e-12)
    for m in (1.5, 2.5, 2.7, 4.6, 10.0):
        assert p_of_m(m) is None


def test_p_quadratic_identity_on_the_pair_window():
    """Where the plain pair bound is active, p solves (m-1)q^2 = m(q+1)."""
    c = compute_constants()
    rng = random.Random(99)
    for _ in range(50):
        m = rng.uniform(c.m_d, 4.0)
        p = p_of_m(m)
        if p == pytest.approx(math.sqrt(m), abs=1e-12):
            continue
        assert (m - 1) * p * p - m * p - m == pytest.approx(0.0, abs=1e-9)


def _pi_eval_from_digit_lists(seq, q):
    """pi_eval as it was when it built the lists of digits first."""
    def horner(digits):
        s = 0.0
        for d in reversed(digits):
            s = (s + d) / q
        return s
    su = horner([seq.alphabet.digits[s] for s in seq.preperiod])
    sv = horner([seq.alphabet.digits[s] for s in seq.period])
    return su + q ** (-len(seq.preperiod)) * sv / (1.0 - q ** (-len(seq.period)))


_alphabets = st.one_of(
    st.floats(2.0, 6.0).map(Alphabet.ternary),
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=2, max_size=5,
             unique=True).map(lambda ds: Alphabet.from_digits(sorted(ds))),
)


@settings(max_examples=200)
@given(alphabet=_alphabets, data=st.data(),
       qs=st.lists(st.floats(1.0, 4.0, exclude_min=True), min_size=1, max_size=16))
def test_pi_eval_and_residuals_are_bit_identical(alphabet, data, qs):
    """pi_eval reading digits through the table equals the version that
    built digit lists first, and the solver's residuals equal the
    pi_eval / pi_complement values exactly, so its roots are the roots
    of the documented residuals."""
    symbols = st.integers(0, len(alphabet.digits) - 1)
    pre = data.draw(st.lists(symbols, max_size=6))
    per = data.draw(st.lists(symbols, min_size=1, max_size=6))
    seq = EPSeq(alphabet, tuple(pre), tuple(per))
    used = {alphabet.digits[s] for s in pre + per}
    m = alphabet.digits[-1]
    cases = (
        (PLAIN, min(used) >= 0 and max(used) > 0,
         lambda q: pi_eval(seq, q) - (m - 1.0)),
        (COMPLEMENT, used <= {1.0, m} and 1.0 in used and m > 1.0,
         lambda q: pi_complement(seq, m, q) - 1.0),
    )
    residuals = []
    for form, decreasing, expected in cases:
        if decreasing:
            residuals.append((_residual_fn(seq, form, m), expected))
        else:
            with pytest.raises(ValueError):
                _residual_fn(seq, form, m)
    for q in qs:
        assert pi_eval(seq, q) == _pi_eval_from_digit_lists(seq, q)
        for residual, expected in residuals:
            assert residual(q) == expected(q)


def _sampled_solve_pi_root(seq, form, m, bracket=None, tol=1e-12, samples=32):
    """The solver as it was when it sampled monotonicity at 32 points."""
    if form == PLAIN:
        residual = lambda q: pi_eval(seq, q) - (m - 1.0)
    else:
        residual = lambda q: pi_complement(seq, m, q) - 1.0
    if bracket is None:
        bracket = (2.0, R(m))
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    vals = [residual(lo + (hi - lo) * i / (samples - 1)) for i in range(samples)]
    for a, b in zip(vals, vals[1:]):
        if b > a + 1e-11 * max(1.0, abs(a)):
            raise ValueError("non-monotone residual detected (sampled)")
    if not (vals[0] > 0 > vals[-1]):
        raise ValueError(f"residual does not change sign over [{lo}, {hi}]")
    root = bisect_root(residual, lo, hi, tol)
    res = residual(root)
    if abs(res) >= 1e-10:
        raise ValueError(f"residual {res} at root exceeds tolerance")
    return root


def test_solver_matches_the_sampled_solver_on_every_branch():
    forms = set()
    for b in branches():
        for i in range(25):
            m = b.lo + (b.hi - b.lo) * i / 24
            seq = b.defining_seq(m)
            assert solve_pi_root(seq, b.form, m) == \
                _sampled_solve_pi_root(seq, b.form, m), (b.label, m)
            forms.add(b.form)
    assert forms == {PLAIN, COMPLEMENT}


def test_solver_evaluates_the_residual_once_per_base(monkeypatch):
    bases = []

    def recording_pi_eval(seq, q):
        bases.append(q)
        return pi_eval(seq, q)

    monkeypatch.setattr("univoque.critical.pi_eval", recording_pi_eval)
    for b in branches():
        m = (b.lo + b.hi) / 2
        bases.clear()
        root = solve_pi_root(b.defining_seq(m), b.form, m)
        assert len(bases) == len(set(bases)), b.label
        assert bases[:2] == [2.0, R(m)] and bases[-1] == root


@pytest.mark.parametrize("root", [2.0, 3.0, 2.5, 2.25, 2.875])
def test_bisect_root_returns_a_base_where_f_vanishes(root):
    """An end of the bracket, or a midpoint on the way, where f is 0 is
    returned as it is."""
    assert bisect_root(lambda q: root - q, 2.0, 3.0) == root


def test_solver_error_paths():
    t3 = Alphabet.ternary(3)
    # the residual must be provably decreasing: nonnegative digits, not all 0
    with pytest.raises(ValueError, match="not strictly decreasing"):
        solve_pi_root(parse_seq("(20)^w", Alphabet.from_digits((-1, 0, 3))),
                      PLAIN, 3.0)
    with pytest.raises(ValueError, match="not strictly decreasing"):
        solve_pi_root(parse_seq("0^w", t3), PLAIN, 3.0)
    with pytest.raises(ValueError, match="does not change sign"):
        solve_pi_root(parse_seq("1^w", t3), PLAIN, 3.0)
    with pytest.raises(ValueError):
        solve_pi_root(parse_seq("m^w", t3), COMPLEMENT, 3.0)
    with pytest.raises(ValueError):
        solve_pi_root(parse_seq("m1^w", t3), "nonsense", 3.0)


def test_sign_suite_clean_on_default_grid():
    checks = appendix_sign_suite()
    assert all(ok for _, ok in checks)
    assert all(ok for _, _, ok in locate_crossovers())
    assert len(checks) > 5000
    names = {name for name, _ in checks}
    assert {"P_product_identity", "R_gap_identity", "all_ones_reflection",
            "single_one_tail_root", "pair_rational_numerator",
            "alternating_reflection_root", "double_m_tail",
            "m_pair_at_base_m_minus_1"} <= names


def test_sign_suite_crossovers_locate_the_constants():
    c = compute_constants()
    expected = {
        "single_one_tail_at_P": 1 + c.alpha,
        "pair_cubic": c.m_d,
        "reflected_pair_quartic": c.M_d,
        "m_pair_at_base_m_minus_1": c.m_4,
    }
    for name, located, ok in locate_crossovers():
        assert ok
        assert abs(located - expected[name]) <= 1e-6


def test_perturbing_p_breaks_the_suite(monkeypatch):
    monkeypatch.setattr(selftest, "P", lambda m, real=selftest.P: real(m) + 1e-3)
    checks = appendix_sign_suite()
    failing = {name for name, ok in checks if not ok}
    assert "P_product_identity" in failing
    assert not all(ok for _, _, ok in locate_crossovers())
