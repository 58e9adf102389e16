"""Critical bases for zero-free ternary expansions.

For the alphabet {0, 1, m} two thresholds in the base q organize the
zero-free unique sequences over {1, m}:

    P(m) = 1 + sqrt(m/(m-1))   below it only trivial sequences survive,
    R(m) = 1 + m/(m-1)         at and above it uncountably many survive.

Between them sits a finite-to-countable threshold p(m) and a
countable-to-uncountable threshold r(m).  Both are computed here on the
parameter windows where a defining eventually periodic sequence is
known; outside those windows the functions return None (unsupported).

All roots are found by bisection on signed residuals of the form
pi_q(seq) - (m - 1) (plain) or reflected pi_q - 1 (complement).  Both
are series with nonnegative terms, hence strictly decreasing in q > 1;
the solver checks this once from the digits of the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from .sequences import (
    Alphabet,
    EPSeq,
    parse_seq,
    pi_complement,
    pi_eval,
    require_zero_free,
)

PLAIN = "plain"
COMPLEMENT = "complement"

_BISECT_TOL = 1e-13


def P(m: float) -> float:
    """Lower bracket curve: 1 + sqrt(m/(m-1)); satisfies (m-1)P(P-2) = 1."""
    if not m > 1:
        raise ValueError(f"m must exceed 1, got {m}")
    return 1.0 + math.sqrt(m / (m - 1.0))


def R(m: float) -> float:
    """Upper bracket curve: 1 + m/(m-1); satisfies (m-1)(R-2) = 1."""
    if not m > 1:
        raise ValueError(f"m must exceed 1, got {m}")
    return 1.0 + m / (m - 1.0)


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = _BISECT_TOL) -> float:
    """A root of f in [lo, hi] by bisection to width ``tol``; f must
    change sign over the bracket or vanish at one of its ends."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change over [{lo}, {hi}]")
    return _halve(f, lo, hi, flo > 0, tol)


def _halve(f: Callable[[float], float], lo: float, hi: float,
           lo_positive: bool, tol: float) -> float:
    """Bisection of a bracket whose ends are known to have opposite
    signs, the sign at ``lo`` given; f is not evaluated at the ends."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _residual_fn(seq: EPSeq, form: str, m: float) -> Callable[[float], float]:
    """Signed residual of ``seq`` in ``form``, once it is shown to be
    strictly decreasing in q > 1.

    Both forms are series sum t_i q^-i minus a constant, with t_i = c_i
    (plain) or m - c_i (complement).  If every t_i is >= 0 and one is
    > 0, each term is nonincreasing in q and one strictly decreasing.
    """
    used = {seq.alphabet.digits[s] for s in seq.preperiod + seq.period}
    if form == PLAIN:
        terms = used
        residual = lambda q: pi_eval(seq, q) - (m - 1.0)
    elif form == COMPLEMENT:
        require_zero_free(seq.alphabet, seq.preperiod + seq.period, m)
        terms = {m - d for d in used}
        # pi_complement(seq, m, q) - 1.0, with its digit check made once
        residual = lambda q: m / (q - 1.0) - pi_eval(seq, q) - 1.0
    else:
        raise ValueError(f"unknown residual form {form!r}")
    if min(terms) < 0 or max(terms) <= 0:
        raise ValueError(f"{form} residual of {seq} is not strictly decreasing "
                         "in q: its series terms must be >= 0 and not all 0")
    return residual


def solve_pi_root(seq: EPSeq, form: str, m: float,
                  bracket: tuple[float, float] | None = None,
                  tol: float = 1e-12) -> float:
    """Bisection root of the signed residual for ``seq`` at parameter m.

    The residual must be strictly decreasing in q, which is checked from
    the digits (see ``_residual_fn``), and must change sign over the
    bracket, by default (2, R(m)).  The returned base q satisfies
    |residual(q)| < 1e-10.
    """
    residual = _residual_fn(seq, form, m)
    if bracket is None:
        bracket = (2.0, R(m))
    lo, hi = bracket
    if not 1.0 < lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if not residual(lo) > 0 > residual(hi):
        raise ValueError(f"residual does not change sign over [{lo}, {hi}]")
    root = _halve(residual, lo, hi, True, tol)
    res = residual(root)
    if abs(res) >= 1e-10:
        raise ValueError(f"residual {res} at root exceeds tolerance")
    return root


# --- named constants --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Constants:
    """Solved thresholds and window endpoints, with provenance notes."""

    alpha: float
    phi: float
    m_d: float
    M_d: float
    q_1: float
    m_1: float
    m_2: float
    m_3: float
    m_4: float
    q_4: float
    kl_q_prime: float
    provenance: Mapping[str, str]
    m_3_printed_match: str


def _ternary_seq(notation: str, m: float) -> EPSeq:
    return parse_seq(notation, Alphabet.ternary(m))


def _mid_window_base(m: float) -> float:
    """Base where pi_q(mm1(m11m)^w) = m - 1 (middle window residual)."""
    return solve_pi_root(_ternary_seq("mm1(m11m)^w", m), PLAIN, m)


@lru_cache(maxsize=1)
def compute_constants() -> Constants:
    """Solve every named constant from its defining equation."""
    alpha = bisect_root(lambda x: x * x * x - x - 1.0, 1.0, 2.0)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    # m_d / M_d: where the pair curve (m1)^w meets P(m), plainly and reflected
    m_d = bisect_root(lambda m: pi_eval(_ternary_seq("(m1)^w", m), P(m)) - (m - 1.0),
                      2.5, 3.2)
    M_d = bisect_root(lambda m: pi_complement(_ternary_seq("(m1)^w", m), m, P(m)) - 1.0,
                      4.0, 5.0)
    q_1 = bisect_root(lambda q: q * q * (q - 1.0) * (q * q - q - 3.0) - 1.0, 2.0, 3.0)
    m_1 = 1.0 + q_1 - 1.0 / q_1
    m_2 = 2.992
    # m_3: where the reflection of (1mm1)^w reaches 1 at the middle-window base
    m_3 = bisect_root(
        lambda m: pi_complement(_ternary_seq("(1mm1)^w", m), m, _mid_window_base(m)) - 1.0,
        3.0, 3.2, tol=5e-12)
    m_4 = (3.0 + math.sqrt(13.0)) / 2.0
    q_4 = (1.0 + math.sqrt(13.0)) / 2.0

    printed = ("3.10204", "3.10214")
    deltas = [abs(m_3 - float(p)) for p in printed]
    best = min(range(len(printed)), key=deltas.__getitem__)
    if deltas[best] <= 1.5e-5:
        match = f"{printed[best]} (delta {deltas[best]:.2e})"
    else:
        match = f"neither printed value (computed {m_3:.7f})"

    consts = Constants(
        alpha=alpha, phi=phi, m_d=m_d, M_d=M_d, q_1=q_1, m_1=m_1,
        m_2=m_2, m_3=m_3, m_4=m_4, q_4=q_4, kl_q_prime=1.78723,
        provenance={
            "alpha": "real root of x^3 = x + 1 (first Pisot number)",
            "phi": "(1 + sqrt 5)/2",
            "m_d": "root in m of pi_{P(m)}((m1)^w) = m - 1",
            "M_d": "root in m of reflected pi_{P(m)}((m1)^w) = 1",
            "q_1": "root above 2 of q^2 (q-1) (q^2 - q - 3) = 1",
            "m_1": "1 + q_1 - 1/q_1",
            "m_2": "configured literal (approximate window endpoint)",
            "m_3": "root in m of reflected pi of (1mm1)^w = 1 at the middle-window base",
            "m_4": "(3 + sqrt 13)/2",
            "q_4": "(1 + sqrt 13)/2",
            "kl_q_prime": "display-only literal (two-digit alphabet threshold)",
        },
        m_3_printed_match=match,
    )
    if not (1.0 < consts.alpha < consts.phi < 2.0):
        raise ArithmeticError("constant ordering violated (alpha, phi)")
    if not (2.0 < consts.m_d < consts.m_1 < consts.m_2 < consts.m_3
            < consts.m_4 < consts.M_d):
        raise ArithmeticError("constant ordering violated (window endpoints)")
    return consts


# --- r and p curves ---------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One window of the r(m) curve with its defining sequence.

    ``closed_form`` is set when the defining residual reduces to a
    quadratic; ``polynomial`` gives an equivalent polynomial residual in
    (m, q) used for independent cross-checks.
    """

    label: str
    notation: str
    form: str
    lo: float
    hi: float
    closed_form: Callable[[float], float] | None
    polynomial: Callable[[float, float], float]

    def defining_seq(self, m: float) -> EPSeq:
        return _ternary_seq(self.notation, m)


def _closed_comp0(m: float) -> float:
    return (2.0 * m - 1.0 + math.sqrt(4.0 * m - 3.0)) / (2.0 * m - 2.0)


def _closed_left(m: float) -> float:
    return ((m - 1.0) + math.sqrt((m - 1.0) ** 2 + 4.0)) / 2.0


@lru_cache(maxsize=1)
def branches() -> tuple[Branch, ...]:
    c = compute_constants()
    return (
        Branch("Comp0_full", "m1^w", PLAIN, 2.0, 1.0 + c.alpha,
               _closed_comp0,
               lambda m, q: (m - 1.0) * (q - 1.0) ** 2 - q),
        Branch("Comp10_left", "(1m)^w", COMPLEMENT, c.m_d, c.m_1,
               _closed_left,
               lambda m, q: q * q - (m - 1.0) * q - 1.0),
        Branch("Comp10_mid", "mm1(m11m)^w", PLAIN, c.m_2, c.m_3,
               None,
               lambda m, q: (m - 1.0) * (q**6 - 2 * q**5 + q**4 - q**3
                                         - q**2 + 2 * q - 1) - (q**5 + q**3)),
        Branch("Comp10_right", "m(m1)^w", PLAIN, c.m_4, c.M_d,
               None,
               lambda m, q: (m - 1.0) * (q**3 - q**2 - 2 * q + 1) - (q**2 + q)),
    )


def branch_for(m: float, tol: float = 1e-12) -> Branch | None:
    for b in branches():
        if b.lo - tol <= m <= b.hi + tol:
            return b
    return None


def r_of_m(m: float) -> float | None:
    """Countable-to-uncountable threshold, or None off the known windows."""
    b = branch_for(m)
    if b is None:
        return None
    if b.closed_form is not None:
        return b.closed_form(m)
    return solve_pi_root(b.defining_seq(m), b.form, m)


def p_of_m(m: float) -> float | None:
    """Finite-to-countable threshold, or None off the known windows.

    On the first window p(m) = m.  On the window [m_d, M_d] it is the
    larger of sqrt(m) (reflected pair residual) and the root above 2 of
    (m-1) q^2 - m q - m = 0 (plain pair residual).
    """
    tol = 1e-12
    c = compute_constants()
    if m < 2.0 - tol:
        return None
    if m <= 1.0 + c.alpha + tol:
        return float(m)
    if c.m_d - tol <= m <= c.M_d + tol:
        from_pair_reflection = math.sqrt(m)
        disc = m * m + 4.0 * m * (m - 1.0)
        from_pair_plain = (m + math.sqrt(disc)) / (2.0 * (m - 1.0))
        return max(from_pair_reflection, from_pair_plain)
    return None


# --- sign-relation suite ----------------------------------------------------

@dataclass(frozen=True)
class SignCheck:
    name: str
    m: float
    q: float | None
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class CrossoverCheck:
    name: str
    expected: float
    located: float
    passed: bool


@dataclass
class SignSuiteReport:
    checks: list[SignCheck]
    crossovers: list[CrossoverCheck]

    @property
    def failures(self) -> list[SignCheck]:
        return [c for c in self.checks if not c.passed]

    @property
    def failed_crossovers(self) -> list[CrossoverCheck]:
        return [c for c in self.crossovers if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.failed_crossovers


def default_m_grid(points: int = 200) -> tuple[float, ...]:
    return tuple(2.0 + 8.0 * i / (points - 1) for i in range(points))


def _sign_ok(lhs: float, rhs: float, m: float, crossings: tuple[float, ...],
             m_tol: float = 1e-6, zero_tol: float = 1e-9) -> bool:
    if min(abs(lhs), abs(rhs)) <= zero_tol:
        return True
    if any(abs(m - c) <= m_tol for c in crossings):
        return True
    return (lhs > 0) == (rhs > 0)


def appendix_sign_suite(m_grid=None, perturb_p: float = 0.0) -> SignSuiteReport:
    """Check every documented sign relation between pi residuals and
    their polynomial or threshold equivalents over an m-grid.

    ``perturb_p`` offsets the P curve (a self-test hook: any nonzero
    offset must break the P product identity and the crossovers).
    """
    c = compute_constants()
    if m_grid is None:
        m_grid = default_m_grid()
    Pf = lambda m: P(m) + perturb_p

    def q_spread(center: float) -> tuple[float, ...]:
        qs = (1.3, 2.0, center - 0.08, center + 0.08, 3.5)
        return tuple(q for q in qs if q > 1.01)

    checks: list[SignCheck] = []

    def add(name, m, q, lhs, rhs, crossings=()):
        checks.append(SignCheck(name, m, q, lhs, rhs,
                                _sign_ok(lhs, rhs, m, crossings)))

    def add_identity(name, m, value, tol=1e-12):
        checks.append(SignCheck(name, m, None, value, 0.0, abs(value) <= tol))

    for m in m_grid:
        ones = _ternary_seq("1^w", m)
        single_tail = _ternary_seq("m1^w", m)
        pair = _ternary_seq("(m1)^w", m)
        alt = _ternary_seq("(1m)^w", m)
        double_tail = _ternary_seq("mm1^w", m)
        m_pair = _ternary_seq("m(m1)^w", m)
        Pm, Rm = Pf(m), R(m)

        add_identity("P_product_identity", m, (m - 1.0) * Pm * (Pm - 2.0) - 1.0)
        add_identity("R_gap_identity", m, (m - 1.0) * (Rm - 2.0) - 1.0)

        for q in q_spread(m):
            add("all_ones_reflection", m, q,
                pi_complement(ones, m, q) - 1.0, m - q)
        add("all_ones_reflection_at_P", m, Pm,
            pi_complement(ones, m, Pm) - 1.0, m - Pm, (1.0 + c.alpha,))

        r0 = _closed_comp0(m)
        for q in q_spread(r0):
            add("single_one_tail_root", m, q,
                pi_eval(single_tail, q) - (m - 1.0), r0 - q)
        add("single_one_tail_at_R", m, Rm,
            pi_eval(single_tail, Rm) - (m - 1.0), -1.0)
        add("single_one_tail_at_P", m, Pm,
            pi_eval(single_tail, Pm) - (m - 1.0), (1.0 + c.alpha) - m,
            (1.0 + c.alpha,))

        q97 = (m + math.sqrt(m * m + 4.0 * m * (m - 1.0))) / (2.0 * (m - 1.0))
        for q in q_spread(q97):
            add("pair_rational_numerator", m, q,
                pi_eval(pair, q) - (m - 1.0),
                (q + 1.0) - (m - 1.0) * (q * q - q - 1.0))
        cubic = Pm**3 - 2.0 * Pm**2 - Pm + 1.0
        add("pair_at_P", m, Pm,
            pi_eval(pair, Pm) - (m - 1.0), cubic, (c.m_d,))
        add("pair_cubic_vs_m_d", m, None, cubic, c.m_d - m, (c.m_d,))

        quartic = -Pm**4 + 2.0 * Pm**3 + Pm**2 - 2.0 * Pm + 1.0
        add("reflected_pair_at_P", m, Pm,
            pi_complement(pair, m, Pm) - 1.0, quartic, (c.M_d,))
        add("reflected_quartic_vs_M_d", m, None, quartic, m - c.M_d, (c.M_d,))

        r912 = _closed_left(m)
        for q in q_spread(r912):
            add("alternating_reflection_root", m, q,
                pi_complement(alt, m, q) - 1.0, r912 - q)
        if c.m_d - 1e-12 <= m <= c.m_1 + 1e-12:
            add("alternating_reflection_at_R", m, Rm,
                pi_complement(alt, m, Rm) - 1.0, -1.0)
        if m >= c.m_d - 1e-12:
            add("alternating_reflection_at_P", m, Pm,
                pi_complement(alt, m, Pm) - 1.0, 1.0, (c.m_d,))

        for q in q_spread(2.4):
            add("double_m_tail", m, q,
                pi_eval(double_tail, q) - (m - 1.0),
                1.0 - (m - 1.0) * (q - 2.0 + q ** -2))

        if m > 2.0 + 1e-9:
            add("m_pair_at_base_m_minus_1", m, m - 1.0,
                pi_eval(m_pair, m - 1.0) - (m - 1.0), c.m_4 - m, (c.m_4,))
        add("m_pair_at_R", m, Rm,
            pi_eval(m_pair, Rm) - (m - 1.0), -1.0)
        add("m_pair_at_P", m, Pm,
            pi_eval(m_pair, Pm) - (m - 1.0), c.M_d - m, (c.M_d,))

    crossovers = locate_crossovers(perturb_p)
    return SignSuiteReport(checks, crossovers)


def locate_crossovers(perturb_p: float = 0.0) -> list[CrossoverCheck]:
    """Bisect each sign flip and compare with the solved constant."""
    c = compute_constants()
    Pf = lambda m: P(m) + perturb_p
    entries = [
        ("single_one_tail_at_P", 1.0 + c.alpha, 2.0, 3.0,
         lambda m: pi_eval(_ternary_seq("m1^w", m), Pf(m)) - (m - 1.0)),
        ("pair_cubic", c.m_d, 2.2, 3.5,
         lambda m: Pf(m) ** 3 - 2.0 * Pf(m) ** 2 - Pf(m) + 1.0),
        ("reflected_pair_quartic", c.M_d, 3.5, 5.5,
         lambda m: -Pf(m) ** 4 + 2.0 * Pf(m) ** 3 + Pf(m) ** 2 - 2.0 * Pf(m) + 1.0),
        ("m_pair_at_base_m_minus_1", c.m_4, 2.5, 4.2,
         lambda m: pi_eval(_ternary_seq("m(m1)^w", m), m - 1.0) - (m - 1.0)),
    ]
    out = []
    for name, expected, lo, hi, f in entries:
        try:
            located = bisect_root(f, lo, hi)
            ok = abs(located - expected) <= 1e-6
        except ValueError:
            located = math.nan
            ok = False
        out.append(CrossoverCheck(name, expected, located, ok))
    return out
