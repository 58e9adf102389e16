"""Critical bases for zero-free ternary expansions.

For the alphabet {0, 1, m} two thresholds in the base q organize the
zero-free unique sequences over {1, m}:

    P(m) = 1 + sqrt(m/(m-1))   below it only trivial sequences survive,
    R(m) = 1 + m/(m-1)         at and above it uncountably many survive.

Between them sits a finite-to-countable threshold p(m) and a
countable-to-uncountable threshold r(m).  Both are computed here on the
parameter windows where a defining eventually periodic sequence is
known.  A window is the closed interval between two edges, each the
correctly rounded value of its closed form (m_2 is a configured
literal), and m is compared with them as it is: outside every window,
and so below 2 too, the functions return None (unsupported).

p(m) has closed forms.  On every window r(m) is the root of a signed
residual, pi_q(seq) - (m - 1) (plain) or reflected pi_q - 1
(complement), series with nonnegative terms and so strictly decreasing
in q > 1, which is checked from the digits of the sequence.  Cleared of
denominators it is an integer polynomial, and r(m) its root correctly
rounded.  The constants that bound the windows are algebraic too, each
the correctly rounded root of its own integer polynomial.
``solve_pi_root`` bisects the residual itself: the reference route that
``selftest`` checks r(m) against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from functools import lru_cache

from ._rounding import polynomial_root
from .sequences import (
    Alphabet,
    EPSeq,
    _Record,
    parse_seq,
    pi_eval,
    require_zero_free,
)

PLAIN = "plain"
COMPLEMENT = "complement"


def P(m: float) -> float:
    """Lower bracket curve: 1 + sqrt(m/(m-1)); satisfies (m-1)P(P-2) = 1."""
    if not 1 < m < math.inf:
        raise ValueError(f"m must be finite and exceed 1, got {m}")
    return 1.0 + math.sqrt(m / (m - 1.0))


def R(m: float) -> float:
    """Upper bracket curve: 1 + m/(m-1); satisfies (m-1)(R-2) = 1."""
    if not 1 < m < math.inf:
        raise ValueError(f"m must be finite and exceed 1, got {m}")
    return 1.0 + m / (m - 1.0)


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-13) -> float:
    """A root of f in [lo, hi] by bisection to width ``tol``; f must
    change sign over the bracket or vanish at one of its ends."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change over [{lo}, {hi}]")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
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


def solve_pi_root(seq: EPSeq, form: str, m: float) -> float:
    """Bisection root of the signed residual for ``seq`` at parameter m.

    The residual must be strictly decreasing in q, which is checked from
    the digits (see ``_residual_fn``), and must change sign over
    (2, R(m)).  The bracket is halved to width 1e-12, and the returned
    base q satisfies |residual(q)| < 1e-10.
    """
    # bisect_root evaluates both ends again: the cache keeps it to one
    # residual evaluation per base
    residual = lru_cache(maxsize=2)(_residual_fn(seq, form, m))
    lo, hi = 2.0, R(m)
    if not residual(lo) > 0 > residual(hi):
        raise ValueError(f"residual does not change sign over [{lo}, {hi}]")
    root = bisect_root(residual, lo, hi, 1e-12)
    res = residual(root)
    if abs(res) >= 1e-10:
        raise ValueError(f"residual {res} at root exceeds tolerance")
    return root


# --- named constants --------------------------------------------------------

class Constants(_Record):
    """Solved thresholds and window endpoints, with provenance notes;
    equal only to itself."""

    __slots__ = ("alpha", "phi", "m_d", "M_d", "q_1", "m_1", "m_2", "m_3", "m_4",
                 "q_4", "kl_q_prime", "provenance")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, alpha: float, phi: float, m_d: float, M_d: float, q_1: float,
                 m_1: float, m_2: float, m_3: float, m_4: float, q_4: float,
                 kl_q_prime: float, provenance: Mapping[str, str]):
        # built once per process: a loop here costs nothing measurable
        for name, value in zip(self.__slots__, (alpha, phi, m_d, M_d, q_1, m_1, m_2, m_3,
                                                m_4, q_4, kl_q_prime, provenance)):
            object.__setattr__(self, name, value)


def _ternary_seq(notation: str, m: float) -> EPSeq:
    return parse_seq(notation, Alphabet.ternary(m))


# name: (integer polynomial, highest power first and positive above the
# constant; its bracket lo, hi; how the polynomial is found)
_ALGEBRAIC = {
    "alpha": ((1, 0, -1, -1), 1.0, 2.0, "x^3 - x - 1 (first Pisot number)"),
    "q_1": ((1, -2, -2, 3, 0, -1), 2.0, 3.0, "q^2 (q-1) (q^2 - q - 3) - 1"),
    "m_1": ((1, -7, 18, -23, 17, -5), 2.8, 3.0,
            "m^5 - 7m^4 + 18m^3 - 23m^2 + 17m - 5: q eliminated from q_1's "
            "quintic and q^2 - (m-1)q - 1, so m_1 = 1 + q_1 - 1/q_1"),
    "m_d": ((1, -4, 3, 1), 2.5, 3.2,
            "m^3 - 4m^2 + 3m + 1, so m_d = 1 + 2cos(pi/7): P eliminated from "
            "pi_P((m1)^w) = m - 1 and (m-1)P(P-2) = 1"),
    "M_d": ((1, -6, 7, -2, 1), 4.0, 5.0,
            "m^4 - 6m^3 + 7m^2 - 2m + 1: P eliminated from reflected "
            "pi_P((m1)^w) = 1 and (m-1)P(P-2) = 1"),
    "m_3": ((4, -18, 21, -16, 17, -7, -3, 1), 3.0, 3.2,
            "4m^7 - 18m^6 + 21m^5 - 16m^4 + 17m^3 - 7m^2 - 3m + 1: q eliminated "
            "from the numerators of pi_q(mm1(m11m)^w) = m - 1 and reflected "
            "pi_q((1mm1)^w) = 1, cleared of their common factor q + 1"),
}


@lru_cache(maxsize=1)
def compute_constants() -> Constants:
    """Every named constant from its defining equation, correctly rounded."""
    c = Constants(
        **{name: polynomial_root(coeffs, hi, lo)
           for name, (coeffs, lo, hi, _) in _ALGEBRAIC.items()},
        phi=(1.0 + math.sqrt(5.0)) / 2.0, m_2=2.992, kl_q_prime=1.78723,
        m_4=(3.0 + math.sqrt(13.0)) / 2.0, q_4=(1.0 + math.sqrt(13.0)) / 2.0,
        provenance={
            **{name: f"root in ({lo}, {hi}) of {how}"
               for name, (_, lo, hi, how) in _ALGEBRAIC.items()},
            "phi": "(1 + sqrt 5)/2",
            "m_2": "configured literal (approximate window endpoint)",
            "m_4": "(3 + sqrt 13)/2", "q_4": "(1 + sqrt 13)/2",
            "kl_q_prime": "display-only literal (two-digit alphabet threshold)",
        },
    )
    if not (1.0 < c.alpha < c.phi < 2.0 < c.m_d < c.m_1 < c.m_2 < c.m_3
            < c.m_4 < c.M_d):
        raise ArithmeticError("constant ordering violated")
    return c


# --- r and p curves ---------------------------------------------------------

def _numerator(seq: EPSeq, form: str, one: int, m: int) -> list[int]:
    """Coefficients, lowest power first, of N(q): the residual of ``seq``
    in ``form`` times q^n (q^p - 1) > 0, for n and p symbols in the
    preperiod and the period.  The digits 1 and m, and the residual's
    constant 1, count as ``one`` and ``m``: N is linear in the two."""
    # the complement residual is pi_q of the reflected digits m - c_i, minus 1
    digits, level = (((0, one, m), m - one) if form == PLAIN
                     else ((m, m - one, 0), one))
    pre, per = seq.preperiod, seq.period
    n, p = len(pre), len(per)
    # q^n (q^p - 1) pi_q = (q^p - 1) sum_i u_i q^(n-i) + sum_j v_j q^(p-j)
    c = [0] * (n + p + 1)
    for i, s in enumerate(pre, 1):
        c[n - i + p] += digits[s]
        c[n - i] -= digits[s]
    for j, s in enumerate(per, 1):
        c[p - j] += digits[s]
    c[n + p] -= level
    c[n] += level
    return c


class Branch(_Record):
    """One window [lo, hi] of the r(m) curve with its defining sequence,
    whose symbols ``preperiod`` and ``period`` are parsed once from
    ``notation``.  The pairs (a_k, b_k) of ``numerator`` give the integer
    polynomial N(q) = sum_k (a_k + m b_k) q^k of its residual in ``form``
    (see :func:`_numerator`); r(m) is its root, correctly rounded.
    ``ms`` is the 0/1 indicator of the digit m, whose ``pi_eval`` checks
    each root.  Building a branch checks that the sequence is zero-free
    and its residual strictly decreasing in q for every m > 1 (the digits
    decide it, so at m = 2), and raises ValueError if not.
    """

    __slots__ = ("label", "notation", "form", "lo", "hi", "ms",
                 "preperiod", "period", "numerator")

    def __init__(self, label: str, notation: str, form: str, lo: float, hi: float):
        seq = _ternary_seq(notation, 2.0)  # its symbols do not depend on m
        _residual_fn(seq, form, 2.0)
        pre, per = seq.preperiod, seq.period
        require_zero_free(seq.alphabet, pre + per, 2.0)
        binary = Alphabet((0.0, 1.0), ("0", "1"))
        ms = EPSeq(binary, tuple(int(s == 2) for s in pre), tuple(int(s == 2) for s in per))
        a, b = (_numerator(seq, form, one, m) for one, m in ((1, 0), (0, 1)))
        for name, value in zip(self.__slots__, (label, notation, form, lo, hi, ms,
                                                pre, per, tuple(zip(a, b)))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # the constructor fields only: unpickling parses and checks again
        return Branch, (self.label, self.notation, self.form, self.lo, self.hi)

    def defining_seq(self, m: float) -> EPSeq:
        return EPSeq(Alphabet.ternary(m), self.preperiod, self.period)


@lru_cache(maxsize=1)
def branches() -> tuple[Branch, ...]:
    c = compute_constants()
    return (
        Branch("Comp0_full", "m1^w", PLAIN, 2.0, 1.0 + c.alpha),
        Branch("Comp10_left", "(1m)^w", COMPLEMENT, c.m_d, c.m_1),
        Branch("Comp10_mid", "mm1(m11m)^w", PLAIN, c.m_2, c.m_3),
        Branch("Comp10_right", "m(m1)^w", PLAIN, c.m_4, c.M_d),
    )


def branch_for(m: float) -> Branch | None:
    for b in branches():
        if b.lo <= m <= b.hi:
            return b
    return None


def r_of_m(m: float) -> float | None:
    """Countable-to-uncountable threshold, or None off the known windows;
    a non-finite m is a ValueError.

    r(m) is the float nearest to the root of N in (2, R(m)), N of the
    branch whose window holds m, found by ``polynomial_root`` on -N times
    the denominator of the float m, an integer polynomial: N changes sign
    once for q > 1, from + to -.  Its residual there must be below 1e-10,
    with pi_q of the sequence, whose digits are 1 or m, valued as
    1/(q - 1) + (m - 1) ``pi_eval`` of the branch's indicator ``ms``.
    """
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    b = branch_for(m)
    return None if b is None else _r_on(b, m, R(m))


def _r_on(b: Branch, m: float, top: float) -> float:
    """r(m) on the branch b that branch_for gives for the finite m,
    searched for below top = R(m)."""
    m_num, m_den = m.as_integer_ratio()
    root = polynomial_root([-a * m_den - c * m_num for a, c in reversed(b.numerator)],
                           top, 2.0)
    value = 1.0 / (root - 1.0) + (m - 1.0) * pi_eval(b.ms, root)
    res = value - (m - 1.0) if b.form == PLAIN else m / (root - 1.0) - value - 1.0
    if not abs(res) < 1e-10:
        raise ValueError(f"residual {res} at r({m}) = {root} exceeds tolerance")
    return root


def p_of_m(m: float) -> float | None:
    """Finite-to-countable threshold, or None off the known windows; a
    non-finite m is a ValueError.

    On the first window p(m) = m.  On the window [m_d, M_d] it is the
    larger of sqrt(m) (reflected pair residual) and the root above 2 of
    (m-1) q^2 - m q - m = 0 (plain pair residual).
    """
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    c = compute_constants()
    if 2.0 <= m <= 1.0 + c.alpha:
        return float(m)
    if c.m_d <= m <= c.M_d:
        from_pair_reflection = math.sqrt(m)
        disc = m * m + 4.0 * m * (m - 1.0)
        from_pair_plain = (m + math.sqrt(disc)) / (2.0 * (m - 1.0))
        return max(from_pair_reflection, from_pair_plain)
    return None

