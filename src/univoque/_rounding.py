"""Correctly rounded real roots, for ``automata`` and ``critical``:
Newton's method in floats, then exact tests at float midpoints."""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence


def newton_descent(coeffs: list[float], x: float, lo: float = 0.0) -> float:
    """Newton's method for the polynomial p with ``coeffs`` (highest
    power first), run down from x while p(x) > 0, p'(x) > 0 and the
    iterates decrease inside (lo, x).  Where p is increasing and convex
    above its largest root below x, they descend to that root; where
    they stop early, :func:`round_root` only needs more exact tests."""
    while True:
        p = dp = 0.0
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        if p <= 0.0 or dp <= 0.0:
            return x
        nxt = x - p / dp
        if not lo < nxt < x:
            return x
        x = nxt


def round_root(above: Callable[[int, int], bool], x: float) -> float:
    """The float nearest to a root rho > 0, searched for from the float
    x; ``above(num, den)`` tells exactly whether num/den > rho.

    The answer is the least float whose midpoint with the next float up
    is above rho.  Steps that double from x bracket it, and bisection
    over the floats' bit patterns finds it; when x is the answer, that
    takes two exact tests.
    """
    def below_upper_midpoint(i: int) -> bool:
        return above(*_upper_midpoint(i))

    # ordinals lo < hi of floats >= 0, the test false at lo and true at hi
    i = _ordinal(x)
    step = 1
    if below_upper_midpoint(i):
        hi, lo = i, i - 1
        while below_upper_midpoint(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, 0)
    else:
        lo, hi = i, i + 1
        while not below_upper_midpoint(hi):
            lo, step = hi, 2 * step
            hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below_upper_midpoint(mid):
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


def polynomial_root(coeffs: Sequence[int], hi: float, lo: float) -> float:
    """The float nearest to the root in (lo, hi) of the polynomial with
    integer ``coeffs`` (highest power first), positive above that root:
    Newton's method down from hi, then :func:`round_root` by exact signs.
    A float found outside [lo, hi] is a ValueError: no root was there."""
    x = newton_descent([float(c) for c in coeffs], hi, lo)

    def above(num: int, den: int) -> bool:  # den^d p(num/den) > 0
        acc, scale = 0, 1
        for c in coeffs:
            acc, scale = acc * num + c * scale, scale * den
        return acc > 0

    x = round_root(above, x)
    if not lo <= x <= hi:
        raise ValueError(f"the root found, {x}, lies outside [{lo}, {hi}]")
    return x


def _upper_midpoint(i: int) -> tuple[int, int]:
    """num/den, the midpoint of the float with ordinal i >= 0 and the
    next one up, read off its bits: exponent field e > 0 and fraction f
    give (2^52 + f) 2^(e - 1075), and e = 0 gives f 2^-1074."""
    e, f = divmod(i, 1 << 52)
    if e > 2046:  # i is not a finite float's: the search passed them all
        raise ValueError("the root lies above the largest float")
    num, e = 2 * (f | 1 << 52 if e else f) + 1, max(e, 1)
    return (num << (e - 1076), 1) if e > 1076 else (num, 1 << (1076 - e))


def _ordinal(x: float) -> int:
    """Position of a float >= 0 in the order of all floats >= 0."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float_at(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]
