"""Uniqueness verdicts for digit expansions and zero-free certification.

An expansion (c_i) of x = pi_q(c) over an alphabet {a_1 < ... < a_J} is
the unique one iff no digit can be lowered or raised without leaving
the representable range.  Concretely the sequence is unique when

    sum_i (c_{n+i} - a_1) / q**i  <  a_{j+1} - a_j   whenever c_n = a_j < a_J,
    sum_i (a_J - c_{n+i}) / q**i  <  a_j - a_{j-1}   whenever c_n = a_j > a_1,

and for q up to the alphabet's necessity threshold these conditions are
an exact characterization.  The zero-free check below specializes to
sequences over {1, m} inside the ternary alphabet {0, 1, m} with q > 2,
where only the two conditions at digit-1 positions matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .sequences import (
    EPS_CMP,
    Alphabet,
    EPSeq,
    Word,
    _canonical,
    _check_blocks,
    _horner,
    _pi_closed,
    _require_base,
    _require_int,
    require_zero_free,
)

class VerdictKind(str, Enum):
    PROVEN_UNIQUE = "ProvenUnique"
    PROVEN_NOT_UNIQUE = "ProvenNotUnique"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    """Worst-slack condition found while checking a sequence.

    ``position`` is the 1-based index n of the digit whose tail was
    tested, ``condition`` names the side ("raise" = the digit could be
    raised, "lower" = it could be lowered), ``slack`` is how far the
    strict inequality held (negative = violated), and ``boundary`` is
    set when the slack sits within the comparison margin, meaning the
    verdict kind should not be over-trusted.
    """

    position: int
    condition: str
    slack: float
    boundary: bool


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    witness: Witness | None


def _decide(worst: Witness | None, q: float, iff_threshold: float) -> Verdict:
    if worst is None or worst.slack > EPS_CMP:
        kind = VerdictKind.PROVEN_UNIQUE
    elif q <= iff_threshold + EPS_CMP:
        kind = VerdictKind.PROVEN_NOT_UNIQUE
    else:
        kind = VerdictKind.INCONCLUSIVE
    return Verdict(kind, worst)


def _worst_witness(seq: EPSeq, q: float, only: int | None = None) -> Witness | None:
    """Worst-slack condition over the positions of ``seq``, or only over
    those carrying symbol ``only``, and None when no condition applies.
    On a tie the earliest position wins, and "raise" before "lower".
    A slack that is not finite raises ValueError.

    One backward pass values every tail in O(pre + p): t starts as the
    period's closed form, the tail after the last symbol, and the tail
    after position n - 1 is (c_n + t)/q, which divides the rounding t
    carries by q, so each tail matches pi_eval to float resolution."""
    symbols = seq.preperiod + seq.period
    digits = seq.alphabet.digits
    top = len(digits) - 1
    lo_tail = digits[0] / (q - 1.0)
    hi_tail = digits[-1] / (q - 1.0)
    t = _horner(seq.period, digits, q) / (1.0 - q ** -len(seq.period))
    isfinite = math.isfinite
    # the running worst (slack, position, condition), position 0: none yet;
    # going backwards, <= hands a tie to the earlier position and to "raise"
    low, at, side = math.inf, 0, ""
    for n in range(len(symbols), 0, -1):
        j = symbols[n - 1]
        if only is None or j == only:
            if j > 0:
                slack = (digits[j] - digits[j - 1]) - (hi_tail - t)
                if not isfinite(slack):
                    raise ValueError(f"the slack overflows a float: {slack}")
                if slack <= low:
                    low, at, side = slack, n, "lower"
            if j < top:
                slack = (digits[j + 1] - digits[j]) - (t - lo_tail)
                if not isfinite(slack):
                    raise ValueError(f"the slack overflows a float: {slack}")
                if slack <= low:
                    low, at, side = slack, n, "raise"
        t = (digits[j] + t) / q
    return Witness(at, side, low, abs(low) <= EPS_CMP) if at else None


def check_univoque_general(seq: EPSeq, q: float) -> Verdict:
    """Decide whether ``seq`` is the unique expansion of its value.

    Works over any alphabet.  A failed condition at base q above the
    alphabet's necessity threshold only means the sufficient test was
    inconclusive.  A verdict costs O(pre + p) time, one backward pass.
    """
    _require_base(q)
    return _decide(_worst_witness(seq, q), q, seq.alphabet.necessity_threshold)


def _require_m(m: float) -> None:
    """ValueError unless m is finite and at least 2 (every zero-free entry point)."""
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if m == math.inf:
        raise ValueError(f"m must be finite, got {m}")


def _require_zero_free_params(m: float, q: float) -> None:
    """ValueError unless m is finite and at least 2 and q is finite and above 2."""
    _require_m(m)
    if not 2 < q < math.inf:
        raise ValueError(f"zero-free check needs a finite q > 2, got {q}")


def check_v_membership(seq: EPSeq, m: float, q: float) -> Verdict:
    """Zero-free uniqueness check over {1, m} for q > 2.

    Only positions carrying digit 1 constrain the verdict: the tail
    value must stay below m - 1 and its reflection below 1.  For
    q <= 1 + m/(m-1) a violated condition disproves uniqueness.  The
    alphabet must be {0, 1, m}; a verdict costs O(pre + p) time.
    """
    _require_zero_free_params(m, q)
    alphabet = seq.alphabet
    require_zero_free(alphabet, seq.preperiod + seq.period, m)
    if alphabet.digits[:-1] != (0.0, 1.0):
        raise ValueError("zero-free check needs the alphabet {0, 1, m}, "
                         f"got digits {alphabet.digits}")
    # symbol 1 of {0, 1, m} is the digit 1
    return _decide(_worst_witness(seq, q, only=1), q, alphabet.necessity_threshold)


# --- forbidden blocks -----------------------------------------------------

def _require_block_params(m: float, q: float) -> None:
    """ValueError unless m is finite and at least 2 and 2 < q <= 1 + m/(m-1)."""
    _require_m(m)
    r_cap = 1.0 + m / (m - 1.0)
    if not 2 < q <= r_cap + EPS_CMP:
        raise ValueError(f"q={q} outside (2, {r_cap}]")


def is_forbidden_block(w: str, m: float, q: float) -> bool:
    """True when the block 1w cannot occur in any zero-free unique sequence.

    ``w`` is a nonempty str over '1' and 'm'.  After the leading 1,
    every admissible tail starts with w, so if even the smallest
    completion w 1^inf reaches m - 1, or even the largest completion
    w m^inf stays within m/(q-1) - 1, one of the two digit-1 conditions
    fails (both valued by pi_eval's closed form, bit for bit).  Valid
    for 2 < q <= 1 + m/(m-1).  The comparisons are lenient: a bound
    within ``EPS_CMP`` of its threshold counts as reaching it, so a
    block that only touches a threshold is declared forbidden.
    """
    _require_block_params(m, q)
    if not isinstance(w, str):
        raise TypeError(f"w must be a str, got {type(w).__name__}")
    if not w or w.strip("1m"):  # empty, or a character other than '1' and 'm'
        _check_blocks([w])  # raises, naming the fault
    # canonical forms, as EPSeq stores them: a trailing run joins the period
    digits = {"1": 1.0, "m": float(m)}
    lowest = _pi_closed(w.rstrip("1"), "1", digits, q)
    highest = _pi_closed(w.rstrip("m"), "m", digits, q)
    return lowest >= m - 1.0 - EPS_CMP or highest <= m / (q - 1.0) - 1.0 + EPS_CMP


# Relative rounding allowance of the scan's carried head sums: a block
# whose carried bounds clear both thresholds by (m + 1) times this is
# not forbidden, so it needs no block test (see scan_forbidden).
_HEAD_SUM_ALLOWANCE = 2.0 ** -40


def scan_forbidden(m: float, q: float, lmax: int) -> list[Word]:
    """All minimal forbidden blocks 1w with |1w| <= lmax.

    Minimal means no listed word contains another as a factor; the list
    is ordered by length, then lexicographically with 1 < m.

    The scan goes level by level over a frontier of words 1w that
    contain no block kept so far.  Each frontier word is extended by 1,
    then by m.  An extension whose suffix is a kept block is dropped
    (its other factors lie in the frontier word, which avoids every
    block), found by one ``str.endswith`` over the tuple of kept
    blocks; otherwise the word is kept, joins the next frontier, or is
    dropped as having no forbidden descendant (below).  Every proper
    prefix of a kept block passes through the frontier, in
    length-then-lex order, so the blocks come out in that order.

    Each frontier entry carries its head sum h = sum_j d(w_j) q**-j,
    extended as h + d*t with t = q**-|w| updated once per level, so the
    two completions w 1^inf and w m^inf are worth about
    lo = h + t/(q-1) and hi = h + m*t/(q-1).  When lo + A stays below
    the test's threshold m - 1 - EPS_CMP and hi - A above its threshold
    m/(q-1) - 1 + EPS_CMP, with A = (m + 1) * 2**-40, the word is not
    forbidden and goes on untested.  Every kept block and every close
    call (a NaN too, as no comparison holds) is decided by
    :func:`is_forbidden_block`, so the output is the same as when every
    word is tested.  The allowance holds because at lmax <= 16 both
    the carried bound and the closed form of the block test come from
    at most about 60 roundings of positive terms, below m/(q-1) < m,
    so each lies within 60 * 2**-53 * m (about 6.7e-15 m) of the true
    value; A is over 100 times that, which also covers a ``pow`` a
    few ulps off.

    Only the words whose interval [lo, hi] meets a threshold go on.
    Over {1, m} with q > 2 lexicographic order is value order, so the
    completions of a descendant of w lie in the completions of w: its
    true interval nests inside that of w, and its carried bounds lie
    within twice the rounding above of w's carried interval.  When hi
    stays below m - 1 - EPS_CMP by 2A and lo above m/(q-1) - 1 + EPS_CMP
    by 2A, every descendant clears both thresholds by A: none would be
    tested or kept, so w leaves the frontier.  What goes on are the
    prefixes of the extremal sequences near the two thresholds, a few
    words per length (the lexicographic picture of Parry 1960 and of
    de Vries and Komornik 2009): at lmax 16 the frontier holds 19
    words in all at m = 3, q = 2.5, against the 19,511 that avoid the
    kept blocks.  lmax is capped at 16, where the allowance is proven;
    past about 36 symbols a cylinder is narrower than 2A, and the
    words near a threshold would multiply again.
    """
    _require_int("lmax", lmax)
    if not 1 <= lmax <= 16:
        raise ValueError("lmax must be between 1 and 16")
    _require_block_params(m, q)  # also where lmax = 1 tests no word
    allowance = (m + 1.0) * _HEAD_SUM_ALLOWANCE
    lo_cut = m - 1.0 - EPS_CMP  # is_forbidden_block's thresholds
    hi_cut = m / (q - 1.0) - 1.0 + EPS_CMP
    kept: tuple[str, ...] = ()
    frontier = [("1", 0.0)]  # words 1w with the head sums of their w
    t = 1.0
    for _ in range(2, lmax + 1):
        t /= q
        steps = (("1", t), ("m", m * t))
        low, high = t / (q - 1.0), m * t / (q - 1.0)
        grown = []
        for head, h in frontier:
            for c, d in steps:
                word = head + c
                if word.endswith(kept):
                    continue
                hd = h + d
                lo, hi = hd + low, hd + high
                clear = lo + allowance < lo_cut and hi - allowance > hi_cut
                if not clear and is_forbidden_block(word[1:], m, q):
                    kept += (word,)
                elif not (hi + 2 * allowance < lo_cut and lo - 2 * allowance > hi_cut):
                    grown.append((word, hd))
        if not grown:  # no longer word can be tested or kept
            break
        frontier = grown
    alphabet = Alphabet.ternary(m)
    symbol = {"1": 1, "m": 2}.__getitem__  # the ternary alphabet's indices
    return [Word(alphabet, tuple(map(symbol, k))) for k in kept]


# --- family certification -------------------------------------------------

def _extreme(blocks, pick):
    """Canonical (preperiod, period) of the greatest (``pick`` = max) or
    least (``pick`` = min) sequence in blocks^inf.

    The greedy walk emits it symbol by symbol from the set of (block,
    offset) states that can still produce it.  The extreme from one
    state follows one best state out of it, so over the n symbols of the
    blocks it is u v^inf with |u| + |v| <= n: the walk takes 3n symbols,
    and the least period of the last 2n is |v| (Fine-Wilf).
    """
    n = sum(map(len, blocks))
    starts = {(bi, 0) for bi in range(len(blocks))}
    states, out = starts, []
    for _ in range(3 * n):
        sym = pick(blocks[bi][off] for bi, off in states)
        out.append(sym)
        nxt = set()
        for bi, off in states:
            if blocks[bi][off] == sym:
                nxt |= starts if off + 1 == len(blocks[bi]) else {(bi, off + 1)}
        states = nxt
    b = next(b for b in range(1, n + 1) if out[n + b:] == out[n:-b])
    return _canonical(out[:n], out[n:n + b])


def certify_family(blocks, m: float, q: float) -> bool:
    """Certify that every free concatenation of ``blocks`` is unique.

    ``blocks`` are nonempty strings over '1' and 'm'.  A certified family
    witnesses uncountably many unique sequences only if two of its
    blocks u, v satisfy uv != vu; that precondition is not checked.  By
    Lyndon-Schuetzenberger, uv == vu exactly when u and v are powers of
    one word, so a family whose blocks all commute generates a single
    periodic sequence: ``['1m', '1m1m']`` certifies only (1m)^w.

    After each digit 1 come the rest of its block and any concatenation;
    over {1, m} with q > 2 lexicographic order is value order, so the
    tail's supremum (infimum) is that suffix followed by the greatest
    (least) sequence in blocks^inf, found once per family.  Each is
    valued as pi_eval values its EPSeq, bit for bit, and must clear
    m - 1 (reflected: 1) by ``EPS_CMP``.  A False result means "not
    certified", never a disproof.
    """
    _require_zero_free_params(m, q)
    alphabet = Alphabet.ternary(m)
    words = [tuple(map(alphabet.chars.index, b)) for b in _check_blocks(blocks)]
    if not words:
        raise ValueError("family needs at least one block")
    digit = alphabet.digits
    (hi_pre, hi_per), (lo_pre, lo_per) = _extreme(words, max), _extreme(words, min)

    # symbol 1 of {0, 1, m} is the digit 1
    suffixes = {b[j + 1:] for b in words for j in range(len(b)) if b[j] == 1}
    for suffix in suffixes:
        sup_tail = _pi_closed(*_canonical(suffix + hi_pre, hi_per), digit, q)
        if not sup_tail < m - 1.0 - EPS_CMP:
            return False
        inf_tail = _pi_closed(*_canonical(suffix + lo_pre, lo_per), digit, q)
        if not m / (q - 1.0) - inf_tail < 1.0 - EPS_CMP:
            return False
    return True
