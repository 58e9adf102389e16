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
    _horner,
    _pi_closed,
    _require_base,
    require_zero_free,
)

# Longest sequence (preperiod plus period) the two checkers take.  The
# preperiod's tails come from one backward pass and each tail in the
# period from one Horner pass over a rotation of it, so a verdict costs
# O(pre + p**2) for a period of p symbols.
MAX_VERDICT_SYMBOLS = 2048

# Symbols of each extreme concatenation certify_family expands exactly;
# the rest of the tail is bounded by a worst-case remainder.
FAMILY_DEPTH = 64


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
    A slack that is not finite, or a sequence longer than
    MAX_VERDICT_SYMBOLS, raises ValueError."""
    pre, per = seq.preperiod, seq.period
    length = len(pre) + len(per)
    if length > MAX_VERDICT_SYMBOLS:
        raise ValueError(f"the sequence has {length} symbols; a verdict "
                         f"takes at most {MAX_VERDICT_SYMBOLS}")
    digits = seq.alphabet.digits
    top = len(digits) - 1
    lo_tail = digits[0] / (q - 1.0)
    hi_tail = digits[-1] / (q - 1.0)
    # The tail after position n is pi_eval of the sequence with its
    # first n symbols dropped, computed with the same float operations.
    # heads[k] is _horner of the last k symbols of the preperiod.
    heads = [0.0]
    for s in reversed(pre):
        heads.append((heads[-1] + digits[s]) / q)
    den = 1.0 - q ** -len(per)
    sv = _horner(per, digits, q)
    isfinite = math.isfinite
    # the running worst (slack, position, condition); position 0: none yet
    low, at, side = math.inf, 0, ""
    npre = len(pre)
    for n, j in enumerate(pre + per, 1):
        if only is not None and j != only:
            continue
        if n <= npre:
            tail = heads[npre - n] + q ** (n - npre) * sv / den
        else:
            k = n - npre  # per[k:] + per[:k] is per again at k = len(per)
            tail = _horner(per[k:] + per[:k], digits, q) / den
        if j < top:
            slack = (digits[j + 1] - digits[j]) - (tail - lo_tail)
            if not isfinite(slack):
                raise ValueError(f"the slack overflows a float: {slack}")
            if slack < low:
                low, at, side = slack, n, "raise"
        if j > 0:
            slack = (digits[j] - digits[j - 1]) - (hi_tail - tail)
            if not isfinite(slack):
                raise ValueError(f"the slack overflows a float: {slack}")
            if slack < low:
                low, at, side = slack, n, "lower"
    return Witness(at, side, low, abs(low) <= EPS_CMP) if at else None


def check_univoque_general(seq: EPSeq, q: float) -> Verdict:
    """Decide whether ``seq`` is the unique expansion of its value.

    Works over any alphabet.  A failed condition at base q above the
    alphabet's necessity threshold only means the sufficient test was
    inconclusive.  Longer than MAX_VERDICT_SYMBOLS raises ValueError.
    """
    _require_base(q)
    return _decide(_worst_witness(seq, q), q, seq.alphabet.necessity_threshold)


def check_v_membership(seq: EPSeq, m: float, q: float) -> Verdict:
    """Zero-free uniqueness check over {1, m} for q > 2.

    Only positions carrying digit 1 constrain the verdict: the tail
    value must stay below m - 1 and its reflection below 1.  For
    q <= 1 + m/(m-1) a violated condition disproves uniqueness.  The
    alphabet must be {0, 1, m}; longer than MAX_VERDICT_SYMBOLS raises
    ValueError.
    """
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not 2 < q < math.inf:
        raise ValueError(f"zero-free check needs a finite q > 2, got {q}")
    alphabet = seq.alphabet
    require_zero_free(alphabet, seq.preperiod + seq.period, m)
    if alphabet.digits[:-1] != (0.0, 1.0):
        raise ValueError("zero-free check needs the alphabet {0, 1, m}, "
                         f"got digits {alphabet.digits}")
    # symbol 1 of {0, 1, m} is the digit 1
    return _decide(_worst_witness(seq, q, only=1), q, alphabet.necessity_threshold)


# --- forbidden blocks -----------------------------------------------------

def _block_symbols(block: str, alphabet: Alphabet) -> tuple[int, ...]:
    """Symbols of a block string over '1' and 'm' in the ternary
    ``alphabet``; ValueError for any other character."""
    if not isinstance(block, str):
        raise TypeError(f"block must be a str, got {type(block).__name__}")
    syms = []
    for i, c in enumerate(block):
        s = alphabet.index_of_char(c)
        if s is None:
            raise ValueError(f"unknown digit character {c!r} at offset {i}")
        syms.append(s)
    require_zero_free(alphabet, syms, alphabet.digits[-1])
    return tuple(syms)


def _require_block_params(m: float, q: float) -> None:
    """ValueError unless m is finite and at least 2 and 2 < q <= 1 + m/(m-1)."""
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if m == math.inf:
        raise ValueError(f"m must be finite, got {m}")
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
    if w.strip("1m"):  # a character other than '1' and 'm'
        _block_symbols(w, Alphabet.ternary(m))  # raises, naming it
    if not w:
        raise ValueError("w must be nonempty")
    # canonical forms, as EPSeq stores them: a trailing run joins the period
    digits = {"1": 1.0, "m": float(m)}
    lowest = _pi_closed(w.rstrip("1"), "1", digits, q)
    highest = _pi_closed(w.rstrip("m"), "m", digits, q)
    return lowest >= m - 1.0 - EPS_CMP or highest <= m / (q - 1.0) - 1.0 + EPS_CMP


def scan_forbidden(m: float, q: float, lmax: int) -> list[Word]:
    """All minimal forbidden blocks 1w with |1w| <= lmax.

    Minimal means no listed word contains another as a factor; the list
    is ordered by length, then lexicographically with 1 < m.

    The scan goes level by level over a frontier: the words 1w of the
    current length that contain no block kept so far.  Each frontier
    word is extended by 1, then by m.  An extension whose suffix is a
    kept block is dropped (its other factors lie in the frontier word,
    which avoids every block); otherwise its tail w is tested with
    :func:`is_forbidden_block` and the word is either kept or joins the
    next frontier.  Words avoiding the kept blocks are closed under
    prefixes, so this visits exactly the words that contain no kept
    block, in length-then-lex order, and tests each of them once.

    Below r(m) the frontier stays small; above it, it grows by nearly a
    factor of two with each length (m = 3, q = 2.5: 4,841 words at
    length 15), which is why lmax is capped at 16.
    """
    if not 1 <= lmax <= 16:
        raise ValueError("lmax must be between 1 and 16")
    _require_block_params(m, q)  # also where lmax = 1 tests no word
    kept: list[str] = []
    frontier = [""]
    for _ in range(2, lmax + 1):
        grown = []
        for tail in frontier:
            for c in "1m":
                ext = tail + c
                word = "1" + ext
                if any(word.endswith(k) for k in kept):
                    continue
                if is_forbidden_block(ext, m, q):
                    kept.append(word)
                else:
                    grown.append(ext)
        frontier = grown
    alphabet = Alphabet.ternary(m)
    return [Word(alphabet, _block_symbols(k, alphabet)) for k in kept]


# --- family certification -------------------------------------------------

def _greedy_prefix(suffix, blocks, depth: int, take_max: bool):
    """Lexicographically extreme length-``depth`` prefix of suffix.blocks^inf.

    Every prefix of a concatenation extends to an infinite one, so the
    greedy symbol-by-symbol choice realizes the lexicographic extreme.
    """
    out = list(suffix[:depth])
    states = {(bi, 0) for bi in range(len(blocks))}
    pick = max if take_max else min
    while len(out) < depth:
        emitted: dict[int, set] = {}
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


def certify_family(blocks, m: float, q: float) -> bool:
    """Certify that every free concatenation of ``blocks`` is unique.

    ``blocks`` are nonempty strings over '1' and 'm'.  A certified family
    witnesses uncountably many unique sequences only if two of its
    blocks u, v satisfy uv != vu; that precondition is not checked.  By
    Lyndon-Schuetzenberger, uv == vu exactly when u and v are powers of
    one word, so a family whose blocks all commute generates a single
    periodic sequence: ``['1m', '1m1m']`` certifies only (1m)^w.

    For each digit-1 position class inside the blocks, the supremum of
    the tail value over all continuations is bounded by the greedy
    lexicographic maximum to ``FAMILY_DEPTH`` symbols plus a worst-case
    remainder, and must clear m - 1; symmetrically the reflected bound
    must clear 1 via the lexicographic minimum.  A False result means
    "not certified at this depth", never a disproof.
    """
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not 2 < q < math.inf:
        raise ValueError(f"certification needs a finite q > 2, got {q}")
    if isinstance(blocks, str):
        raise TypeError("blocks must be an iterable of str, not a str")
    alphabet = Alphabet.ternary(m)
    words = [_block_symbols(b, alphabet) for b in blocks]
    if not words:
        raise ValueError("family needs at least one block")
    if not all(words):
        raise ValueError("blocks must be nonempty")
    digit = alphabet.digits
    remainder = m * q ** (-FAMILY_DEPTH) / (q - 1.0)

    # symbol 1 of {0, 1, m} is the digit 1
    suffixes = {b[j + 1:] for b in words for j in range(len(b)) if b[j] == 1}
    for suffix in suffixes:
        hi = _greedy_prefix(suffix, words, FAMILY_DEPTH, take_max=True)
        sup_tail = _horner(hi, digit, q) + remainder
        if not sup_tail < m - 1.0 - EPS_CMP:
            return False
        lo = _greedy_prefix(suffix, words, FAMILY_DEPTH, take_max=False)
        inf_tail = _horner(lo, digit, q)
        if not m / (q - 1.0) - inf_tail < 1.0 - EPS_CMP:
            return False
    return True
