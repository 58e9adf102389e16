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
    pi_complement,
    pi_eval,
    require_zero_free,
    shift,
)

# Longest sequence (preperiod plus period) the two checkers take: they
# evaluate one tail per symbol, so a verdict's time grows with the
# square of the length (about 0.3 s here, hours at 10**6 symbols).
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


def _witness(position: int, condition: str, slack: float) -> Witness:
    """Witness for one condition; ValueError if the slack is not finite."""
    if not math.isfinite(slack):
        raise ValueError(f"the slack overflows a float: {slack}")
    return Witness(position, condition, slack, abs(slack) <= EPS_CMP)


def _require_verdict_length(seq: EPSeq) -> int:
    """Number of symbols to check; ValueError above MAX_VERDICT_SYMBOLS."""
    length = len(seq.preperiod) + len(seq.period)
    if length > MAX_VERDICT_SYMBOLS:
        raise ValueError(f"the sequence has {length} symbols; a verdict "
                         f"takes at most {MAX_VERDICT_SYMBOLS}")
    return length


def _decide(worst: Witness | None, q: float, iff_threshold: float) -> Verdict:
    if worst is None or worst.slack > EPS_CMP:
        kind = VerdictKind.PROVEN_UNIQUE
    elif q <= iff_threshold + EPS_CMP:
        kind = VerdictKind.PROVEN_NOT_UNIQUE
    else:
        kind = VerdictKind.INCONCLUSIVE
    return Verdict(kind, worst)


def _worse(a: Witness | None, b: Witness) -> Witness:
    return b if a is None or b.slack < a.slack else a


def check_univoque_general(seq: EPSeq, q: float) -> Verdict:
    """Decide whether ``seq`` is the unique expansion of its value.

    Works over any alphabet.  A failed condition at base q above the
    alphabet's necessity threshold only means the sufficient test was
    inconclusive.  Longer than MAX_VERDICT_SYMBOLS raises ValueError.
    """
    if not q > 1:
        raise ValueError(f"base must exceed 1, got {q}")
    digits = seq.alphabet.digits
    top = len(digits) - 1
    lo_tail = digits[0] / (q - 1.0)
    hi_tail = digits[-1] / (q - 1.0)
    worst: Witness | None = None
    for n in range(1, _require_verdict_length(seq) + 1):
        j = seq.symbol(n - 1)
        tail = pi_eval(shift(seq, n), q)
        if j < top:
            slack = (digits[j + 1] - digits[j]) - (tail - lo_tail)
            worst = _worse(worst, _witness(n, "raise", slack))
        if j > 0:
            slack = (digits[j] - digits[j - 1]) - (hi_tail - tail)
            worst = _worse(worst, _witness(n, "lower", slack))
    return _decide(worst, q, seq.alphabet.necessity_threshold)


def check_v_membership(seq: EPSeq, m: float, q: float) -> Verdict:
    """Zero-free uniqueness check over {1, m} for q > 2.

    Only positions carrying digit 1 constrain the verdict: the tail
    value must stay below m - 1 and its reflection below 1.  For
    q <= 1 + m/(m-1) a violated condition disproves uniqueness.
    Longer than MAX_VERDICT_SYMBOLS raises ValueError.
    """
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not q > 2:
        raise ValueError(f"zero-free check needs q > 2, got {q}")
    require_zero_free(seq.alphabet, seq.preperiod + seq.period, m)
    worst: Witness | None = None
    for n in range(1, _require_verdict_length(seq) + 1):
        if seq.digit(n - 1) != 1.0:
            continue
        tail = shift(seq, n)
        up = (m - 1.0) - pi_eval(tail, q)
        worst = _worse(worst, _witness(n, "raise", up))
        down = 1.0 - pi_complement(tail, m, q)
        worst = _worse(worst, _witness(n, "lower", down))
    threshold = 1.0 + m / (m - 1.0)
    return _decide(worst, q, threshold)


# --- forbidden blocks -----------------------------------------------------

def _as_zero_free_word(w: Word | str, m: float) -> Word:
    if isinstance(w, str):
        alphabet = Alphabet.ternary(m)
        syms = []
        for i, c in enumerate(w):
            s = alphabet.index_of_char(c)
            if s is None:
                raise ValueError(f"unknown digit character {c!r} at offset {i}")
            syms.append(s)
        w = Word(alphabet, tuple(syms))
    require_zero_free(w.alphabet, w.symbols, m)
    return w


def is_forbidden_block(w: Word | str, m: float, q: float) -> bool:
    """True when the block 1w cannot occur in any zero-free unique sequence.

    Sound test: after the leading 1, every admissible tail starts with w,
    so if even the smallest completion w 1^inf reaches m - 1, or even the
    largest completion w m^inf stays within m/(q-1) - 1, one of the two
    digit-1 conditions fails.  Valid for 2 < q <= 1 + m/(m-1).
    """
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    r_cap = 1.0 + m / (m - 1.0)
    if not 2 < q <= r_cap + EPS_CMP:
        raise ValueError(f"q={q} outside (2, {r_cap}]")
    w = _as_zero_free_word(w, m)
    if not w.symbols:
        raise ValueError("w must be nonempty")
    one = w.alphabet.digits.index(1.0)
    top = len(w.alphabet.digits) - 1
    lowest = pi_eval(EPSeq(w.alphabet, w.symbols, (one,)), q)
    highest = pi_eval(EPSeq(w.alphabet, w.symbols, (top,)), q)
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
    alphabet = Alphabet.ternary(m)
    one = alphabet.digits.index(1.0)
    top = len(alphabet.digits) - 1
    kept: list[Word] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(2, lmax + 1):
        grown = []
        for tail in frontier:
            for s in (one, top):
                ext = tail + (s,)
                word = (one,) + ext
                if any(word[-len(k):] == k.symbols for k in kept):
                    continue
                if is_forbidden_block(Word(alphabet, ext), m, q):
                    kept.append(Word(alphabet, word))
                else:
                    grown.append(ext)
        frontier = grown
    return kept


# --- family certification -------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A set of zero-free blocks whose free concatenations are examined.

    With at least two distinct blocks, a certified family witnesses
    uncountably many unique sequences (every infinite choice of blocks
    yields a distinct member).
    """

    blocks: tuple[Word, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("family needs at least one block")
        alphabet = self.blocks[0].alphabet
        for b in self.blocks:
            if b.alphabet != alphabet:
                raise ValueError("blocks must share an alphabet")
            if not b.symbols:
                raise ValueError("blocks must be nonempty")

    @classmethod
    def from_texts(cls, texts, m: float) -> FamilySpec:
        return cls(tuple(_as_zero_free_word(t, m) for t in texts))

    @property
    def alphabet(self) -> Alphabet:
        return self.blocks[0].alphabet


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


def certify_family(family: FamilySpec, m: float, q: float) -> bool:
    """Certify that every free concatenation of the blocks is unique.

    For each digit-1 position class inside the blocks, the supremum of
    the tail value over all continuations is bounded by the greedy
    lexicographic maximum to ``FAMILY_DEPTH`` symbols plus a worst-case
    remainder, and must clear m - 1; symmetrically the reflected bound
    must clear 1 via the lexicographic minimum.  A False result means
    "not certified at this depth", never a disproof.
    """
    if not m >= 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not q > 2:
        raise ValueError(f"certification needs q > 2, got {q}")
    alphabet = family.alphabet
    for b in family.blocks:
        require_zero_free(alphabet, b.symbols, m)
    blocks = [b.symbols for b in family.blocks]
    digit = alphabet.digits
    one = digit.index(1.0)
    remainder = m * q ** (-FAMILY_DEPTH) / (q - 1.0)

    suffixes = {b[j + 1:] for b in blocks for j in range(len(b)) if b[j] == one}
    for suffix in suffixes:
        hi = _greedy_prefix(suffix, blocks, FAMILY_DEPTH, take_max=True)
        sup_tail = _horner(hi, digit, q) + remainder
        if not sup_tail < m - 1.0 - EPS_CMP:
            return False
        lo = _greedy_prefix(suffix, blocks, FAMILY_DEPTH, take_max=False)
        inf_tail = _horner(lo, digit, q)
        if not m / (q - 1.0) - inf_tail < 1.0 - EPS_CMP:
            return False
    return True

