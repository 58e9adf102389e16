"""Digit sequences and their values in a non-integer base.

A sequence (c_i) over an alphabet of real digits is evaluated as

    pi_q(c) = sum_{i >= 1} c_i / q**i,   q > 1.

Everything downstream (uniqueness verdicts, critical-base curves,
avoidance automata) works with eventually periodic sequences, written
in a compact notation: ``m1^w`` is the digit m followed by ones forever,
``mm1(m11m)^w`` has preperiod mm1 and period m11m.  ``^w`` marks the
final item as repeating forever; ``^k`` with a positive integer repeats
an item k times.
"""

from __future__ import annotations

import math

# Margin used when a strict inequality has to be decided in floating
# point.  Values closer than this to a threshold are boundary cases.
EPS_CMP = 1e-9

_INDEX_CHARS = "0123456789"

# Longest sequence text expansion (preperiod plus period, in symbols)
# that repeat counts may produce; a larger one is a NotationError.
MAX_EXPANDED_LENGTH = 1_000_000

# Deepest nesting of parenthesized groups; a deeper one is a
# NotationError (the parser recurses once per group).
MAX_GROUP_DEPTH = 100


class NotationError(ValueError):
    """Sequence text that does not conform to the notation grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class _Record:
    """Immutable record whose fields are its ``__slots__``: equality, hash
    and repr by field, as for a frozen dataclass, without loading
    ``dataclasses`` and ``inspect``.  Each ``__init__`` checks its
    arguments and stores each field once; pickling and copying call it.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Alphabet(_Record):
    """Finite, strictly increasing set of real digits.

    ``chars`` assigns one text character per digit for the sequence
    notation.  The ternary specialization uses digits (0, 1, m) with
    characters '0', '1', 'm'.
    """

    __slots__ = ("digits", "chars")

    def __init__(self, digits: tuple[float, ...], chars: tuple[str, ...]):
        if len(digits) < 2:
            raise ValueError("alphabet needs at least 2 digits")
        if len(chars) != len(digits):
            raise ValueError("one character per digit required")
        if not all(map(math.isfinite, digits)):
            raise ValueError(f"digits must be finite, got {digits}")
        if any(b <= a for a, b in zip(digits, digits[1:])):
            raise ValueError("digits must be strictly increasing")
        if len(set(chars)) != len(chars):
            raise ValueError("digit characters must be distinct")
        for c in chars:
            if len(c) != 1 or c in "()^":
                raise ValueError(f"invalid digit character {c!r}")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "chars", chars)

    @classmethod
    def ternary(cls, m: float) -> Alphabet:
        """The alphabet {0, 1, m} with m >= 2, written '0', '1', 'm'."""
        if not m >= 2:
            raise ValueError(f"ternary alphabet needs m >= 2, got {m}")
        return cls((0.0, 1.0, float(m)), ("0", "1", "m"))

    @classmethod
    def from_digits(cls, digits) -> Alphabet:
        """General alphabet; digit i is written with the character str(i)."""
        digits = tuple(float(d) for d in digits)
        if len(digits) > len(_INDEX_CHARS):
            raise ValueError("at most 10 digits supported by the notation")
        return cls(digits, tuple(_INDEX_CHARS[: len(digits)]))

    @property
    def necessity_threshold(self) -> float:
        """Base below which the uniqueness conditions are also necessary.

        Equal to 1 + span / max_gap, where span is the top digit minus
        the bottom one; for {0,1,m} this is 1 + m/(m-1).
        """
        d = self.digits
        return 1.0 + (d[-1] - d[0]) / max(b - a for a, b in zip(d, d[1:]))

    def index_of_char(self, c: str) -> int | None:
        try:
            return self.chars.index(c)
        except ValueError:
            return None


class Word(_Record):
    """Finite (possibly empty) list of symbol indices into an alphabet."""

    __slots__ = ("alphabet", "symbols")

    def __init__(self, alphabet: Alphabet, symbols: tuple[int, ...]):
        _check_symbols(alphabet, symbols)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        return "".join(self.alphabet.chars[s] for s in self.symbols)

    def __str__(self) -> str:
        return self.text()


class EPSeq(_Record):
    """Eventually periodic sequence, stored in canonical form.

    Canonical means the period is primitive (not a power of a shorter
    word) and rotations are absorbed into it: the preperiod never ends
    with the same symbol the period ends with.  Structural equality of
    canonical forms then coincides with equality as infinite sequences.
    """

    __slots__ = ("alphabet", "preperiod", "period")

    def __init__(self, alphabet: Alphabet, preperiod: tuple[int, ...],
                 period: tuple[int, ...]):
        if not period:
            raise ValueError("empty period")
        _check_symbols(alphabet, preperiod)
        _check_symbols(alphabet, period)
        pre, per = _canonical(preperiod, period)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def symbol(self, i: int) -> int:
        """Symbol index at 0-based position i."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def __str__(self) -> str:
        return format_seq(self)


def _check_symbols(alphabet: Alphabet, symbols) -> None:
    for s in symbols:
        if not isinstance(s, int) or not 0 <= s < len(alphabet.digits):
            raise ValueError(f"symbol index {s!r} outside alphabet")


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


def _canonical(pre, per):
    per = _primitive(tuple(per))
    pre = list(pre)
    # absorb a shared trailing symbol by rotating the period right
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = per[-1:] + per[:-1]
    return tuple(pre), per


# --- notation -------------------------------------------------------------

def parse_seq(text: str, alphabet: Alphabet) -> EPSeq | Word:
    """Parse sequence notation; returns an EPSeq when '^w' is present.

    Grammar: a sequence of items, where an item is a digit character, a
    parenthesized group of items, or an item followed by '^' and a
    positive repeat count.  The final item may instead carry '^w',
    making it the period of an eventually periodic sequence.  Repeat
    counts may not expand the text beyond ``MAX_EXPANDED_LENGTH``
    symbols, and groups may not nest deeper than ``MAX_GROUP_DEPTH``.
    """
    elements, pos = _parse_items(text, 0, alphabet, depth=0)
    if pos < len(text):  # stopped at a final '^w'
        period = elements.pop()
        pre = [s for e in elements for s in e]
        return EPSeq(alphabet, tuple(pre), tuple(period))
    return Word(alphabet, tuple(s for e in elements for s in e))


def _parse_items(text: str, pos: int, alphabet: Alphabet,
                 depth: int) -> tuple[list[list[int]], int]:
    """Items from ``pos`` up to the end of the text, the ')' closing a
    group (``depth`` > 0 inside one), or a final '^w'; returns them and
    the position it stopped at."""
    elements: list[list[int]] = []
    length = 0
    n = len(text)
    while pos < n:
        c = text[pos]
        if c == "^":
            if not elements:
                raise NotationError("'^' without a preceding item", pos)
            if pos + 1 < n and text[pos + 1] == "w":
                if depth or pos + 2 != n:
                    raise NotationError("'^w' only allowed in final position", pos)
                break
            count, end = _parse_count(text, pos + 1)
            length += len(elements[-1]) * (count - 1)
            if length > MAX_EXPANDED_LENGTH:
                raise NotationError(
                    f"expands to more than {MAX_EXPANDED_LENGTH} symbols", pos + 1)
            elements[-1] = elements[-1] * count
            pos = end
        elif c == "(":
            if depth == MAX_GROUP_DEPTH:
                raise NotationError(
                    f"groups nested deeper than {MAX_GROUP_DEPTH}", pos)
            group, end = _parse_items(text, pos + 1, alphabet, depth + 1)
            if end >= n:
                raise NotationError("unmatched '('", pos)
            if not group:
                raise NotationError("empty group", pos)
            elements.append([s for e in group for s in e])
            length += len(elements[-1])
            if length > MAX_EXPANDED_LENGTH:
                raise NotationError(
                    f"expands to more than {MAX_EXPANDED_LENGTH} symbols", pos)
            pos = end + 1
        elif c == ")":
            if depth:
                break
            raise NotationError("unmatched ')'", pos)
        else:
            sym = alphabet.index_of_char(c)
            if sym is None:
                raise NotationError(f"unknown digit character {c!r}", pos)
            elements.append([sym])
            length += 1
            pos += 1
    return elements, pos


def _parse_count(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise NotationError("expected repeat count or 'w' after '^'", start)
    count = int(text[start:pos])
    if count < 1:
        raise NotationError("repeat count must be positive", start)
    return count, pos


def format_seq(x: EPSeq | Word) -> str:
    """Render a sequence in the notation accepted by :func:`parse_seq`."""
    if isinstance(x, Word):
        return x.text()
    chars = x.alphabet.chars
    pre = "".join(chars[s] for s in x.preperiod)
    per = "".join(chars[s] for s in x.period)
    if len(per) > 1:
        per = f"({per})"
    return f"{pre}{per}^w"


# --- evaluation -----------------------------------------------------------

def _require_base(q: float) -> None:
    if not 1 < q < math.inf:
        raise ValueError(f"base must be finite and exceed 1, got {q}")


def _horner(symbols, digits, q: float) -> float:
    """sum digits[symbols[j]] * q**-(j+1) evaluated right to left.

    Reading each digit through the table here, instead of building a
    list of digits first, is what makes a pi_eval call cheap."""
    s = 0.0
    for i in reversed(symbols):
        s = (s + digits[i]) / q
    return s


def _pi_closed(pre, per, digits, q: float) -> float:
    """pi_q of pre per^inf with symbols read through ``digits``: the closed
    form of pi_eval, which the block test also runs on plain strings."""
    su = _horner(pre, digits, q)
    sv = _horner(per, digits, q)
    return su + q ** (-len(pre)) * sv / (1.0 - q ** (-len(per)))


def pi_eval(seq: EPSeq, q: float) -> float:
    """Value of the infinite series sum c_i / q**i (closed form)."""
    _require_base(q)
    return _pi_closed(seq.preperiod, seq.period, seq.alphabet.digits, q)


def pi_word(word: Word, q: float) -> float:
    """Value contributed by a finite word read from position 1."""
    _require_base(q)
    return _horner(word.symbols, word.alphabet.digits, q)


def pi_complement(seq: EPSeq, m: float, q: float) -> float:
    """pi_q of the digitwise reflection m - c_i of a zero-free sequence.

    Defined for sequences over {1, m}; computed as m/(q-1) - pi_q(c),
    which avoids leaving the alphabet.
    """
    _require_base(q)
    require_zero_free(seq.alphabet, seq.preperiod + seq.period, m)
    return m / (q - 1.0) - pi_eval(seq, q)


def require_zero_free(alphabet: Alphabet, symbols, m: float) -> None:
    """Raise ValueError unless m is the top digit of ``alphabet`` (to
    1e-12) and ``symbols`` use only the digits 1 and m.

    The one zero-free check of the package: pi_complement, the
    complement residual of the root solver, the zero-free verdict, the
    forbidden-block test and the family certificate all call it."""
    digits = alphabet.digits
    if abs(digits[-1] - m) > 1e-12:
        raise ValueError(f"m={m} does not match the alphabet's top digit {digits[-1]}")
    for s in symbols:
        if digits[s] != 1.0 and digits[s] != m:
            raise ValueError("needs a zero-free sequence over {1, m}, "
                             f"got digit {digits[s]}")
