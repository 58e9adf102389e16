"""Independent checks of univoque's outputs.

Nothing here imports univoque.  Every check recomputes the expected
answer by its own route (exact ``Fraction`` arithmetic, a de Bruijn
presentation of the avoiding language, Collatz-Wielandt bounds) and
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

EPS = 1e-9          # the comparison margin univoque documents (EPS_CMP)
UNSURE = 1e-12      # exact values this close to a float decision are not judged

# Window endpoints as printed in the paper.
ONE_PLUS_ALPHA = 2.32472
M_D = 2.80194
M_1 = 2.9129
M_2 = 2.992
M_3 = 3.10214
M_4 = 3.30278
BIG_M_D = 4.54646
ENDPOINT_SKIP = 1e-4
RADIUS_TOL = 1e-10      # width of the Perron-root enclosure
RADIUS_STEPS = 20000    # power-iteration steps before giving up on that width

# Defining polynomials of the four r-branches, as integer polynomials in
# (m, q) whose root in q is r(m).  Kept apart from univoque on purpose.
R_WINDOWS = (
    ("Comp0_full", 2.0, ONE_PLUS_ALPHA,
     lambda m, q: (m - 1) * (q - 1) ** 2 - q),
    ("Comp10_left", M_D, M_1,
     lambda m, q: q * q - (m - 1) * q - 1),
    ("Comp10_mid", M_2, M_3,
     lambda m, q: (m - 1) * (q**6 - 2 * q**5 + q**4 - q**3 - q**2 + 2 * q - 1)
     - (q**5 + q**3)),
    ("Comp10_right", M_4, BIG_M_D,
     lambda m, q: (m - 1) * (q**3 - q**2 - 2 * q + 1) - (q**2 + q)),
)
P_WINDOWS = ((2.0, ONE_PLUS_ALPHA), (M_D, BIG_M_D))

SEVEN_BLOCKS = ("111", "1mmm", "11m11", "11m1m1",
                "1mm1mm", "11m1mm1", "1mm1m1m")


def _near_endpoint(m: float, windows) -> bool:
    return any(abs(m - e) <= ENDPOINT_SKIP for w in windows for e in w)


def r_window(m: float):
    """(label, polynomial) of the window holding m, or None."""
    for label, lo, hi, poly in R_WINDOWS:
        if lo <= m <= hi:
            return label, poly
    return None


def window_root(m: float) -> float | None:
    """r(m) by float bisection of the branch polynomial on (2, R(m))."""
    found = r_window(m)
    if found is None:
        return None
    poly = found[1]
    lo, hi = 2.0, 1.0 + m / (m - 1.0)
    flo = poly(m, lo)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if (poly(m, mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# --- curve sweep ------------------------------------------------------------

def _exact_sign(poly, m: float, q: float) -> int:
    v = poly(Fraction(m), Fraction(q))
    return (v > 0) - (v < 0)


def check_curve(m_lo: float, m_hi: float, step: float, rows, csv_lines) -> list[str]:
    """Rows of a curve sweep against closed forms and exact root brackets."""
    bad: list[str] = []
    expected = math.floor((Fraction(m_hi) - Fraction(m_lo)) / Fraction(step)) + 1
    if len(rows) != expected or len(csv_lines) != expected:
        return [f"row count {len(rows)}/{len(csv_lines)}, expected {expected}"]
    for k, (row, line) in enumerate(zip(rows, csv_lines)):
        m = row.m
        where = f"row {k} (m={m!r})"
        if abs(m - (m_lo + k * step)) > 1e-12:
            bad.append(f"{where}: grid value off")
        if abs(row.P - (1.0 + math.sqrt(1.0 + 1.0 / (m - 1.0)))) > 1e-12:
            bad.append(f"{where}: P={row.P!r} off its closed form")
        if abs(row.R - (2.0 * m - 1.0) / (m - 1.0)) > 1e-12:
            bad.append(f"{where}: R={row.R!r} off its closed form")
        if not _near_endpoint(m, [w[1:3] for w in R_WINDOWS]):
            window = r_window(m)
            if (row.r is None) != (window is None):
                bad.append(f"{where}: r={row.r!r} but window {window and window[0]}")
            elif window is not None:
                label, poly = window
                if row.branch != label:
                    bad.append(f"{where}: branch {row.branch!r}, expected {label}")
                lo_s = _exact_sign(poly, m, row.r - 1e-9)
                hi_s = _exact_sign(poly, m, row.r + 1e-9)
                if lo_s * hi_s != -1:
                    bad.append(f"{where}: no sign change of the branch "
                               f"polynomial across r={row.r!r}")
        if not _near_endpoint(m, P_WINDOWS):
            in_p = any(lo <= m <= hi for lo, hi in P_WINDOWS)
            if (row.p is None) == in_p:
                bad.append(f"{where}: p={row.p!r} against its windows")
        if row.r is not None:
            if not row.P - 1e-9 <= row.r < row.R:
                bad.append(f"{where}: r={row.r!r} outside [P, R)")
            if row.p is None or row.p > row.r + 1e-9:
                bad.append(f"{where}: p={row.p!r} exceeds r={row.r!r}")
        cells = line.split(",")
        want = [row.m, row.P, row.R, row.p, row.r]
        if len(cells) != 6 or cells[5] != (row.branch or "NA") or any(
                (c != "NA") if v is None else (c == "NA" or float(c) != v)
                for c, v in zip(cells, want)):
            bad.append(f"{where}: CSV line {line!r} does not round-trip")
    return bad


# --- forbidden blocks ---------------------------------------------------------

class TailBounds:
    """Exact tail bounds of zero-free words at one (m, q).

    For a block 1w the smallest completion is w 1^inf and the largest
    w m^inf; the block is forbidden when the smallest reaches m - 1 or
    the largest stays within m/(q-1) - 1 (both with the margin EPS).
    """

    def __init__(self, m: float, q: float):
        self.m, self.q = Fraction(m), Fraction(q)
        self.inv_q1 = 1 / (self.q - 1)
        self.low_limit = self.m - 1 - Fraction(EPS)
        self.high_limit = self.m * self.inv_q1 - 1 + Fraction(EPS)

    def verdict(self, head: Fraction, weight: Fraction) -> bool | None:
        """Forbidden?  ``head`` = sum w_i q^-i, ``weight`` = q^-|w|.

        None when an exact bound sits within UNSURE of its limit, where
        a float computation may round either way.
        """
        lowest = head + weight * self.inv_q1
        highest = head + weight * self.m * self.inv_q1
        d_low = lowest - self.low_limit
        d_high = self.high_limit - highest
        if abs(d_low) < UNSURE or abs(d_high) < UNSURE:
            return None
        return d_low >= 0 or d_high >= 0

    def word(self, w: str) -> bool | None:
        head, weight = Fraction(0), Fraction(1)
        for ch in w:
            weight /= self.q
            head += weight * (1 if ch == "1" else self.m)
        return self.verdict(head, weight)


def check_scan(m: float, q: float, depth: int, blocks: list[str]) -> list[str]:
    """Kept blocks are forbidden, minimal, ordered, and complete."""
    bad: list[str] = []
    if blocks != sorted(blocks, key=lambda b: (len(b), b)):
        bad.append("blocks not ordered by length, then 1 < m")
    for b in blocks:
        if not (2 <= len(b) <= depth and b[0] == "1" and set(b) <= {"1", "m"}):
            bad.append(f"malformed block {b!r}")
            return bad
    for i, b in enumerate(blocks):
        for j, c in enumerate(blocks):
            if i != j and c in b:
                bad.append(f"block {b} contains block {c}")
    tb = TailBounds(m, q)
    for b in blocks:
        if tb.word(b[1:]) is False:
            bad.append(f"kept block {b} is not forbidden")
    # Every word 1w (|1w| <= depth) that avoids all kept blocks must not
    # be forbidden, or the scan missed it.  Such words are closed under
    # prefixes, so a pruned depth-first walk visits all of them.
    stack = [("1", Fraction(0), Fraction(1))]
    while stack:
        word, head, weight = stack.pop()
        if len(word) >= 2 and tb.verdict(head, weight):
            bad.append(f"word {word} avoids every kept block but is forbidden")
            continue
        if len(word) == depth:
            continue
        weight /= tb.q
        for ch, d in (("m", tb.m), ("1", 1)):
            w2 = word + ch
            if not any(w2.endswith(b) for b in blocks):
                stack.append((w2, head + weight * d, weight))
    return bad


# --- avoidance automata --------------------------------------------------------

class AvoidingLanguage:
    """The sequences over {1, m} avoiding a block set, presented by the
    graph of their recent history: a state is the last (L-1) symbols
    read (or all of them, near the start), L the longest block.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        self.keep = max(map(len, self.blocks), default=1) - 1
        self.index = {"": 0}
        succ: list[list[int]] = []
        order = [""]
        while len(succ) < len(order):
            row = []
            for ch in "1m":
                w = order[len(succ)] + ch
                if any(w.endswith(b) for b in self.blocks):
                    continue
                t = self._state(w)
                if t not in self.index:
                    self.index[t] = len(order)
                    order.append(t)
                row.append(self.index[t])
            succ.append(row)
        live = set(range(len(order)))
        while True:
            dead = {s for s in live if not any(t in live for t in succ[s])}
            if not dead:
                break
            live -= dead
        self.live = live
        self.succ = [[t for t in row if t in live] if s in live else []
                     for s, row in enumerate(succ)]
        self.comps = self._components()
        self.comp_edges = [sum(1 for v in c for t in self.succ[v] if t in set(c))
                           for c in self.comps]

    def _state(self, word: str) -> str:
        return word[len(word) - self.keep:] if len(word) > self.keep else word

    def counts(self, n_max: int) -> list[int]:
        """Length-n prefixes of infinite avoiding sequences, n = 0..n_max."""
        vec = {0: 1} if 0 in self.live else {}
        out = [sum(vec.values())]
        for _ in range(n_max):
            nxt: dict[int, int] = {}
            for s, c in vec.items():
                for t in self.succ[s]:
                    nxt[t] = nxt.get(t, 0) + c
            vec = nxt
            out.append(sum(vec.values()))
        return out

    def brute_count(self, n: int) -> int:
        """Words of length n avoiding the blocks that end in a live state."""
        total = 0
        for letters in product("1m", repeat=n):
            w = "".join(letters)
            if not any(b in w for b in self.blocks) and \
                    self.index[self._state(w)] in self.live:
                total += 1
        return total

    def _components(self) -> list[list[int]]:
        """Strongly connected components of the live graph (Kosaraju)."""
        nodes = sorted(self.live)
        seen: set[int] = set()
        finish: list[int] = []
        for root in nodes:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(self.succ[root]))]
            while stack:
                v, it = stack[-1]
                for t in it:
                    if t not in seen:
                        seen.add(t)
                        stack.append((t, iter(self.succ[t])))
                        break
                else:
                    stack.pop()
                    finish.append(v)
        pred: dict[int, list[int]] = {v: [] for v in nodes}
        for v in nodes:
            for t in self.succ[v]:
                pred[t].append(v)
        comps = []
        assigned: set[int] = set()
        for root in reversed(finish):
            if root in assigned:
                continue
            comp = [root]
            assigned.add(root)
            i = 0
            while i < len(comp):
                for u in pred[comp[i]]:
                    if u not in assigned:
                        assigned.add(u)
                        comp.append(u)
                i += 1
            comps.append(comp)
        return comps

    def spectral_radius(self):
        """Enclosure (lo, hi) of the largest spectral radius over components.

        Iterates x <- (A + I) x on each branching component and keeps
        the Collatz-Wielandt bounds min/max of (A x)_i / x_i, which
        bracket the Perron root of an irreducible matrix for any
        positive x.  Pure cycles have radius exactly 1.
        """
        best = (0.0, 0.0)
        for comp, edges in zip(self.comps, self.comp_edges):
            members = set(comp)
            inner = {v: [t for t in self.succ[v] if t in members] for v in comp}
            if edges == 0:
                continue
            if edges == len(comp):
                lo = hi = 1.0
            else:
                x = {v: 1.0 for v in comp}
                lo, hi = 0.0, math.inf
                for _ in range(RADIUS_STEPS):
                    ax = {v: sum(x[t] for t in inner[v]) for v in comp}
                    ratios = [ax[v] / x[v] for v in comp]
                    lo, hi = max(lo, min(ratios)), min(hi, max(ratios))
                    if hi - lo <= RADIUS_TOL:
                        break
                    x = {v: ax[v] + x[v] for v in comp}
                    top = max(x.values())
                    x = {v: x[v] / top for v in comp}
            best = (max(best[0], lo), max(best[1], hi))
        return best

    def kind(self) -> str:
        """Empty, FinitePaths, CountablyInfinite or Uncountable."""
        if 0 not in self.live:
            return "Empty"
        comps = self.comps
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        if any(e > len(c) for c, e in zip(comps, self.comp_edges)):
            return "Uncountable"
        cyclic = {i for i, (c, e) in enumerate(zip(comps, self.comp_edges)) if e == len(c)}
        for i in cyclic:
            frontier = list(comps[i])
            seen = set(frontier)
            while frontier:
                v = frontier.pop()
                for t in self.succ[v]:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            if any(comp_of[v] in cyclic and comp_of[v] != i for v in seen):
                return "CountablyInfinite"
        return "FinitePaths"

    def infinite_paths(self) -> int:
        """Number of infinite paths from the start, when there is no
        branching and no chain of two cycles (so each path ends on a cycle)."""
        if 0 not in self.live:
            return 0
        memo = {v: 1 for c, e in zip(self.comps, self.comp_edges) if e == len(c) for v in c}
        stack = [0]
        while stack:
            v = stack[-1]
            todo = [t for t in self.succ[v] if t not in memo]
            if todo:
                stack.extend(todo)
            else:
                memo[v] = sum(memo[t] for t in self.succ[v])
                stack.pop()
        return memo[0]


BRUTE_N = 8
COUNT_N = 64


def check_automaton(blocks, states: int, kind: str, path_count, rate: float,
                    count: int) -> list[str]:
    """Classification, growth rate and word count of one block set."""
    bad: list[str] = []
    lang = AvoidingLanguage(blocks)
    counts = lang.counts(COUNT_N)
    if count != counts[COUNT_N]:
        bad.append(f"count_words({COUNT_N}) = {count}, expected {counts[COUNT_N]}")
    for n in range(BRUTE_N + 1):
        brute = lang.brute_count(n)
        if brute != counts[n]:
            bad.append(f"brute-force count {brute} at n={n}, graph gives {counts[n]}")
            break
    expected_kind = lang.kind()
    if kind != expected_kind:
        bad.append(f"kind {kind}, expected {expected_kind}")
    lo, hi = lang.spectral_radius()
    if not lo - 1e-6 <= rate <= hi + 1e-6:
        bad.append(f"growth rate {rate!r} outside [{lo!r}, {hi!r}]")
    if kind == "Empty" and (states != 0 or count != 0 or hi != 0.0):
        bad.append("empty automaton with states, words or growth")
    if kind == "Uncountable" and not lo > 1.0:
        bad.append(f"uncountable but radius {lo!r} <= 1")
    if kind in ("FinitePaths", "CountablyInfinite") and not lo == hi == 1.0:
        bad.append(f"{kind} but radius in [{lo!r}, {hi!r}]")
    if kind == "FinitePaths" == expected_kind:
        if path_count != lang.infinite_paths():
            bad.append(f"path_count {path_count}, expected {lang.infinite_paths()}")
        if counts[COUNT_N] != counts[COUNT_N - 1]:
            bad.append("finitely many paths but word counts still grow")
    elif kind != "Empty" and path_count is not None:
        bad.append(f"{kind} with a path count {path_count}")
    if kind == "CountablyInfinite" and not counts[COUNT_N] > counts[COUNT_N // 2]:
        bad.append("countably many paths but word counts do not grow")
    return bad


# --- verdicts ---------------------------------------------------------------------

def exact_tails(digits, pre, per, q: Fraction) -> list[Fraction]:
    """Exact tail values V(n) = sum_i c_{n+i} q^-i for n = 1..|pre|+|per|."""
    p = len(per)
    head = Fraction(0)
    for s in per:
        head = head * q + digits[s]
    cyc = [head / (q ** p - 1)]          # value of the period read from 0
    for k in range(p - 1):
        cyc.append(q * cyc[-1] - digits[per[k]])
    vals = [cyc[0]]                      # value read from index i, i = len(pre)..0
    for s in reversed(pre):
        vals.append((digits[s] + vals[-1]) / q)
    from_index = vals[::-1]              # from_index[i] for i = 0..len(pre)
    return [from_index[n] if n <= len(pre) else cyc[(n - len(pre)) % p]
            for n in range(1, len(pre) + p + 1)]


def expected_verdict(digits, pre, per, q: float, zero_free: bool):
    """(kind, worst exact slack) implied by the exact slacks, or
    (None, slack) when the decision sits within UNSURE of a margin."""
    qf = Fraction(q)
    d = [Fraction(x) for x in digits]
    eps = Fraction(EPS)
    tails = exact_tails(d, pre, per, qf)
    hi_tail = d[-1] / (qf - 1)
    lo_tail = d[0] / (qf - 1)
    seq = list(pre) + list(per)
    slacks = []
    for n, tail in enumerate(tails, start=1):
        j = seq[n - 1]
        if zero_free:
            if d[j] != 1:
                continue
            m = d[-1]
            slacks.append((m - 1) - tail)
            slacks.append(1 - (m / (qf - 1) - tail))
        else:
            if j < len(d) - 1:
                slacks.append((d[j + 1] - d[j]) - (tail - lo_tail))
            if j > 0:
                slacks.append((d[j] - d[j - 1]) - (hi_tail - tail))
    if zero_free:
        threshold = 1 + d[-1] / (d[-1] - 1)
    else:
        threshold = 1 + (d[-1] - d[0]) / max(b - a for a, b in zip(d, d[1:]))
    if not slacks:
        return "ProvenUnique", None
    worst = min(slacks)
    if abs(worst - eps) < UNSURE or abs(qf - threshold - eps) < UNSURE:
        return None, worst
    if worst > eps:
        return "ProvenUnique", worst
    if qf <= threshold + eps:
        return "ProvenNotUnique", worst
    return "Inconclusive", worst


def check_verdict(digits, pre, per, q: float, zero_free: bool,
                  kind: str, slack, boundary: bool) -> list[str]:
    want, worst = expected_verdict(digits, pre, per, q, zero_free)
    if boundary or want is None:
        return []
    bad = []
    if kind != want:
        bad.append(f"verdict {kind}, exact slacks give {want}")
    if worst is None:
        if slack is not None:
            bad.append(f"witness slack {slack!r} where no condition applies")
    elif slack is None or abs(slack - float(worst)) > 1e-9:
        bad.append(f"witness slack {slack!r}, exact worst {float(worst)!r}")
    return bad
