"""Safety automata for sequences over {1, m} avoiding forbidden blocks.

A finite set of forbidden blocks defines a subshift: the set of
infinite sequences over the two symbols '1' and 'm' containing none of
the blocks as a factor.  The automaton built here accepts exactly the
prefixes of those sequences: an Aho-Corasick matcher with the matching
states deleted.

Every :class:`Automaton` is stored in one normal form: only the states
on an infinite path from the start are kept, numbered in breadth-first
order from the start (symbol '1' explored before 'm').  That makes
transition tables and DOT exports reproducible byte for byte.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, repeat
from operator import add, and_, eq, itemgetter, mul, rshift, sub
from typing import Iterable, Sequence

from ._rounding import newton_descent, round_root
from .sequences import ZERO_FREE_SYMBOLS, _check_blocks, _Record, _require_int, _set_field

# Largest branching component whose Perron root growth_rate computes.
# The characteristic polynomial costs O(n^3) big-integer operations.
MAX_PERRON_STATES = 128


class Automaton(_Record):
    """Deterministic partial automaton over the symbols '1' and 'm'.

    ``transitions[s][i]`` is the target of state ``s`` on symbol
    ``ZERO_FREE_SYMBOLS[i]``, or None where the symbol is not allowed.
    ``start`` is None when the language is empty.  ``forbidden`` records
    the blocks the automaton was built from (metadata only).

    The table given is validated (each state number an int other than
    a bool, and in range) and then stored in normal form (see
    :func:`_normal_form`), with its strongly connected components,
    sinks first, in ``components``; building it again from its stored
    table gives an equal automaton, and pickling and copying do that.
    """

    __slots__ = ("transitions", "start", "forbidden", "components")

    def __init__(self, transitions: Sequence[Sequence[int | None]], start: int | None,
                 forbidden: tuple[str, ...] = ()):
        n = len(transitions)
        if start is not None:
            _check_state("start state", start, n)
        for s, row in enumerate(transitions):
            if len(row) != len(ZERO_FREE_SYMBOLS):
                raise ValueError(f"state {s}: row width != symbol count")
            for t in row:
                if t is not None and (type(t) is not int or not 0 <= t < n):
                    _check_state(f"state {s}: target", t, n)
        self._store(transitions, start, forbidden)

    def _store(self, transitions, start, forbidden) -> None:  # a valid table's normal form
        rows, start, components = _normal_form(transitions, start)
        _set_field(self, "transitions", rows)
        _set_field(self, "start", start)
        _set_field(self, "forbidden", forbidden)
        _set_field(self, "components", components)

    def __reduce__(self):
        return Automaton, (self.transitions, self.start, self.forbidden)

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def edges(self) -> Iterable[tuple[int, int, int]]:
        """Yield (state, symbol_index, target) for every present edge."""
        for s, row in enumerate(self.transitions):
            for i, t in enumerate(row):
                if t is not None:
                    yield s, i, t


def _check_state(name: str, t, n: int) -> None:
    """TypeError unless t is an int other than a bool, ValueError unless 0 <= t < n."""
    _require_int(name, t)
    if not 0 <= t < n:
        raise ValueError(f"{name} {t} out of range")


def build_safety_automaton(blocks: Iterable[str]) -> Automaton:
    """Build the pruned factor automaton avoiding the given blocks,
    each a nonempty string over '1' and 'm'."""
    texts = sorted(set(_check_blocks(blocks)))
    texts.sort(key=len)  # stable: by length, then lexicographically
    index = {c: i for i, c in enumerate(ZERO_FREE_SYMBOLS)}.__getitem__

    # the trie: row[i] is the child on ZERO_FREE_SYMBOLS[i], or None
    trie: list[list[int | None]] = [[None, None]]
    terminal = [False]
    for text in texts:
        cur = 0
        for i in map(index, text):
            nxt = trie[cur][i]
            if nxt is None:
                nxt = trie[cur][i] = len(trie)
                trie.append([None, None])
                terminal.append(False)
            cur = nxt
        terminal[cur] = True

    # one breadth-first pass turns each trie row into its transition
    # row in place: a missing child becomes the fail link's transition.
    # A node's fail link and row only read rows of shallower nodes,
    # which the pass has already finished.  A node matches when a block
    # ends at it or at its fail link.  The pass numbers the other nodes
    # in its order and skips what lies below a matching one, where every
    # word holds a block; edges into matching nodes are cut.
    fail = [0] * len(trie)
    alive: list[int | None] = [None] * len(trie)
    order, kept = [0], []
    for u in order:  # grows while it is read
        if terminal[u]:
            continue
        alive[u] = len(kept)
        kept.append(u)
        back = trie[fail[u]] if u else (0, 0)
        row = trie[u]
        for i in (0, 1):
            v = row[i]
            if v is None:
                row[i] = back[i]
            else:
                fail[v] = back[i]
                terminal[v] = terminal[v] or terminal[back[i]]
                order.append(v)
    rows = tuple([(alive[x], alive[y]) for x, y in map(trie.__getitem__, kept)])
    automaton = Automaton.__new__(Automaton)
    automaton._store(rows, 0, tuple(texts))  # valid by construction
    return automaton


def _normal_form(transitions: Sequence[Sequence[int | None]], start: int | None):
    """The table restricted to the states on an infinite path from the
    start, numbered breadth-first ('1' before 'm'), its start, and its
    components in Tarjan's order; ``((), None, ())`` if there is none.

    Trimming comes first: a state is dead once none of its edges leads
    to a live state, which a backward pass over the out-degrees settles
    when some state has no edge.  The live states reachable from the
    start are then numbered, and Tarjan's search runs once, on the rows.
    """
    degree = [2 - row.count(None) for row in transitions]  # rows are pairs
    dead = [s for s, k in enumerate(degree) if not k]
    if dead:
        preds: list[list[int]] = [[] for _ in transitions]
        for s, row in enumerate(transitions):
            for t in row:
                if t is not None:
                    preds[t].append(s)
        for t in dead:  # grows while it is read
            for s in preds[t]:
                degree[s] -= 1
                if not degree[s]:
                    dead.append(s)
    if start is None or not degree[start]:
        return (), None, ()
    order = [start]
    relabel = {start: 0}
    for s in order:  # grows while it is read
        for t in transitions[s]:
            if t is not None and degree[t] and t not in relabel:
                relabel[t] = len(order)
                order.append(t)
    if order == list(range(len(transitions))):  # all live, in this order
        rows = tuple(map(tuple, transitions))
    else:
        get = relabel.get
        rows = tuple([(get(x), get(y)) for x, y in map(transitions.__getitem__, order)])
    return rows, 0, tuple(strongly_connected_components(rows))


def strongly_connected_components(
        transitions: Sequence[Sequence[int | None]]) -> list[tuple[int, ...]]:
    """Tarjan's algorithm with an explicit stack.

    Components are listed sinks first: an edge leaving a component
    leads to one listed before it.  A state leaving the stack with its
    component takes the index n, so no edge into it lowers a low-link."""
    n = len(transitions)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        call = [(root, iter(transitions[root]))]  # a state and its unread edges
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while call:
            v, edges = call[-1]
            for w in edges:
                if w is None:
                    continue
                if index[w] == -1:
                    call.append((w, iter(transitions[w])))
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v is read
                call.pop()
                if call and low[v] < low[call[-1][0]]:
                    low[call[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
    return comps


class GrowthKind(str, Enum):
    EMPTY = "Empty"
    FINITE_PATHS = "FinitePaths"
    COUNTABLY_INFINITE = "CountablyInfinite"
    UNCOUNTABLE = "Uncountable"


class GrowthClass(_Record):
    """Cardinality class of the infinite-path language.

    ``path_count`` is the exact number of infinite paths when finite.
    ``evidence`` lists the states (in the automaton's breadth-first
    numbering) of the witnessing component: a branching component for
    Uncountable, two linked cycles for CountablyInfinite."""

    __slots__ = ("kind", "path_count", "evidence")

    def __init__(self, kind: GrowthKind, path_count: int | None = None,
                 evidence: tuple[int, ...] = ()):
        _set_field(self, "kind", kind)
        _set_field(self, "path_count", path_count)
        _set_field(self, "evidence", evidence)


def classify_growth(a: Automaton) -> GrowthClass:
    """Decide whether the avoiding sequences form an empty, finite,
    countably infinite, or uncountable set.

    One pass over ``a.components``, which the normal form stores in
    Tarjan's order, sinks first, so each edge out of a component leads
    to one already seen.  A branching component means Uncountable, and a
    cycle that reaches another cycle CountablyInfinite, with the first
    such cycle and the lowest-numbered cycle it reaches as evidence.
    Otherwise the infinite paths are counted: 1 from a cycle, and from
    any other state the sum over its out-edges.
    """
    if a.start is None:
        return GrowthClass(GrowthKind.EMPTY, 0)
    comps = a.components
    comp_of = [0] * len(a.transitions)  # the index of each state's component
    for ci, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = ci
    no_cycle = len(comps)
    # lowest[ci]: the lowest-numbered cycle reachable from component ci,
    # ci included, or ``no_cycle``; paths[ci]: infinite paths from ci
    lowest: list[int] = []
    paths: list[int] = []
    evidence = None
    for ci, comp in enumerate(comps):
        internal, low, count = 0, no_cycle, 0
        for s in comp:
            for t in a.transitions[s]:
                if t is None:
                    continue
                d = comp_of[t]
                if d == ci:
                    internal += 1
                else:
                    low = min(low, lowest[d])
                    count += paths[d]
        if internal > len(comp):
            return GrowthClass(GrowthKind.UNCOUNTABLE, None, comp)
        if internal == len(comp):
            if low < no_cycle and evidence is None:
                evidence = tuple(sorted(comp + comps[low]))
            low, count = min(low, ci), 1
        lowest.append(low)
        paths.append(count)
    if evidence is not None:
        return GrowthClass(GrowthKind.COUNTABLY_INFINITE, None, evidence)
    return GrowthClass(GrowthKind.FINITE_PATHS, paths[comp_of[a.start]])


def count_words(a: Automaton, n: int) -> int:
    """Number of length-n prefixes of infinite avoiding sequences.

    Exact (arbitrary precision); n is capped at 64.  f[s] counts the
    length-k paths from s.  A missing edge leads to a sentinel state
    whose row loops on itself, so its count stays 0, and each step
    reads the four two-symbol targets of every state: n // 2 steps of
    two symbols, then one of a single symbol when n is odd.  A step's
    increment A^2 f - f is A^2 times the step before's, so once two in
    a row are equal, d say, A^2 d = d: every later step adds d again
    and f jumps by d times the steps left (the first stops at d = 0).
    Bounded counts, and often linear ones, get there within about as
    many steps as there are states; the start state is tested first.
    """
    _require_int("n", n)
    if not 0 <= n <= 64:
        raise ValueError(f"n must be between 0 and 64, got {n}")
    if a.start is None:
        return 0
    z, s = len(a.transitions), a.start
    rows = [(z if x is None else x, z if y is None else y) for x, y in a.transitions]
    rows.append((z, z))
    pairs = [rows[x] + rows[y] for x, y in rows]
    f = prev = [1] * z + [0]
    for left in range(n // 2 - 1, -1, -1):  # steps left after this one
        g = [f[i] + f[j] + f[k] + f[l] for i, j, k, l in pairs]
        if g[s] - f[s] == f[s] - prev[s] and all(
                map(eq, map(sub, g, f), map(sub, f, prev))):  # A^2 d = d
            f = [x + left * (x - y) for x, y in zip(g, f)]
            break
        prev, f = f, g
    return f[rows[s][0]] + f[rows[s][1]] if n % 2 else f[s]


def growth_rate(a: Automaton) -> float:
    """Exponential growth rate of the factor counts: the largest
    spectral radius over the stored components ``a.components``,
    correctly rounded to a float.

    A component without internal edges contributes nothing, a single
    cycle exactly 1.0, one state with k loops k, and a branching
    component the Perron root of its adjacency matrix
    (:func:`_perron_root`).  A branching component of more than
    ``MAX_PERRON_STATES`` states raises ValueError.
    """
    if a.start is None:
        return 0.0
    best = 0.0
    for comp in a.components:
        if len(comp) == 1:
            best = max(best, float(a.transitions[comp[0]].count(comp[0])))
            continue
        local = {s: i for i, s in enumerate(comp)}
        succ = [[local[t] for t in a.transitions[s] if t in local] for s in comp]
        if sum(map(len, succ)) == len(comp):
            best = max(best, 1.0)
            continue
        if len(comp) > MAX_PERRON_STATES:
            raise ValueError(
                f"a branching component of {len(comp)} states exceeds "
                f"MAX_PERRON_STATES = {MAX_PERRON_STATES}; its growth rate "
                "is not computed")
        best = max(best, _perron_root(succ))
    return best


def _charpoly(succ: list[list[int]]) -> list[int]:
    """Coefficients, highest power first, of det(xI - A) for the matrix
    A whose row i counts the successors ``succ[i]``.

    Le Verrier's method: the power sums p_k = tr(A^k) for k = 1..n,
    then Newton's identities k c_(n-k) = -(p_k + sum_(i<k) c_(n-i)
    p_(k-i)), where the division by k is exact.  Row i of A^k is the
    sum of the rows of A^(k-1) at the successors of i.  Each row is
    packed into one integer, a field of ``width`` bits per column; the
    entries count walks, so they lie in [0, d^n] for largest row sum
    d, and the packed sums never carry from one field into the next.
    A row has one or two successors, so a pass is two gathers of packed
    rows added pairwise, with a zero row after the n rows for a missing
    second successor.
    """
    n = len(succ)
    width = (max(map(len, succ)) ** n).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(0, width * n, width)
    first = itemgetter(*[r[0] for r in succ], n)
    second = itemgetter(*[r[1] if len(r) == 2 else n for r in succ], n)
    rows = [1 << shift for shift in shifts] + [0]
    sums = []
    for _ in range(n):
        rows = list(map(add, first(rows), second(rows)))
        sums.append(sum(map(and_, map(rshift, rows, shifts), repeat(mask))))
    sums.reverse()  # p_n, ..., p_1, so sums[n - k:] is p_k, ..., p_1
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(-sum(map(mul, coeffs, sums[n - k:])) // k)
    return coeffs


def _exceeds_root(coeffs: list[int], num: int, den: int) -> bool:
    """True when num/den exceeds every real root of the polynomial
    ``coeffs`` (highest power first, positive leading coefficient) whose
    roots all have modulus at most its largest real root.

    For such a polynomial p, x > rho exactly when every Taylor
    coefficient of p at x is positive: for x > rho each derivative is a
    product of factors x - z with Re z < x (Gauss-Lucas), and for
    x <= rho the root rho - x of p(x + t) would be >= 0.  Here
    p(x + t) is computed as den^d p((num + s)/den) with s = den t, a
    Taylor shift of integers.
    """
    d = len(coeffs) - 1
    # ascending coefficients of den^d p(y/den), then shifted to y = num + s
    b = list(map(mul, coeffs, accumulate(repeat(den, d), mul, initial=1)))[::-1]
    for i in range(d + 1):
        acc = b[d]
        for j in range(d - 1, i - 1, -1):
            acc = b[j] = b[j] + num * acc
        if acc <= 0:  # acc is b[i]
            return False
    return True


def _perron_root(succ: list[list[int]]) -> float:
    """Correctly rounded spectral radius rho of the irreducible matrix
    whose row i counts the successors ``succ[i]``; rho is the largest
    real root of its characteristic polynomial p (Perron-Frobenius).

    Newton's method in floats starts at the largest row sum, which is
    at least rho.  Every root of p has modulus at most rho, so by
    Gauss-Lucas p, p' and p'' are positive to the right of rho and the
    iterates descend to it.  ``round_root`` settles the last bit.
    """
    coeffs = _charpoly(succ)
    while coeffs[-1] == 0:  # strip the factor x^k
        coeffs.pop()
    x = newton_descent([float(c) for c in coeffs], float(max(map(len, succ))))
    return round_root(lambda num, den: _exceeds_root(coeffs, num, den), x)


def export_dot(a: Automaton) -> str:
    """Graphviz source of the graph ``safety``, with a fixed ordering of
    nodes and edges."""
    lines = ["digraph safety {"]
    if a.forbidden:
        lines.append(f"  // forbidden: {' '.join(a.forbidden)}")
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=circle];")
    if a.start is None:
        lines.append('  empty [shape=plaintext, label="(empty language)"];')
    else:
        lines.append('  __start [shape=point, label=""];')
        lines.append(f"  __start -> s{a.start};")
    for s in range(a.n_states):
        lines.append(f"  s{s};")
    for s, i, t in a.edges():
        lines.append(f'  s{s} -> s{t} [label="{ZERO_FREE_SYMBOLS[i]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
