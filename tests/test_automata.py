"""Tests for safety automata, growth classification, and word counts."""

import copy
import itertools
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from univoque import automata
from univoque._rounding import round_root
from univoque.automata import (
    MAX_PERRON_STATES,
    ZERO_FREE_SYMBOLS,
    Automaton,
    GrowthClass,
    GrowthKind,
    _charpoly,
    _exceeds_root,
    build_safety_automaton,
    classify_growth,
    count_words,
    export_dot,
    growth_rate,
    strongly_connected_components,
)

SEVEN_BLOCKS = ("111", "1mmm", "11m11", "11m1m1",
                "1mm1mm", "11m1mm1", "1mm1m1m")
EIGHTH_BLOCK = "1mm1m11mm1"

# Transition tables worked out by hand for the two block sets, states in
# breadth-first order with symbol '1' explored before 'm'.
NINE_STATE_TABLE = ((1, 0), (2, 3), (None, 4), (1, 5), (None, 5),
                    (6, None), (2, 7), (8, None), (2, None))
SEVEN_STATE_TABLE = ((1, 0), (2, 3), (None, 4), (1, 5), (None, 5),
                     (6, None), (2, None))


def oracle_count(blocks, n):
    """Count length-n words over {1, m} that avoid every block and can
    be extended to an infinite avoiding sequence.

    Extendability of an avoiding word depends only on its last
    maxlen - 1 symbols; the set of viable contexts is the greatest
    fixpoint of the one-step extension relation.
    """
    syms = ("1", "m")
    blocks = list(blocks)
    maxlen = max((len(b) for b in blocks), default=1)
    k = maxlen - 1

    def invalid_step(prefix, a):
        w = prefix + a
        return any(w.endswith(b) for b in blocks)

    def avoids(w):
        return not any(b in w for b in blocks)

    alive = {"".join(t) for t in itertools.product(syms, repeat=k)
             if avoids("".join(t))}
    while True:
        nxt = {c for c in alive
               if any(not invalid_step(c, a) and (c + a)[-k:] in alive
                      for a in syms)} if k else \
              ({""} if any(not invalid_step("", a) for a in syms) else set())
        if nxt == alive:
            break
        alive = nxt

    def extendable(w):
        if len(w) >= k:
            return (w[len(w) - k:] if k else "") in alive
        frontier = {w}
        for _ in range(k - len(w)):
            frontier = {u + a for u in frontier for a in syms
                        if not invalid_step(u, a)}
        return any(u[-k:] in alive for u in frontier)

    return sum(1 for t in itertools.product(syms, repeat=n)
               if avoids("".join(t)) and extendable("".join(t)))


def test_seven_block_automaton_matches_hand_derivation():
    a = build_safety_automaton(SEVEN_BLOCKS)
    assert a.n_states == 9
    assert a.start == 0
    assert a.transitions == NINE_STATE_TABLE
    assert a.forbidden == SEVEN_BLOCKS


def test_eighth_block_collapses_to_seven_states():
    a = build_safety_automaton(SEVEN_BLOCKS + (EIGHTH_BLOCK,))
    assert a.n_states == 7
    assert a.transitions == SEVEN_STATE_TABLE


def test_seven_block_classification_and_growth():
    a = build_safety_automaton(SEVEN_BLOCKS)
    g = classify_growth(a)
    assert g.kind is GrowthKind.UNCOUNTABLE
    assert g.path_count is None
    assert g.evidence  # the branching component
    rate = growth_rate(a)
    assert rate > 1.05
    # dominant root of x^6 = x^2 + 1, correctly rounded
    assert rate == rounded_root([1, 0, 0, 0, -1, 0, -1], 1, 2)


def test_eight_block_classification_and_growth():
    a = build_safety_automaton(SEVEN_BLOCKS + (EIGHTH_BLOCK,))
    g = classify_growth(a)
    assert g.kind is GrowthKind.COUNTABLY_INFINITE
    assert growth_rate(a) == 1.0


def test_eight_block_counts_are_quadratic():
    a = build_safety_automaton(SEVEN_BLOCKS + (EIGHTH_BLOCK,))
    for n in range(0, 65, 4):
        assert count_words(a, n) == 1 + n * (n + 1) // 2


def test_seven_block_count_prefix():
    a = build_safety_automaton(SEVEN_BLOCKS)
    got = [count_words(a, n) for n in range(13)]
    assert got == [1, 2, 4, 7, 11, 17, 25, 35, 47, 62, 80, 102, 128]


@pytest.mark.parametrize("blocks,states,kind,paths", [
    (("1m",), 2, GrowthKind.COUNTABLY_INFINITE, None),
    (("11", "mm"), 3, GrowthKind.FINITE_PATHS, 2),
    (("11", "1mm"), 3, GrowthKind.COUNTABLY_INFINITE, None),
    ((), 1, GrowthKind.UNCOUNTABLE, None),
    (("1", "m"), 0, GrowthKind.EMPTY, 0),
    (("1",), 1, GrowthKind.FINITE_PATHS, 1),
])
def test_small_fixture_classifications(blocks, states, kind, paths):
    a = build_safety_automaton(blocks)
    assert a.n_states == states
    g = classify_growth(a)
    assert g.kind is kind
    assert g.path_count == paths


def test_full_shift_growth_rate_is_two():
    assert growth_rate(build_safety_automaton([])) == 2.0


def test_single_cycle_growth_rate_is_one():
    assert growth_rate(build_safety_automaton(["1m"])) == 1.0


def test_finite_paths_into_a_cycle_growth_rate_is_one():
    assert growth_rate(build_safety_automaton(["11", "mm"])) == 1.0


def rounded_root(poly, lo, hi):
    """The float nearest to the one root of the integer polynomial
    ``poly`` (highest power first) in [lo, hi], by exact bisection
    until both ends of the bracket round to the same float."""
    def value(x):
        acc = Fraction(0)
        for c in poly:
            acc = acc * x + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    lo_positive = value(lo) > 0
    assert lo_positive != (value(hi) > 0)
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if (value(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_tribonacci_growth_rate_is_correctly_rounded():
    # avoiding 111: the tribonacci root of x^3 - x^2 - x - 1
    rate = growth_rate(build_safety_automaton(["111"]))
    assert rate == rounded_root([1, -1, -1, -1], 1, 2) == 1.8392867552141612


def test_round_root_settles_from_any_start():
    def perron(coeffs):
        return lambda num, den: _exceeds_root(coeffs, num, den)

    want = 1.8392867552141612
    for x in (0.0, 1.0, 1.839286755214161, 1.8392867552141614, 2.0, 1e300):
        assert round_root(perron([1, -1, -1, -1]), x) == want
    assert round_root(perron([1, -2]), 1.0) == round_root(perron([1, -2]), 3.0) == 2.0
    assert round_root(perron([1, 0, -2]), 1.0) == 2 ** 0.5


def test_perron_bound_is_checked_per_branching_component():
    # avoiding 1^n leaves one branching component of n states
    at_bound = build_safety_automaton(["1" * MAX_PERRON_STATES])
    assert at_bound.n_states == MAX_PERRON_STATES
    assert growth_rate(at_bound) == 2.0  # 2 - rho is about 2^-128
    with pytest.raises(ValueError, match="MAX_PERRON_STATES = 128"):
        growth_rate(build_safety_automaton(["1" * (MAX_PERRON_STATES + 1)]))
    # a long cycle needs no characteristic polynomial
    n = 3 * MAX_PERRON_STATES
    assert growth_rate(Automaton(tuple(((s + 1) % n, None) for s in range(n)), 0)) == 1.0


def _reference_charpoly(succ):
    """Le Verrier's method on packed rows, one matrix entry at a time:
    each row of A^k summed over its successors' rows, each trace term
    shifted out of its row, and Newton's identities as one sum per
    coefficient."""
    n = len(succ)
    width = (max(map(len, succ)) ** n).bit_length() + 1
    mask = (1 << width) - 1
    rows = [1 << (width * i) for i in range(n)]
    sums = []
    for _ in range(n):
        rows = [sum(rows[t] for t in r) for r in succ]
        sums.append(sum((row >> (width * i)) & mask for i, row in enumerate(rows)))
    coeffs = [1]
    for k in range(1, n + 1):
        acc = sums[k - 1] + sum(coeffs[i] * sums[k - 1 - i] for i in range(1, k))
        coeffs.append(-acc // k)
    return coeffs


@st.composite
def strongly_connected_successors(draw):
    """Successor lists of 1 to 40 states, strongly connected through one
    cycle over all of them in a random order; each row is [t], [t, u]
    or [t, t], with t, the cycle's edge, first or second."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    succ = [None] * n
    for i, s in enumerate(order):
        t = order[(i + 1) % n]
        kind = draw(st.sampled_from(("one", "two", "double")))
        row = [t] if kind == "one" else [t, t if kind == "double" else
                                          draw(st.integers(0, n - 1))]
        succ[s] = row[::-1] if draw(st.booleans()) else row
    return succ


def _largest_component_successors(blocks):
    a = build_safety_automaton(blocks)
    comp = max(a.components, key=len)
    local = {s: i for i, s in enumerate(comp)}
    return [[local[t] for t in a.transitions[s] if t in local] for s in comp]


@settings(max_examples=200, deadline=None)
@given(strongly_connected_successors())
@example([[0]])
@example([[0, 0]])
@example(_largest_component_successors(["1" * 60 + "m", "mm1" + "m" * 40]))  # 101 states
@example(_largest_component_successors(["1" * 120 + "m"]))  # 120 states
def test_charpoly_matches_the_per_entry_route(succ):
    assert _charpoly(succ) == _reference_charpoly(succ)


def _reference_exceeds_root(coeffs, num, den):
    """_exceeds_root with each power den ** j computed afresh and the
    Taylor shift reading b[j + 1] back from the list."""
    d = len(coeffs) - 1
    b = [c * den ** j for j, c in enumerate(coeffs)][::-1]
    for i in range(d + 1):
        for j in range(d - 1, i - 1, -1):
            b[j] += num * b[j + 1]
        if b[i] <= 0:
            return False
    return True


# dyadic points num / 2^k in [0, 3], where the Perron roots lie
_DYADIC = st.integers(0, 60).flatmap(lambda k: st.tuples(st.integers(0, 3 << k), st.just(k)))


@settings(max_examples=200, deadline=None)
@given(strongly_connected_successors(), _DYADIC)
@example([[0, 0]], (2, 0))  # x - 2 at its root 2: not exceeded
@example([[0, 0]], ((2 << 60) + 1, 60))  # just above 2
# the floats on either side of the tribonacci root
@example(_largest_component_successors(["111"]), (8283411145409984, 52))
@example(_largest_component_successors(["111"]), (8283411145409985, 52))
def test_exceeds_root_matches_the_per_power_route(succ, point):
    num, k = point
    coeffs = _charpoly(succ)
    while coeffs[-1] == 0:  # as _perron_root strips the factor x^k
        coeffs.pop()
    assert _exceeds_root(coeffs, num, 1 << k) == _reference_exceeds_root(coeffs, num, 1 << k)


def _components(transitions):
    """Strongly connected components, from reachability sets."""
    reach = []
    for s in range(len(transitions)):
        seen, todo = {s}, [s]
        while todo:
            for t in transitions[todo.pop()]:
                if t is not None and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach.append(seen)
    return {frozenset(t for t in reach[s] if s in reach[t])
            for s in range(len(transitions))}


def collatz_wielandt_bounds(transitions, width=Fraction(1, 10**12)):
    """Exact bounds lo <= rho <= hi on the largest spectral radius over
    the components: for the integer vectors v_k = (A + I)^k 1 of a
    component, every ratio (v_(k+1))_i / (v_k)_i lies on both sides of
    rho + 1, and they close in on it as k grows."""
    lo = hi = Fraction(0)
    for comp in _components(transitions):
        succ = {s: [t for t in transitions[s] if t in comp] for s in comp}
        if not any(succ.values()):
            continue
        v = dict.fromkeys(comp, 1)
        for k in itertools.count():
            w = {s: v[s] + sum(v[t] for t in succ[s]) for s in comp}
            if k % 16 == 0:
                ratios = [Fraction(w[s], v[s]) for s in comp]
                c_lo, c_hi = min(ratios) - 1, max(ratios) - 1
                if c_hi - c_lo < width or k > 4000:
                    break
            v = w
        lo, hi = max(lo, c_lo), max(hi, c_hi)
    return lo, hi


_BLOCK = st.text(alphabet="1m", min_size=2, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(_BLOCK, min_size=2, max_size=8))
def test_growth_rate_lies_in_a_collatz_wielandt_enclosure(blocks):
    a = build_safety_automaton(blocks)
    lo, hi = collatz_wielandt_bounds(a.transitions)
    # rounding is monotone, so round(lo) <= round(rho) <= round(hi)
    assert float(lo) <= growth_rate(a) <= float(hi)
    assert hi - lo < Fraction(1, 10**12)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> list[str]:
    """Output lines of ``code`` run in a fresh interpreter that imports
    univoque from this checkout."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    return subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True).stdout.splitlines()


def loaded_after(code: str) -> set[str]:
    """The univoque modules loaded once ``code`` has run in a fresh interpreter."""
    return set(run_fresh(code + "; print(*(k for k in sys.modules if k.startswith('univoque')))")
               [-1].split())


def test_import_loads_no_numpy():
    # nor the self-test suites, which only the selftest subcommand loads
    lines = run_fresh("import univoque; "
                      "print('numpy' in sys.modules, 'univoque.selftest' in sys.modules); "
                      "import univoque.cli; "
                      "univoque.cli.main(['pi', '1^w', '--q', '3', '--m', '3']); "
                      "print('univoque.selftest' in sys.modules)")
    # the pi value is printed between the two
    assert lines[0] == "False False"
    assert lines[-1] == "False"


def test_cold_start_loads_only_the_layers_it_uses():
    assert loaded_after("import univoque") == {"univoque"}
    assert loaded_after("import univoque.automata") \
        == {"univoque", "univoque.automata", "univoque._rounding", "univoque.sequences"}
    assert loaded_after("import univoque; univoque.compute_constants(); univoque.branches()") \
        == {"univoque", "univoque._rounding", "univoque.sequences", "univoque.critical"}

    def cli(*argv):
        return loaded_after(f"import univoque.cli; univoque.cli.main({list(argv)!r})")

    pi = {"univoque", "univoque.cli", "univoque.sequences"}
    assert cli("pi", "1^w", "--q", "3", "--m", "3") == pi
    assert cli("check", "1^w", "--q", "3", "--m", "3", "--ternary") == pi | {"univoque.uniqueness"}
    assert cli("scan-curve", "--m-lo", "2", "--m-hi", "2.1", "--step", "0.05") \
        == pi | {"univoque.critical", "univoque._rounding"}
    assert cli("automaton", "--blocks", "111", "--count", "3") \
        == pi | {"univoque.automata", "univoque._rounding"}


def test_set_up_path_loads_no_dataclasses():
    # -S: no site-packages .pth hook may load any of these modules beforehand
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import univoque as u; "
            "u.compute_constants(); u.branches(); u.r_of_m(3.0); "
            "u.pi_eval(u.parse_seq('m1^w', u.Alphabet.ternary(3)), 2.5); "
            "print(sorted({'dataclasses', 'inspect', 'typing', 're', 'enum'} & set(sys.modules)), "
            "'univoque.critical' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["[]", "True"]


def test_automata_load_no_dataclasses():
    # the automaton records are _Records too, and round-trip without them
    code = ("import sys, copy, pickle; sys.path.insert(0, sys.argv[1]); import univoque as u; "
            "a = u.build_safety_automaton(['111', '1mm']); g = u.classify_growth(a); "
            "u.growth_rate(a); u.count_words(a, 9); u.export_dot(a); "
            "pickle.loads(pickle.dumps(a)); copy.deepcopy(g); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["[]"]


def test_exact_steps_load_no_fractions():
    # the exact root and growth-rate steps work in plain integers
    lines = run_fresh("import univoque; "
                      "exact = lambda: sorted({'fractions', 'decimal'} & set(sys.modules)); "
                      "print(exact()); import univoque.cli; "
                      "univoque.cli.main(['scan-curve', '--m-lo', '2', '--m-hi', '5', "
                      "'--step', '0.1']); "
                      "univoque.cli.main(['automaton', '--blocks', '111', '--classify']); "
                      "print(exact())")
    assert lines[0] == lines[-1] == "[]"


def test_every_public_name_resolves():
    import univoque
    missing = [name for name in univoque.__all__ if not hasattr(univoque, name)]
    assert not missing
    namespace = {}
    exec("from univoque import *", namespace)
    assert set(univoque.__all__) <= set(namespace)
    # each name is its home layer's own object, defined there
    for name, layer in univoque._HOME.items():
        obj, home = getattr(univoque, name), getattr(univoque, layer)
        assert obj is getattr(home, name), name
        if callable(obj):
            assert obj.__module__ == home.__name__, name
    # a layer resolves as an attribute even when nothing imported it by name
    assert run_fresh("import univoque.cli; print(univoque.automata.__name__)")[-1] \
        == "univoque.automata"
    # unknown names stay unknown, so probing with hasattr is safe
    assert not hasattr(univoque, "curve_rows")
    with pytest.raises(AttributeError, match="no_such_name"):
        univoque.no_such_name


def test_empty_language_growth_rate_is_zero():
    assert growth_rate(build_safety_automaton(["1", "m"])) == 0.0


def test_counts_match_brute_force_on_fixture_sets():
    for blocks in (SEVEN_BLOCKS, SEVEN_BLOCKS + (EIGHTH_BLOCK,)):
        a = build_safety_automaton(blocks)
        for n in range(0, 12):
            assert count_words(a, n) == oracle_count(blocks, n), (blocks, n)


def test_counts_match_brute_force_on_random_sets():
    rng = random.Random(1717)
    for trial in range(50):
        blocks = {"".join(rng.choice("1m") for _ in range(rng.randrange(1, 6)))
                  for _ in range(rng.randrange(1, 5))}
        a = build_safety_automaton(blocks)
        for n in (0, 1, 2, 3, 5, 8, 11):
            assert count_words(a, n) == oracle_count(blocks, n), (blocks, n)


def test_count_words_bounds():
    a = build_safety_automaton(["11"])
    with pytest.raises(ValueError):
        count_words(a, 65)
    with pytest.raises(ValueError):
        count_words(a, -1)


@pytest.mark.parametrize("n, kind", [(4.0, "float"), (True, "bool")])
def test_count_words_takes_n_only_as_an_int(n, kind):
    # 4.0 once failed inside range() and True counted as n = 1
    a = build_safety_automaton(["11"])
    with pytest.raises(TypeError, match=f"n must be an int, got {kind}"):
        count_words(a, n)


def test_counts_are_exact_integers_at_width_64():
    full = build_safety_automaton([])
    assert count_words(full, 64) == 2 ** 64


def rebuilt(a):
    """The automaton constructed again from its stored table."""
    return Automaton(a.transitions, a.start, a.forbidden)


def test_trim_is_idempotent_and_build_output_is_trimmed():
    # the constructor trims: rebuilding from a stored table changes nothing
    rng = random.Random(55)
    for _ in range(40):
        blocks = {"".join(rng.choice("1m") for _ in range(rng.randrange(1, 5)))
                  for _ in range(rng.randrange(0, 4))}
        a = build_safety_automaton(blocks)
        assert rebuilt(a) == a
        assert rebuilt(rebuilt(a)) == rebuilt(a)


def test_trim_removes_dead_branches():
    # state 2 has no outgoing edges; state 3 is unreachable
    t = Automaton(((1, 2), (0, None), (None, None), (0, 0)), 0)
    assert t.n_states == 2
    assert t.transitions == ((1, None), (0, None))


def test_trim_can_empty_the_automaton():
    t = Automaton(((1, None), (None, None)), 0)
    assert t.start is None
    assert t.n_states == 0
    assert t.transitions == ()


# Each call builds a fresh record; two calls build equal ones.
AUTOMATA_RECORDS = [
    (lambda: build_safety_automaton(SEVEN_BLOCKS)),
    (lambda: Automaton(((1, 2), (0, None), (None, None), (0, 0)), 0, ("raw",))),
    (lambda: build_safety_automaton(["1", "m"])),  # the empty language
    (lambda: classify_growth(build_safety_automaton(SEVEN_BLOCKS))),
    (lambda: GrowthClass(GrowthKind.FINITE_PATHS, 2)),
    (lambda: GrowthClass(GrowthKind.EMPTY, 0)),
]
ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"])


def test_automaton_records_keep_the_dataclass_fields():
    assert Automaton.__slots__ == ("transitions", "start", "forbidden", "components")
    assert GrowthClass.__slots__ == ("kind", "path_count", "evidence")


@pytest.mark.parametrize("make", AUTOMATA_RECORDS)
def test_automaton_records_compare_and_hash_by_field(make):
    a, b = make(), make()
    fields = tuple(getattr(a, f) for f in type(a).__slots__)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)  # as the frozen dataclasses hashed
    assert len({a, b}) == 1
    assert a != fields and fields != a


def test_automaton_records_differ_by_any_field():
    a = build_safety_automaton(["11", "mm"])
    assert a != Automaton(a.transitions, a.start, ("other",))
    assert a != build_safety_automaton(["11"])
    g = GrowthClass(GrowthKind.FINITE_PATHS, 2)
    assert g != GrowthClass(GrowthKind.FINITE_PATHS, 3)
    assert g != GrowthClass(GrowthKind.FINITE_PATHS, 2, (0,))
    assert g != GrowthClass(GrowthKind.COUNTABLY_INFINITE, 2)


def test_automaton_record_reprs_are_unchanged():
    a = build_safety_automaton(["11", "mm"])
    assert repr(a) == ("Automaton(transitions=((1, 2), (None, 2), (1, None)), start=0, "
                       "forbidden=('11', 'mm'), components=((1, 2), (0,)))")
    assert repr(classify_growth(a)) == (
        "GrowthClass(kind=<GrowthKind.FINITE_PATHS: 'FinitePaths'>, path_count=2, "
        "evidence=())")
    empty = build_safety_automaton(["1", "m"])
    assert repr(empty) == \
        "Automaton(transitions=(), start=None, forbidden=('1', 'm'), components=())"
    assert repr(classify_growth(build_safety_automaton(["1m"]))) == (
        "GrowthClass(kind=<GrowthKind.COUNTABLY_INFINITE: 'CountablyInfinite'>, "
        "path_count=None, evidence=(0, 1))")


@pytest.mark.parametrize("make", AUTOMATA_RECORDS)
def test_automaton_records_are_immutable(make):
    record = make()
    before = repr(record)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize("make", AUTOMATA_RECORDS)
@ROUND_TRIPS
def test_automaton_records_round_trip(make, round_trip):
    record = make()
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)


@ROUND_TRIPS
def test_automaton_round_trips_normalise_again(round_trip):
    # an automaton is rebuilt through its constructor: a table put in
    # behind its back comes out trimmed and renumbered
    raw = ((1, 2), (0, None), (None, None), (0, 0))
    a = build_safety_automaton(["11"])
    object.__setattr__(a, "transitions", raw)
    again = round_trip(a)
    assert again == Automaton(raw, 0, a.forbidden)
    assert again.transitions == ((1, None), (0, None))
    assert again.components == ((0, 1),)


def test_automaton_records_take_keyword_arguments():
    rows = ((1, 2), (None, 2), (1, None))
    a = Automaton(transitions=rows, start=0, forbidden=("11", "mm"))
    assert a == Automaton(rows, 0, ("11", "mm")) == build_safety_automaton(["11", "mm"])
    assert Automaton(transitions=rows, start=0).forbidden == ()
    g = GrowthClass(kind=GrowthKind.FINITE_PATHS, path_count=2, evidence=(1,))
    assert g == GrowthClass(GrowthKind.FINITE_PATHS, 2, (1,))
    assert GrowthClass(kind=GrowthKind.UNCOUNTABLE) == \
        GrowthClass(GrowthKind.UNCOUNTABLE, None, ())


@st.composite
def raw_tables(draw):
    n = draw(st.integers(1, 12))
    target = st.none() | st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(target, target), min_size=n, max_size=n))
    return tuple(rows), draw(st.none() | st.integers(0, n - 1))


def _extendable_walks(rows, start, n):
    """Length-n walks from start, on a raw table, that extend to an
    infinite walk: a state has an infinite walk exactly when it has one
    of len(rows) steps, which repeats a state."""
    def walks(s, k):
        if k == 0:
            return 1
        return sum(walks(t, k - 1) for t in rows[s] if t is not None)

    if start is None:
        return 0
    ends = [start]
    for _ in range(n):
        ends = [t for s in ends for t in rows[s] if t is not None]
    return sum(1 for s in ends if walks(s, len(rows)))


@settings(max_examples=150, deadline=None)
@given(raw_tables(), st.integers(0, 6))
def test_stored_form_is_trimmed_breadth_first_and_keeps_the_language(table, n):
    rows, start = table
    a = Automaton(rows, start)
    if a.start is None:
        assert a.transitions == ()
    else:
        assert a.start == 0
        order = [0]
        for s in order:
            for t in a.transitions[s]:
                if t is not None and t not in order:
                    order.append(t)
        assert order == list(range(a.n_states))  # all reachable, BFS-numbered
        assert all(any(t is not None for t in row) for row in a.transitions)
    assert rebuilt(a) == a
    assert count_words(a, n) == _extendable_walks(rows, start, n)


def _reference_normal_form(transitions, start):
    """The stored table and start by reverse-edge propagation: a state
    is dead once none of its edges leads to a live state, and the live
    states reachable from the start are numbered breadth-first."""
    if start is None:
        return (), None
    live_edges = [sum(t is not None for t in row) for row in transitions]
    preds = [[] for _ in transitions]
    for s, row in enumerate(transitions):
        for t in row:
            if t is not None:
                preds[t].append(s)
    dead = [s for s, k in enumerate(live_edges) if k == 0]
    for t in dead:  # grows while it is read
        for s in preds[t]:
            live_edges[s] -= 1
            if live_edges[s] == 0:
                dead.append(s)
    if live_edges[start] == 0:
        return (), None
    relabel = {start: 0}
    order = [start]
    for s in order:
        for t in transitions[s]:
            if t is not None and live_edges[t] and t not in relabel:
                relabel[t] = len(order)
                order.append(t)
    return tuple(tuple(relabel.get(t) for t in transitions[s]) for s in order), 0


@settings(max_examples=300, deadline=None)
@given(raw_tables())
# a dead state and an unreachable one
@example((((1, 2), (0, None), (None, None), (0, 0)), 0))
# the start is dead: it reaches a chain that ends
@example((((1, None), (2, 2), (None, None)), 0))
def test_stored_form_matches_the_reverse_propagation_route(table):
    a = Automaton(*table)
    assert (a.transitions, a.start) == _reference_normal_form(*table)


def _reference_component_normal_form(transitions, start):
    """The stored table, start and components by component liveness: the
    states reachable from the start are numbered breadth-first, Tarjan's
    search runs on that table, a component is live when it has an
    internal edge or one into a live component (sinks come first), and
    the live states and components are renumbered in order."""
    order = [] if start is None else [start]
    relabel = dict.fromkeys(order, 0)
    for s in order:
        for t in transitions[s]:
            if t is not None and t not in relabel:
                relabel[t] = len(order)
                order.append(t)
    table = [list(map(relabel.get, transitions[s])) for s in order]
    comps = strongly_connected_components(table)
    live = set()
    for comp in comps:
        if len(comp) > 1 or any(t in live or t == comp[0] for t in table[comp[0]]):
            live.update(comp)
    keep = {s: i for i, s in enumerate(sorted(live))}
    rows = tuple(tuple(map(keep.get, table[s])) for s in keep)
    live_comps = tuple(tuple(keep[s] for s in c) for c in comps if c[0] in live)
    return rows, 0 if rows else None, live_comps


@settings(max_examples=300, deadline=None)
@given(raw_tables())
@example((((1, 2), (0, None), (None, None), (0, 0)), 0))
@example((((1, None), (2, 2), (None, None)), 0))
# Tarjan's search from 0 meets the dead state 1 before the live cycle at 2
@example((((1, 2), (3, None), (2, 4), (None, None), (0, None)), 0))
def test_stored_form_matches_the_component_liveness_route(table):
    a = Automaton(*table)
    assert (a.transitions, a.start, a.components) == \
        _reference_component_normal_form(*table)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="1m", min_size=1, max_size=7), max_size=8))
@example(list(SEVEN_BLOCKS))
@example(list(SEVEN_BLOCKS + (EIGHTH_BLOCK,)))
def test_built_automata_match_the_component_liveness_route(blocks):
    raw = []
    normal_form = automata._normal_form

    def recording(transitions, start):
        raw.append((transitions, start))
        return normal_form(transitions, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_normal_form", recording)
        a = build_safety_automaton(blocks)
    (table,) = raw
    assert (a.transitions, a.start, a.components) == \
        _reference_component_normal_form(*table)


_AUTOMATA = st.one_of(
    st.lists(st.text(alphabet="1m", min_size=1, max_size=7), min_size=0, max_size=8)
    .map(build_safety_automaton),
    raw_tables().map(lambda table: Automaton(*table)))


@settings(max_examples=300, deadline=None)
@given(_AUTOMATA)
# Tarjan's search from 0 meets the dead state 1 before the live cycle at 2
@example(Automaton(((1, 2), (3, None), (2, 4), (None, None), (0, None)), 0))
@example(build_safety_automaton(SEVEN_BLOCKS))
def test_stored_components_are_tarjans_order_on_the_stored_table(a):
    assert a.components == tuple(strongly_connected_components(a.transitions))


@settings(max_examples=300, deadline=None)
@given(raw_tables())
# 1 and 2 reach the finished component {3} from inside the open one {1, 2}
@example((((1, None), (2, 3), (1, 3), (3, None)), 0))
def test_components_are_the_mutual_reachability_classes_sinks_first(table):
    rows, _ = table
    comps = strongly_connected_components(rows)
    assert {frozenset(c) for c in comps} == _components(rows)
    assert all(list(c) == sorted(c) for c in comps)
    listed = {}
    for i, comp in enumerate(comps):
        listed.update(dict.fromkeys(comp, i))
    for s, row in enumerate(rows):
        assert all(listed[t] <= listed[s] for t in row if t is not None)


def test_one_tarjan_pass_per_automaton(monkeypatch):
    calls = []
    tarjan = automata.strongly_connected_components

    def counted(transitions):
        calls.append(len(transitions))
        return tarjan(transitions)

    monkeypatch.setattr(automata, "strongly_connected_components", counted)
    for blocks in (SEVEN_BLOCKS, SEVEN_BLOCKS + (EIGHTH_BLOCK,), ["1111", "mmm"]):
        calls.clear()
        a = build_safety_automaton(blocks)
        assert len(calls) == 1
        classify_growth(a)
        growth_rate(a)
        count_words(a, 8)
        export_dot(a)
        assert len(calls) == 1


def test_build_hands_only_unmatched_trie_states_to_the_constructor(monkeypatch):
    handed = []
    normal_form = automata._normal_form

    def spy(transitions, start):
        handed.append(transitions)
        return normal_form(transitions, start)

    monkeypatch.setattr(automata, "_normal_form", spy)
    rng = random.Random(28)
    block_sets = [list(SEVEN_BLOCKS), list(SEVEN_BLOCKS + (EIGHTH_BLOCK,)),
                  ["11", "mm"], ["1", "m"], ["11", "1m11", "m1m"]]
    block_sets += [["".join(rng.choice("1m") for _ in range(rng.randint(1, 8)))
                    for _ in range(rng.randint(1, 8))] for _ in range(200)]
    for blocks in block_sets:
        handed.clear()
        a = build_safety_automaton(blocks)
        # the trie's states are the blocks' prefixes; the matching ones
        # hold a block, and no unmatched state reaches them
        prefixes = {b[:k] for b in blocks for k in range(len(b) + 1)}
        unmatched = [w for w in prefixes if not any(b in w for b in blocks)]
        assert len(handed) == 1 and len(handed[0]) == len(unmatched)
        assert a.n_states <= len(unmatched)


def test_block_lists_are_strings_or_nothing():
    # a bare str once split into symbols: "11m" forbade 1 and m
    with pytest.raises(TypeError, match="not a str"):
        build_safety_automaton("11m")
    # a tuple block was once stored, and export_dot then failed on it
    with pytest.raises(TypeError, match="block must be a str, got tuple"):
        build_safety_automaton([("1", "1")])
    with pytest.raises(TypeError, match="block must be a str, got int"):
        build_safety_automaton(["11", 7])
    assert build_safety_automaton(b for b in ("11", "mm")) == \
        build_safety_automaton(["11", "mm"])


def _reference_classify_growth(a):
    """Growth class in three traversals: a branching check over the
    components, a search of the condensation from each cycle, and a
    memoized count of the infinite paths from the start."""
    if a.start is None:
        return GrowthClass(GrowthKind.EMPTY, 0)
    comps = strongly_connected_components(a.transitions)
    comp_of = {s: ci for ci, comp in enumerate(comps) for s in comp}
    internal = [sum(1 for s in comp for t in a.transitions[s] if t in comp)
                for comp in comps]
    for comp, edges in zip(comps, internal):
        if edges > len(comp):
            return GrowthClass(GrowthKind.UNCOUNTABLE, None, comp)

    cyclic = [ci for ci, comp in enumerate(comps) if internal[ci] == len(comp)]
    succ_comps = {ci: set() for ci in range(len(comps))}
    for s, _i, t in a.edges():
        if comp_of[s] != comp_of[t]:
            succ_comps[comp_of[s]].add(comp_of[t])
    for ci in cyclic:
        seen, frontier = set(), [ci]
        while frontier:
            for d in succ_comps[frontier.pop()]:
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        linked = sorted(seen & set(cyclic))
        if linked:
            evidence = tuple(sorted(comps[ci] + comps[linked[0]]))
            return GrowthClass(GrowthKind.COUNTABLY_INFINITE, None, evidence)

    cyclic_states = {s for ci in cyclic for s in comps[ci]}
    memo = {}

    def paths(s):
        if s not in memo:
            memo[s] = 1 if s in cyclic_states else sum(
                paths(t) for t in a.transitions[s] if t is not None)
        return memo[s]

    return GrowthClass(GrowthKind.FINITE_PATHS, paths(a.start))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.text(alphabet="1m", min_size=1, max_size=7), min_size=1, max_size=8)
    .map(build_safety_automaton),
    raw_tables().map(lambda table: Automaton(*table))))
# a loop at 0 reaching two sink loops through state 1: the evidence
# pairs it with the lower-numbered one
@example(Automaton(((0, 1), (2, 3), (2, None), (3, None)), 0))
# both edges of the start enter the one cycle: 2 paths, not 1
@example(build_safety_automaton(["11", "mm"]))
def test_growth_class_matches_the_three_traversal_route(a):
    assert classify_growth(a) == _reference_classify_growth(a)


def _reference_count_words(a, n):
    """count_words as a forward dict of path counts from the start,
    stepped n times and summed: the route the backward list DP must
    reproduce exactly."""
    if a.start is None:
        return 0
    counts = {a.start: 1}
    for _ in range(n):
        nxt = {}
        for s, c in counts.items():
            for t in a.transitions[s]:
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(counts.values())


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.text(alphabet="1m", min_size=1, max_size=7), min_size=0, max_size=8)
    .map(build_safety_automaton),
    raw_tables().map(lambda table: Automaton(*table))),
    st.integers(0, 64))
@example(build_safety_automaton(["1", "m"]), 64)
@example(build_safety_automaton([]), 64)
@example(build_safety_automaton(["11", "mmm"]), 1)
@example(build_safety_automaton(["11", "mmm"]), 63)
# finitely many paths: a two-symbol step reaches a fixed point long
# before n // 2 steps, and n is odd, so a single step follows it
@example(build_safety_automaton(["11", "mm"]), 63)
@example(build_safety_automaton(["11", "1mm", "mm1m"]), 7)
@example(Automaton(((1, None), (None, 2), (3, None), (4, 5), (4, None), (None, 5)), 0), 9)
# n + 1 words: the increment repeats from the second step on, and the
# stop adds it for every step left
@example(build_safety_automaton(["m1"]), 1)
@example(build_safety_automaton(["m1"]), 2)
@example(build_safety_automaton(["m1"]), 63)
@example(build_safety_automaton(["m1"]), 64)
# the start state's increment repeats from the second step on, but the
# whole vector's cycles with period 3, so the stop must not fire
@example(build_safety_automaton(["11", "1m1", "mmm1"]), 63)
@example(build_safety_automaton(["11", "1m1", "mmm1"]), 64)
def test_count_words_matches_the_forward_dict_route(a, n):
    assert count_words(a, n) == _reference_count_words(a, n)


def test_every_trimmed_state_has_an_outgoing_edge():
    rng = random.Random(10)
    for _ in range(30):
        blocks = {"".join(rng.choice("1m") for _ in range(rng.randrange(1, 6)))
                  for _ in range(rng.randrange(1, 4))}
        a = build_safety_automaton(blocks)
        for s in range(a.n_states):
            assert any(t is not None for t in a.transitions[s])


def test_language_of_the_nine_state_automaton_avoids_the_blocks():
    a = build_safety_automaton(SEVEN_BLOCKS)
    words = []
    frontier = [(a.start, "")]
    for _ in range(10):
        nxt = []
        for s, w in frontier:
            for i, t in enumerate(a.transitions[s]):
                if t is not None:
                    nxt.append((t, w + ZERO_FREE_SYMBOLS[i]))
        frontier = nxt
    words = [w for _, w in frontier]
    assert len(words) == count_words(a, 10)
    assert len(set(words)) == len(words)
    for w in words:
        assert not any(b in w for b in SEVEN_BLOCKS)


def test_dot_export_is_deterministic():
    a = build_safety_automaton(SEVEN_BLOCKS)
    b = build_safety_automaton(list(reversed(SEVEN_BLOCKS)))
    dot = export_dot(a)
    assert dot == export_dot(b)
    assert dot.startswith("digraph safety {")
    assert "__start -> s0;" in dot
    assert 's0 -> s1 [label="1"];' in dot
    assert dot.count("->") == 1 + sum(1 for _ in a.edges())


def test_dot_export_handles_the_empty_language():
    dot = export_dot(build_safety_automaton(["1", "m"]))
    assert "empty" in dot


def test_scc_structure_of_the_nine_state_automaton():
    a = build_safety_automaton(SEVEN_BLOCKS)
    comps = {frozenset(c) for c in strongly_connected_components(a.transitions)}
    assert comps == {frozenset({0}), frozenset({1, 3}),
                     frozenset({2, 4, 5, 6, 7, 8})}


def test_uncountable_evidence_is_the_branching_component():
    a = build_safety_automaton(SEVEN_BLOCKS)
    g = classify_growth(a)
    assert set(g.evidence) == {2, 4, 5, 6, 7, 8}


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        build_safety_automaton(["1x"])
    with pytest.raises(ValueError):
        build_safety_automaton([""])


@pytest.mark.parametrize("rows, start, message", [
    # 0.5 once failed inside the normal form as "tuple indices must be
    # integers", and True passed as state 1, out of range
    (((0.5, None),), 0, "state 0: target must be an int, got float"),
    (((0, None), (True, None)), 0, "state 1: target must be an int, got bool"),
    (((0, None),), 0.0, "start state must be an int, got float"),
    (((0, None),), False, "start state must be an int, got bool"),
])
def test_automaton_takes_state_numbers_only_as_ints(rows, start, message):
    with pytest.raises(TypeError, match=message):
        Automaton(rows, start)


def test_automaton_validates_shape():
    with pytest.raises(ValueError):
        Automaton(((0, 9),), 0)
    with pytest.raises(ValueError):
        Automaton(((0,),), 0)
    with pytest.raises(ValueError):
        Automaton(((0, 0),), 4)
