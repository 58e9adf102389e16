"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a human-readable
report: ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time

from test_automata import (
    EIGHTH_BLOCK,
    NINE_STATE_TABLE,
    SEVEN_BLOCKS,
    SEVEN_STATE_TABLE,
    oracle_count,
)
from test_uniqueness import CERTIFIED

from univoque.automata import (
    GrowthKind,
    build_safety_automaton,
    classify_growth,
    count_words,
    growth_rate,
)
from univoque.critical import (
    PLAIN,
    P,
    R,
    bisect_root,
    branches,
    compute_constants,
    r_of_m,
    solve_pi_root,
)
from univoque.selftest import appendix_sign_suite, locate_crossovers
from univoque.sequences import Alphabet, parse_seq, pi_complement, pi_eval
from univoque.uniqueness import (
    VerdictKind,
    certify_family,
    check_univoque_general,
    scan_forbidden,
)


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_first_endpoint_three_way_agreement():
    golden_sq = (3 + math.sqrt(5)) / 2
    seq = parse_seq("m1^w", Alphabet.ternary(2))

    def compute():
        return (r_of_m(2.0),
                solve_pi_root(seq, PLAIN, 2.0),
                bisect_root(lambda q: q * q - 3 * q + 1, 2.0, 3.0))

    vals = compute()  # warm caches before timing
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        vals = compute()
        best = min(best, time.perf_counter() - t0)
    spread = max(abs(v - golden_sq) for v in vals)
    ok = spread < 1e-10 and best < 1e-3
    _report(1, ok, f"spread {spread:.2e} from (3+sqrt5)/2, best {best * 1e3:.3f} ms")


def test_criterion_2_constants_to_printed_precision():
    compute_constants.cache_clear()
    t0 = time.perf_counter()
    c = compute_constants()
    elapsed = time.perf_counter() - t0
    targets = [
        (c.alpha, 1.32472, 1e-5, "alpha"),
        (c.phi, 1.61803, 1e-5, "phi"),
        (1 + c.alpha, 2.32472, 1e-5, "1+alpha"),
        (c.m_d, 2.80194, 1e-5, "m_d"),
        (c.q_1, 2.34018, 1e-5, "q_1"),
        (c.m_1, 2.9129, 1e-4, "m_1"),
        (c.m_2, 2.992, 0.0, "m_2"),
        (c.m_3, 3.10214, 1e-5, "m_3"),
        (c.m_4, 3.30278, 1e-5, "m_4"),
        (c.q_4, 2.30278, 1e-5, "q_4"),
        (c.M_d, 4.54646, 1e-5, "M_d"),
        (P(c.M_d), 2.13224, 1e-5, "P(M_d)"),
        (c.kl_q_prime, 1.78723, 0.0, "kl_q_prime"),
    ]
    bad = [name for got, want, tol, name in targets
           if abs(got - want) > tol]
    ok = (not bad and 3.1015 <= c.m_3 <= 3.1025
          and abs(c.m_3 - 3.10214) <= 1.5e-5  # not the printed 3.10204
          and elapsed < 1.0)
    _report(2, ok, f"all constants at printed precision, m_3 = {c.m_3:.10f} "
                   f"(printed 3.10214), built in {elapsed * 1e3:.1f} ms"
                   + (f"; off: {bad}" if bad else ""))


def test_criterion_3_residuals_along_every_branch():
    worst_res = 0.0
    worst_gap = math.inf
    ok = True
    for b in branches():
        for i in range(100):
            m = b.lo + (b.hi - b.lo) * i / 99
            r = r_of_m(m)
            if r is None:
                ok = False
                continue
            if b.form == PLAIN:
                res = pi_eval(b.defining_seq(m), r) - (m - 1)
            else:
                res = pi_complement(b.defining_seq(m), m, r) - 1
            worst_res = max(worst_res, abs(res))
            worst_gap = min(worst_gap, min(r - P(m), R(m) - r))
            if abs(res) >= 1e-9 or not (P(m) - 1e-9 <= r < R(m)):
                ok = False
    _report(3, ok, f"400 points, max |pi residual| {worst_res:.2e}, "
                   f"min curve margin {worst_gap:.2e}")


def test_criterion_4_block_automata():
    seven = build_safety_automaton(SEVEN_BLOCKS)
    eight = build_safety_automaton(SEVEN_BLOCKS + (EIGHTH_BLOCK,))
    g7, g8 = classify_growth(seven), classify_growth(eight)
    r7, r8 = growth_rate(seven), growth_rate(eight)
    ok = (seven.transitions == NINE_STATE_TABLE and seven.n_states == 9
          and eight.transitions == SEVEN_STATE_TABLE and eight.n_states == 7
          and g7.kind is GrowthKind.UNCOUNTABLE
          and g8.kind is GrowthKind.COUNTABLY_INFINITE
          and r7 > 1.05 and abs(r8 - 1.0) < 1e-6)
    _report(4, ok, f"9-state rate {r7:.7f} ({g7.kind.value}), "
                   f"7-state rate {r8:.7f} ({g8.kind.value})")


def test_criterion_5_forbidden_block_scan():
    r3 = r_of_m(3.0)
    found = tuple(w.text() for w in scan_forbidden(3.0, r3, 7))
    ok = found == SEVEN_BLOCKS
    _report(5, ok, f"at q={r3:.10f}: {' '.join(found)}")


def test_criterion_6_family_certificates():
    ok = True
    parts = []
    for texts, m, q in CERTIFIED:
        at_q = certify_family(texts, m, q)
        below = certify_family(texts, m, r_of_m(m) - 0.01)
        ok = ok and at_q and not below
        parts.append(f"m={m}: {at_q}/{below}")
    _report(6, ok, "certified at stated q / spuriously below threshold: "
            + "; ".join(parts))


def test_criterion_7_counts_match_brute_force():
    rng = random.Random(20240814)
    checked = 0
    ok = True
    for _ in range(50):
        blocks = {"".join(rng.choice("1m") for _ in range(rng.randrange(1, 6)))
                  for _ in range(rng.randrange(1, 5))}
        a = build_safety_automaton(blocks)
        for n in (0, 1, 3, 6, 10):
            if count_words(a, n) != oracle_count(blocks, n):
                ok = False
            checked += 1
    _report(7, ok, f"{checked} (blocks, n) pairs against the brute-force count")


def test_criterion_8_sign_relations_over_the_grid():
    checks = appendix_sign_suite()  # 200-point default grid
    failures = sum(not passed for _, passed in checks)
    crossovers = locate_crossovers()
    ok = not failures and all(passed for _, _, passed in crossovers)
    _report(8, ok, f"{len(checks)} sign checks, {failures} failures, "
                   f"{len(crossovers)} crossovers located within 1e-6")


def test_criterion_9_alternating_binary_flip_at_the_golden_ratio():
    phi = (1 + math.sqrt(5)) / 2
    seq = parse_seq("(10)^w", Alphabet.from_digits([0, 1]))
    ok = True
    tested = 0
    k = 0
    while True:
        q = 1.01 + 0.001 * k
        k += 1
        if q > 2.0 + 1e-12:
            break
        if abs(q - phi) < 1e-3:
            continue
        kind = check_univoque_general(seq, q).kind
        want = (VerdictKind.PROVEN_NOT_UNIQUE if q < phi
                else VerdictKind.PROVEN_UNIQUE)
        if kind is not want:
            ok = False
        tested += 1
    _report(9, ok, f"{tested} grid points, verdict flips at phi +/- 0.001")
