"""The consistency suites behind ``univoque selftest``: sign relations,
r(2), the solved constants, branch residuals, the seven published
blocks, the forbidden-block scan and block families.  Each suite checks
a result against an independent route to it.  Only the ``selftest``
subcommand imports this module.
"""

from __future__ import annotations

import math

from .automata import build_safety_automaton, classify_growth, growth_rate
from .critical import (
    PLAIN,
    WINDOW_PAD,
    P,
    R,
    _residual_fn,
    _ternary_seq,
    bisect_root,
    branches,
    compute_constants,
    r_of_m,
    solve_pi_root,
)
from .sequences import Alphabet, parse_seq, pi_complement, pi_eval
from .uniqueness import certify_family, scan_forbidden

SEVEN_BLOCKS = ("111", "1mmm", "11m11", "11m1m1",
                "1mm1mm", "11m1mm1", "1mm1m1m")
EIGHTH_BLOCK = "1mm1m11mm1"

# BFS-canonical transition tables ('1' then 'm') for the two block sets.
NINE_STATE_TABLE = ((1, 0), (2, 3), (None, 4), (1, 5), (None, 5),
                    (6, None), (2, 7), (8, None), (2, None))
SEVEN_STATE_TABLE = ((1, 0), (2, 3), (None, 4), (1, 5), (None, 5),
                     (6, None), (2, None))


# --- sign relations ---------------------------------------------------------

# 200 evenly spaced values of m over [2, 10]
M_GRID = tuple(2.0 + 8.0 * i / 199 for i in range(200))


def _closed_comp0(m: float) -> float:
    """Root of (m-1)(q-1)^2 = q above 2, the closed form of r on Comp0_full."""
    return (2.0 * m - 1.0 + math.sqrt(4.0 * m - 3.0)) / (2.0 * m - 2.0)


def _closed_left(m: float) -> float:
    """Root of q^2 - (m-1) q - 1 above 1, the closed form of r on Comp10_left."""
    return ((m - 1.0) + math.sqrt((m - 1.0) ** 2 + 4.0)) / 2.0


def _pair_cubic(p: float) -> float:
    """Sign of pi_p((m1)^w) - (m - 1) at p = P(m); it flips at m_d."""
    return p**3 - 2.0 * p**2 - p + 1.0


def _reflected_pair_quartic(p: float) -> float:
    """Sign of the reflected pair residual at p = P(m); it flips at M_d."""
    return -p**4 + 2.0 * p**3 + p**2 - 2.0 * p + 1.0


# A sign relation also holds where either side is within SIGN_ZERO_TOL
# of 0, or m within SIGN_M_TOL of one of its crossings.
SIGN_ZERO_TOL = 1e-9
SIGN_M_TOL = 1e-6


def _sign_ok(lhs: float, rhs: float, m: float, crossings: tuple[float, ...]) -> bool:
    return (min(abs(lhs), abs(rhs)) <= SIGN_ZERO_TOL
            or any(abs(m - c) <= SIGN_M_TOL for c in crossings)
            or (lhs > 0) == (rhs > 0))


def appendix_sign_suite(perturb_p: float = 0.0) -> list[tuple[str, bool]]:
    """(name, passed) for every documented sign relation between pi
    residuals and their polynomial or threshold equivalents over
    M_GRID; ``perturb_p`` offsets the P curve (nonzero must fail)."""
    c = compute_constants()
    Pf = lambda m: P(m) + perturb_p

    def q_spread(center: float) -> tuple[float, ...]:
        qs = (1.3, 2.0, center - 0.08, center + 0.08, 3.5)
        return tuple(q for q in qs if q > 1.01)

    checks: list[tuple[str, bool]] = []

    def add(name, m, lhs, rhs, crossings=()):
        checks.append((name, _sign_ok(lhs, rhs, m, crossings)))

    def add_identity(name, value, tol=1e-12):
        checks.append((name, abs(value) <= tol))

    for m in M_GRID:
        ones = _ternary_seq("1^w", m)
        single_tail = _ternary_seq("m1^w", m)
        pair = _ternary_seq("(m1)^w", m)
        alt = _ternary_seq("(1m)^w", m)
        double_tail = _ternary_seq("mm1^w", m)
        m_pair = _ternary_seq("m(m1)^w", m)
        Pm, Rm = Pf(m), R(m)

        add_identity("P_product_identity", (m - 1.0) * Pm * (Pm - 2.0) - 1.0)
        add_identity("R_gap_identity", (m - 1.0) * (Rm - 2.0) - 1.0)

        for q in q_spread(m):
            add("all_ones_reflection", m,
                pi_complement(ones, m, q) - 1.0, m - q)
        add("all_ones_reflection_at_P", m,
            pi_complement(ones, m, Pm) - 1.0, m - Pm, (1.0 + c.alpha,))

        r0 = _closed_comp0(m)
        for q in q_spread(r0):
            add("single_one_tail_root", m,
                pi_eval(single_tail, q) - (m - 1.0), r0 - q)
        add("single_one_tail_at_R", m,
            pi_eval(single_tail, Rm) - (m - 1.0), -1.0)
        add("single_one_tail_at_P", m,
            pi_eval(single_tail, Pm) - (m - 1.0), (1.0 + c.alpha) - m,
            (1.0 + c.alpha,))

        q97 = (m + math.sqrt(m * m + 4.0 * m * (m - 1.0))) / (2.0 * (m - 1.0))
        for q in q_spread(q97):
            add("pair_rational_numerator", m,
                pi_eval(pair, q) - (m - 1.0),
                (q + 1.0) - (m - 1.0) * (q * q - q - 1.0))
        cubic = _pair_cubic(Pm)
        add("pair_at_P", m,
            pi_eval(pair, Pm) - (m - 1.0), cubic, (c.m_d,))
        add("pair_cubic_vs_m_d", m, cubic, c.m_d - m, (c.m_d,))

        quartic = _reflected_pair_quartic(Pm)
        add("reflected_pair_at_P", m,
            pi_complement(pair, m, Pm) - 1.0, quartic, (c.M_d,))
        add("reflected_quartic_vs_M_d", m, quartic, m - c.M_d, (c.M_d,))

        r912 = _closed_left(m)
        for q in q_spread(r912):
            add("alternating_reflection_root", m,
                pi_complement(alt, m, q) - 1.0, r912 - q)
        if c.m_d - WINDOW_PAD <= m <= c.m_1 + WINDOW_PAD:
            add("alternating_reflection_at_R", m,
                pi_complement(alt, m, Rm) - 1.0, -1.0)
        if m >= c.m_d - WINDOW_PAD:
            add("alternating_reflection_at_P", m,
                pi_complement(alt, m, Pm) - 1.0, 1.0, (c.m_d,))

        for q in q_spread(2.4):
            add("double_m_tail", m,
                pi_eval(double_tail, q) - (m - 1.0),
                1.0 - (m - 1.0) * (q - 2.0 + q ** -2))

        if m > 2.0 + 1e-9:
            add("m_pair_at_base_m_minus_1", m,
                pi_eval(m_pair, m - 1.0) - (m - 1.0), c.m_4 - m, (c.m_4,))
        add("m_pair_at_R", m,
            pi_eval(m_pair, Rm) - (m - 1.0), -1.0)
        add("m_pair_at_P", m,
            pi_eval(m_pair, Pm) - (m - 1.0), c.M_d - m, (c.M_d,))

    return checks


def locate_crossovers(perturb_p: float = 0.0) -> list[tuple[str, float, bool]]:
    """(name, located, passed) for each sign flip, bisected and compared
    with the solved constant; ``located`` is NaN when no flip is found.
    Any nonzero ``perturb_p`` offset of the P curve must move them."""
    c = compute_constants()
    Pf = lambda m: P(m) + perturb_p
    entries = [
        ("single_one_tail_at_P", 1.0 + c.alpha, 2.0, 3.0,
         lambda m: pi_eval(_ternary_seq("m1^w", m), Pf(m)) - (m - 1.0)),
        ("pair_cubic", c.m_d, 2.2, 3.5, lambda m: _pair_cubic(Pf(m))),
        ("reflected_pair_quartic", c.M_d, 3.5, 5.5,
         lambda m: _reflected_pair_quartic(Pf(m))),
        ("m_pair_at_base_m_minus_1", c.m_4, 2.5, 4.2,
         lambda m: pi_eval(_ternary_seq("m(m1)^w", m), m - 1.0) - (m - 1.0)),
    ]
    out = []
    for name, expected, lo, hi, f in entries:
        try:
            located = bisect_root(f, lo, hi)
        except ValueError:
            located = math.nan
        out.append((name, located, abs(located - expected) <= 1e-6))
    return out


# --- suites -----------------------------------------------------------------

def _suite_sign_relations(perturb_p: float):
    checks = appendix_sign_suite(perturb_p=perturb_p)
    failed = sum(not ok for _, ok in checks)
    crossovers = locate_crossovers(perturb_p)
    parts = [f"{name}@{located:.9f}" for name, located, _ in crossovers]
    return [("sign_relations", not failed, f"{len(checks)} checks, {failed} failed"),
            ("crossovers", all(ok for _, _, ok in crossovers), "; ".join(parts))]


def _suite_endpoint_r2():
    golden_sq = (3.0 + math.sqrt(5.0)) / 2.0
    r = r_of_m(2.0)
    solved = solve_pi_root(parse_seq("m1^w", Alphabet.ternary(2)), PLAIN, 2.0)
    poly = bisect_root(lambda q: q * q - 3.0 * q + 1.0, 2.0, 3.0)
    vals = (r, solved, poly, golden_sq)
    ok = max(vals) - min(vals) < 1e-10
    return "endpoint_r2", ok, f"r={r!r} solved={solved!r} poly={poly!r}"


_FROZEN_CONSTANTS = {
    "alpha": 1.3247179572447460,
    "m_d": 2.801937735804838,  # true 2.8019377358048382525; ...383 parses an ulp high
    "M_d": 4.5464554446849952,
    "q_1": 2.3401769582012439,
    "m_1": 2.9128588459980364,
    "m_3": 3.1021409150958155,
    "m_4": 3.3027756377319946,
    "q_4": 2.3027756377319946,
}

# The two printed values of m_3; the suite names the one within 1.5e-5.
_M_3_PRINTED = ("3.10204", "3.10214")


def _suite_constants():
    c = compute_constants()
    bad = [k for k, v in _FROZEN_CONSTANTS.items() if getattr(c, k) != v]
    ok = not bad and 3.1015 <= c.m_3 <= 3.1025
    delta, printed = min((abs(c.m_3 - float(p)), p) for p in _M_3_PRINTED)
    match = (f"{printed} (delta {delta:.2e})" if delta <= 1.5e-5
             else f"neither printed value (computed {c.m_3:.7f})")
    detail = f"m_3={c.m_3:.10f} matches {match}"
    if bad:
        detail += f"; drifted: {','.join(bad)}"
    return "constants", ok, detail


def _suite_branch_residuals():
    points = 25
    worst = 0.0
    notes = []
    for b in branches():
        for i in range(points):
            m = b.lo + (b.hi - b.lo) * i / (points - 1)
            r = r_of_m(m)
            res = _residual_fn(b.defining_seq(m), b.form, m)(r)
            worst = max(worst, abs(res))
            if abs(res) > 1e-10 or not (P(m) - 1e-9 <= r < R(m)):
                notes.append(f"{b.label}: bad r at m={m}")
            if i % 6 == 0:
                alt = solve_pi_root(b.defining_seq(m), b.form, m)
                if abs(alt - r) > 1e-10:
                    notes.append(f"{b.label}: bisection disagrees at m={m}")
    detail = f"max |residual| {worst:.3e}" + ("; " + "; ".join(notes) if notes else "")
    return "branch_residuals", not notes, detail


def _suite_automata():
    seven = build_safety_automaton(SEVEN_BLOCKS)
    eight = build_safety_automaton(SEVEN_BLOCKS + (EIGHTH_BLOCK,))
    g7 = classify_growth(seven)
    g8 = classify_growth(eight)
    rate7 = growth_rate(seven)
    rate8 = growth_rate(eight)
    ok = (seven.transitions == NINE_STATE_TABLE
          and eight.transitions == SEVEN_STATE_TABLE
          and g7.kind.value == "Uncountable"
          and g8.kind.value == "CountablyInfinite"
          and rate7 > 1.05
          and abs(rate8 - 1.0) < 1e-6)
    detail = (f"{seven.n_states}/{eight.n_states} states, "
              f"rates {rate7:.7f}/{rate8:.7f}, "
              f"kinds {g7.kind.value}/{g8.kind.value}")
    return "automata_fixtures", ok, detail


def _suite_forbidden_scan():
    r3 = r_of_m(3.0)
    found = [w.text() for w in scan_forbidden(3.0, r3, 7)]
    ok = tuple(found) == SEVEN_BLOCKS
    return "forbidden_scan", ok, f"q={r3:.10f}: {' '.join(found)}"


_FAMILIES = (
    (("mmmmm1", "mmmmmm1"), 3.0, 2.5),
    (("m111", "m1111"), 2.0, 2.65),
    (("mm1", "mm1m1"), 4.0, 2.25),
)


def _suite_families():
    ok = True
    notes = []
    for texts, m, q in _FAMILIES:
        good = certify_family(texts, m, q)
        below = certify_family(texts, m, r_of_m(m) - 0.01)
        if not good or below:
            ok = False
        notes.append(f"{'+'.join(texts)}@q={q}: {good}/{below}")
    return "family_certificates", ok, "; ".join(notes)


def run_selftest(perturb_p: float = 0.0) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each suite, in a fixed order."""
    return [*_suite_sign_relations(perturb_p), _suite_endpoint_r2(),
            _suite_constants(), _suite_branch_residuals(), _suite_automata(),
            _suite_forbidden_scan(), _suite_families()]
