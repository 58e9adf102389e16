"""The four workloads: seeded inputs, the timed operation, its check.

A workload hands out rounds of operations.  Round i is drawn from its
own generator seeded by (seed, i), so every round brings fresh inputs
(no two curve sweeps share an m value, no two scans the same (m, q))
while a run stays reproducible for its seed.  Inputs inside a round
are stratified, so each round covers the input space the same way.

Operations call univoque through module attributes looked up at call
time, so wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import random

import oracle

ROUND_SIZE = {"curve_sweep": 4, "block_scan": 8,
              "automaton_batch": 16, "verdict_batch": 30}
SCAN_DEPTH = 12
CURVE_STEP = 0.01
CURVE_M_HI = 5.0
COUNT_N = oracle.COUNT_N


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one in each of n equal strata, shuffled."""
    vals = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


class Workload:
    name = ""

    def __init__(self, univoque_modules):
        self.u = univoque_modules

    def make_round(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> list[str]:
        raise NotImplementedError

    def facts(self, x, out) -> dict[str, float]:
        """Per-operation counts read off the output (for the traced run)."""
        return {}


class CurveSweep(Workload):
    """curve_rows over [2 + offset, 5] at step 0.01, each row rendered as CSV."""

    name = "curve_sweep"

    def make_round(self, seed, index):
        rng = round_rng(seed, index)
        # offsets stay clear of the grid so the row count is 300 for all
        return [2.0 + 0.0005 + 0.009 * u for u in _strata(rng, ROUND_SIZE[self.name])]

    def run(self, m_lo):
        rows = self.u.cli.curve_rows(m_lo, CURVE_M_HI, CURVE_STEP)
        return rows, [row.to_csv() for row in rows]

    def check(self, m_lo, out):
        rows, lines = out
        return oracle.check_curve(m_lo, CURVE_M_HI, CURVE_STEP, rows, lines)


def _automaton_output(automata, blocks):
    aut = automata.build_safety_automaton(blocks)
    growth = automata.classify_growth(aut)
    return {"states": aut.n_states, "kind": growth.kind.value,
            "path_count": growth.path_count,
            "rate": automata.growth_rate(aut),
            "count": automata.count_words(aut, COUNT_N)}


def _check_automaton(blocks, out):
    return oracle.check_automaton(blocks, out["states"], out["kind"],
                                  out["path_count"], out["rate"], out["count"])


class BlockScan(Workload):
    """scan_forbidden at a fixed depth, then the automaton of the blocks."""

    name = "block_scan"

    def make_round(self, seed, index):
        rng = round_rng(seed, index)
        n = ROUND_SIZE[self.name]
        windows = oracle.R_WINDOWS
        per_window = n // len(windows)
        out = []
        for w, (_label, lo, hi, _poly) in enumerate(windows):
            for u, v in zip(_strata(rng, per_window), _strata(rng, per_window)):
                m = lo + 1e-3 + (hi - lo - 2e-3) * u
                r = oracle.window_root(m)
                q = 2.0 + (r - 2.0) * max(v, 1e-6)
                out.append((m, q))
        rng.shuffle(out)
        return out

    def run(self, x):
        m, q = x
        blocks = [w.text() for w in self.u.uniqueness.scan_forbidden(m, q, SCAN_DEPTH)]
        out = _automaton_output(self.u.automata, blocks)
        out["blocks"] = blocks
        return out

    def check(self, x, out):
        m, q = x
        return (oracle.check_scan(m, q, SCAN_DEPTH, out["blocks"])
                + _check_automaton(out["blocks"], out))

    def facts(self, x, out):
        return {"blocks": len(out["blocks"]), "states": out["states"]}


class AutomatonBatch(Workload):
    """Safety automaton of a random block set over {1, m}: build,
    classify, growth rate and count_words(., 64)."""

    name = "automaton_batch"

    def make_round(self, seed, index):
        rng = round_rng(seed, index)
        out = []
        for _ in range(ROUND_SIZE[self.name]):
            k = rng.randint(2, 8)
            out.append(["".join(rng.choice("1m") for _ in range(rng.randint(2, 8)))
                        for _ in range(k)])
        return out

    def run(self, blocks):
        return _automaton_output(self.u.automata, blocks)

    def check(self, blocks, out):
        return _check_automaton(blocks, out)

    def facts(self, blocks, out):
        return {"states": out["states"]}


def _render_runs(symbols, chars, rng, after: str = "") -> str:
    """Write symbols with some runs folded into x^k; ``after`` is the
    text that will follow."""
    text, i = [], 0
    while i < len(symbols):
        j = i
        while j < len(symbols) and symbols[j] == symbols[i]:
            j += 1
        run = j - i
        # a count must not run into a following digit character
        following = chars[symbols[j]] if j < len(symbols) else after[:1]
        follows_digit = following.isdigit()
        if run >= 2 and not follows_digit and rng.random() < 0.5:
            text.append(f"{chars[symbols[i]]}^{run}")
        else:
            text.append(chars[symbols[i]] * run)
        i = j
    return "".join(text)


def render(pre, per, chars, rng) -> str:
    body = _render_runs(per, chars, rng)
    tail = f"{body}^w" if len(per) == 1 else f"({body})^w"
    return _render_runs(pre, chars, rng, tail) + tail


VERDICT_FAMILIES = ("zero_free", "binary", "ternary")


class VerdictBatch(Workload):
    """parse_seq on seeded notation, then a uniqueness verdict:
    check_v_membership over {1, m}, or check_univoque_general over
    {0, 1} and over {0, 1, m}."""

    name = "verdict_batch"

    def make_round(self, seed, index):
        rng = round_rng(seed, index)
        n = ROUND_SIZE[self.name] // len(VERDICT_FAMILIES)
        out = []
        for family in VERDICT_FAMILIES:
            for u in _strata(rng, n):
                out.append(self._draw(rng, family, u))
        rng.shuffle(out)
        return out

    def _draw(self, rng, family, u):
        sequences = self.u.sequences
        if family == "binary":
            alphabet = sequences.Alphabet.from_digits((0, 1))
            m, q, symbols = None, 1.2 + 1.0 * u, (0, 1)
        else:
            m = 2.0 + 3.0 * rng.random()
            alphabet = sequences.Alphabet.ternary(m)
            if family == "zero_free":
                q, symbols = 2.0 + (m / (m - 1.0) - 1.0) * max(u, 1e-6), (1, 2)
            else:
                q, symbols = 1.5 + (m - 0.5) * u, (0, 1, 2)
        pre = [rng.choice(symbols) for _ in range(rng.randint(0, 4))]
        per = [rng.choice(symbols) for _ in range(rng.randint(1, 6))]
        text = render(pre, per, alphabet.chars, rng)
        return {"family": family, "alphabet": alphabet, "m": m, "q": q,
                "pre": pre, "per": per, "text": text}

    def run(self, x):
        seq = self.u.sequences.parse_seq(x["text"], x["alphabet"])
        if x["family"] == "zero_free":
            return self.u.uniqueness.check_v_membership(seq, x["m"], x["q"])
        return self.u.uniqueness.check_univoque_general(seq, x["q"])

    def check(self, x, verdict):
        w = verdict.witness
        return oracle.check_verdict(
            x["alphabet"].digits, x["pre"], x["per"], x["q"],
            x["family"] == "zero_free", verdict.kind.value,
            None if w is None else w.slack, w is not None and w.boundary)


WORKLOADS = {cls.name: cls for cls in (CurveSweep, BlockScan, AutomatonBatch, VerdictBatch)}
