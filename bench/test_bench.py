"""Tests of the benchmark itself: every independent check rejects a
deliberately wrong answer, and a short run of each workload is clean.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
from itertools import product
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from univoque import automata, cli, critical, sequences, uniqueness  # noqa: E402

U = types.SimpleNamespace(sequences=sequences, uniqueness=uniqueness,
                          critical=critical, automata=automata, cli=cli)


# --- curve_sweep ------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    wl = workloads.CurveSweep(U)
    m_lo = wl.make_round(3, 0)[0]
    rows, lines = wl.run(m_lo)
    return wl, m_lo, rows, lines


def _with_row(rows, lines, k, **changes):
    rows, lines = list(rows), list(lines)
    rows[k] = dataclasses.replace(rows[k], **changes)
    lines[k] = rows[k].to_csv()
    return rows, lines


def test_curve_check_accepts_program_output(sweep):
    wl, m_lo, rows, lines = sweep
    assert wl.check(m_lo, (rows, lines)) == []


@pytest.mark.parametrize("window", ["Comp0_full", "Comp10_left", "Comp10_mid", "Comp10_right"])
def test_curve_check_rejects_r_shifted_by_1e6(sweep, window):
    wl, m_lo, rows, lines = sweep
    k = next(i for i, r in enumerate(rows) if r.branch == window and i % 3 == 1)
    for shift in (1e-6, -1e-6):
        bad = wl.check(m_lo, _with_row(rows, lines, k, r=rows[k].r + shift))
        assert any("sign change" in b for b in bad)


def test_curve_check_rejects_wrong_rows(sweep):
    wl, m_lo, rows, lines = sweep
    k = 150
    assert wl.check(m_lo, _with_row(rows, lines, k, P=rows[k].P + 1e-9))
    assert wl.check(m_lo, _with_row(rows, lines, k, R=rows[k].R * (1 + 1e-9)))
    off = next(i for i, r in enumerate(rows) if r.r is None and i > 60)
    assert wl.check(m_lo, _with_row(rows, lines, off, r=rows[off].P + 0.01,
                                    branch="Comp10_mid"))
    assert wl.check(m_lo, (rows[:-1], lines[:-1]))
    broken = list(lines)
    broken[k] = broken[k].replace(",", ";", 1)
    assert wl.check(m_lo, (rows, broken))


# --- block_scan ---------------------------------------------------------------

@pytest.fixture(scope="module")
def scan():
    wl = workloads.BlockScan(U)
    # the round's input with the most blocks
    cases = [(x, wl.run(x)) for x in wl.make_round(5, 0)]
    return wl, *max(cases, key=lambda c: len(c[1]["blocks"]))


def test_scan_check_accepts_program_output(scan):
    wl, x, out = scan
    assert len(out["blocks"]) >= 3
    assert wl.check(x, out) == []


def test_scan_check_rejects_dropped_block(scan):
    wl, (m, q), out = scan
    for i in range(len(out["blocks"])):
        blocks = out["blocks"][:i] + out["blocks"][i + 1:]
        assert any("avoids every kept block" in b
                   for b in oracle.check_scan(m, q, workloads.SCAN_DEPTH, blocks))


def test_scan_check_rejects_added_block(scan):
    wl, (m, q), out = scan
    blocks = out["blocks"]
    tb = oracle.TailBounds(m, q)
    # a word that is not forbidden and contains no kept block
    extra = next(w for n in range(3, 9)
                 for w in ("1" + "".join(t) for t in product("1m", repeat=n - 1))
                 if not any(b in w for b in blocks) and tb.word(w[1:]) is False)
    added = sorted(blocks + [extra], key=lambda b: (len(b), b))
    assert any("not forbidden" in b
               for b in oracle.check_scan(m, q, workloads.SCAN_DEPTH, added))
    longer = sorted(blocks + [blocks[0] + "m"], key=lambda b: (len(b), b))
    assert any("contains" in b
               for b in oracle.check_scan(m, q, workloads.SCAN_DEPTH, longer))


def test_scan_check_rejects_reordered_blocks(scan):
    wl, (m, q), out = scan
    assert oracle.check_scan(m, q, workloads.SCAN_DEPTH, out["blocks"][::-1])


def test_seven_published_blocks():
    r3 = oracle.window_root(3.0)
    assert abs(r3 - critical.r_of_m(3.0)) < 1e-11
    found = [w.text() for w in uniqueness.scan_forbidden(3.0, r3, 7)]
    assert tuple(found) == oracle.SEVEN_BLOCKS
    assert oracle.check_scan(3.0, r3, 7, found) == []
    assert oracle.check_scan(3.0, r3, 7, found[:-1])


# --- automaton_batch ------------------------------------------------------------

@pytest.fixture(scope="module")
def automaton_cases():
    wl = workloads.AutomatonBatch(U)
    cases = [(b, wl.run(b)) for i in range(8) for b in wl.make_round(11, i)]
    return wl, {out["kind"]: (b, out) for b, out in cases}


def test_automaton_check_accepts_every_kind(automaton_cases):
    wl, by_kind = automaton_cases
    assert set(by_kind) == {"Empty", "FinitePaths", "CountablyInfinite", "Uncountable"}
    for blocks, out in by_kind.values():
        assert wl.check(blocks, out) == []


@pytest.mark.parametrize("kind", ["FinitePaths", "CountablyInfinite", "Uncountable"])
def test_automaton_check_rejects_count_off_by_one(automaton_cases, kind):
    wl, by_kind = automaton_cases
    blocks, out = by_kind[kind]
    for delta in (1, -1):
        assert any("count_words" in b for b in wl.check(blocks, {**out, "count": out["count"] + delta}))


@pytest.mark.parametrize("kind", ["FinitePaths", "CountablyInfinite", "Uncountable"])
def test_automaton_check_rejects_perturbed_growth_rate(automaton_cases, kind):
    wl, by_kind = automaton_cases
    blocks, out = by_kind[kind]
    for delta in (1e-5, -1e-5):
        assert any("growth rate" in b for b in wl.check(blocks, {**out, "rate": out["rate"] + delta}))


def test_automaton_check_rejects_wrong_kind_and_path_count(automaton_cases):
    wl, by_kind = automaton_cases
    for kind, (blocks, out) in by_kind.items():
        for other in by_kind:
            if other != kind:
                assert wl.check(blocks, {**out, "kind": other})
    blocks, out = by_kind["FinitePaths"]
    assert wl.check(blocks, {**out, "path_count": out["path_count"] + 1})


def test_brute_force_agrees_with_graph_counts():
    lang = oracle.AvoidingLanguage(oracle.SEVEN_BLOCKS)
    counts = lang.counts(12)
    assert [lang.brute_count(n) for n in range(13)] == counts
    aut = automata.build_safety_automaton(oracle.SEVEN_BLOCKS)
    assert counts[12] == automata.count_words(aut, 12)


# --- verdict_batch --------------------------------------------------------------

@pytest.fixture(scope="module")
def verdicts():
    wl = workloads.VerdictBatch(U)
    return wl, [(x, wl.run(x)) for i in range(20) for x in wl.make_round(2, i)]


def test_verdict_check_accepts_and_covers_every_kind(verdicts):
    wl, cases = verdicts
    assert {out.kind.value for _, out in cases} == {"ProvenUnique", "ProvenNotUnique",
                                                    "Inconclusive"}
    assert all(wl.check(x, out) == [] for x, out in cases)


def test_verdict_check_rejects_flipped_verdict(verdicts):
    wl, cases = verdicts
    kinds = list(uniqueness.VerdictKind)
    for x, out in cases:
        if out.witness is not None and out.witness.boundary:
            continue
        for other in kinds:
            if other is not out.kind:
                flipped = uniqueness.Verdict(other, out.witness)
                assert any("verdict" in b for b in wl.check(x, flipped)), x["text"]


def test_verdict_check_rejects_wrong_slack(verdicts):
    wl, cases = verdicts
    x, out = next((x, out) for x, out in cases if out.witness is not None)
    w = dataclasses.replace(out.witness, slack=out.witness.slack + 1e-6)
    assert wl.check(x, uniqueness.Verdict(out.kind, w))


def test_rendered_notation_parses_to_the_drawn_sequence(verdicts):
    for x, _ in verdicts[1]:
        seq = sequences.parse_seq(x["text"], x["alphabet"])
        want = sequences.EPSeq(x["alphabet"], tuple(x["pre"]), tuple(x["per"]))
        assert seq == want, x["text"]


# --- whole runs -------------------------------------------------------------------

def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 100
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "ops_per_s", "latency_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_failed_check_makes_the_run_incorrect(monkeypatch, capsys):
    import run
    monkeypatch.setattr(workloads.VerdictBatch, "check",
                        lambda self, x, out: ["deliberately wrong"])
    status = run.main(["--workload", "verdict_batch", "--seed", "3", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 100


@pytest.mark.parametrize("name, count", [("curve_sweep", "sequences.pi_eval.calls"),
                                         ("block_scan", "uniqueness.is_forbidden_block.calls")])
def test_traced_counts_repeat_for_a_seed(name, count):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = []
    for seconds in ("1", "2"):
        proc = _run("--workload", name, "--seed", "4", "--seconds", seconds, "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in config["per_layer"]}
        values.append(result["metrics"][count]["value"])
    assert values[0] == values[1] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "curve_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
