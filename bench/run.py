"""Benchmark of univoque: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One caller runs whole rounds
of operations until S seconds have passed, checking every output
against the independent computations in ``oracle.py`` between rounds,
outside the timed region.  Cold starts of the package (a fresh
interpreter importing it and finishing its lazy set-up) are spread over
the run; peak memory is taken in a fresh process as well
(``memprobe.py``), apart from the benchmark's own bookkeeping.

The host this was tuned on switches between a fast and a slow CPU
state every few seconds (a factor of about 1.5), so a run's median
flips between the two.  The timings are therefore taken in the slow
state, the steadier of the two: ``ops_per_s`` is the 10th percentile
over rounds of operations per second of busy time, and
``latency_p90_ms`` the 90th percentile of all operation times.
``setup_s`` is the median over the cold starts of the CPU time their
main thread spends (see ``coldstart.py`` for why CPU time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false, and
the exit status 1, when any operation raised or failed its check (or,
on ``block_scan``, the seven published blocks did not come out).  The
metrics are the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics, from a run
that repeats every round with spans recorded (by ``spans.py``; written
to ``.bench_out/trace-<workload>-<seed>.json``).
"""

from __future__ import annotations

import argparse
import array
import json
import math
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import oracle
import workloads
from spans import OP, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

COLD_STARTS = 15       # per run; setup_s is their median
MIN_OPS = 100          # so that p90 has at least ten samples beyond it
SHOWN_FAILURES = 5

CONFIG = ROOT / "BENCHMARK.json"   # metric names and units


def load_univoque():
    init = SRC / "univoque" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import univoque
    import univoque.cli
    if Path(univoque.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: univoque imported from {univoque.__file__}, not {SRC}")
    return types.SimpleNamespace(
        sequences=univoque.sequences, uniqueness=univoque.uniqueness,
        critical=univoque.critical, automata=univoque.automata, cli=univoque.cli)


class ColdStarts:
    """Runs ``coldstart.py`` in fresh interpreters, spread over the run."""

    def __init__(self, importtime: bool):
        self.importtime = importtime
        self.samples: list[dict] = []
        self._once()                      # untimed: writes bytecode caches

    def _once(self) -> dict:
        cmd = [sys.executable, *(["-X", "importtime"] if self.importtime else []),
               str(HERE / "coldstart.py"), str(SRC)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["file"]).resolve() != (SRC / "univoque" / "__init__.py").resolve():
            raise SystemExit(f"error: cold start imported {sample['file']}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[2].strip() in ("numpy", "univoque"):
                sample[parts[2].strip() + "_us"] = int(parts[1])
        return sample

    def due(self, fraction: float) -> None:
        """Take the samples due by this fraction of the run."""
        while len(self.samples) < min(COLD_STARTS, math.ceil(fraction * COLD_STARTS)):
            self.samples.append(self._once())

    def median(self, key: str) -> float:
        return statistics.median(s.get(key, 0) for s in self.samples)


class Phase:
    """Timings, checks and failure counts of the rounds run so far."""

    def __init__(self):
        self.latencies = array.array("d")
        self.round_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0

    def round(self, workload, seed, index, op):
        """Run round ``index`` through ``op``, then check every output."""
        inputs = workload.make_round(seed, index)
        outputs, busy = [], 0.0
        for x in inputs:
            t0 = time.perf_counter()
            try:
                out = op(x)
            except Exception as exc:          # the operation failed
                out = exc
            t1 = time.perf_counter()
            self.latencies.append(t1 - t0)
            busy += t1 - t0
            outputs.append(out)
        self.round_rates.append(len(inputs) / busy)
        self.busy += busy
        for x, out in zip(inputs, outputs):
            bad = ([f"raised {out!r}"] if isinstance(out, Exception)
                   else workload.check(x, out))
            if bad:
                self.failed += 1
                if self.failed <= SHOWN_FAILURES:
                    print(f"FAILED {workload.name} {x!r}: {'; '.join(bad[:3])}",
                          file=sys.stderr)
        self.attempted += len(inputs)
        return inputs, outputs

    @property
    def ops_per_s(self) -> float:
        """Operations per second of busy time, 10th percentile over rounds."""
        return statistics.quantiles(self.round_rates, n=10)[0]


def run_for(seconds, step, cold) -> None:
    """Call step(0), step(1), ... until ``seconds`` have passed and at
    least MIN_OPS operations ran; cold starts are taken along the way."""
    start = time.perf_counter()
    k = 0
    while True:
        attempted = step(k)
        k += 1
        elapsed = time.perf_counter() - start
        cold.due(min(elapsed / seconds, 1.0))
        if elapsed >= seconds and attempted >= MIN_OPS:
            return


def seven_blocks_ok(u) -> bool:
    """(3, r(3)) at depth 7 gives the seven published blocks."""
    r3 = oracle.window_root(3.0)
    found = tuple(w.text() for w in u.uniqueness.scan_forbidden(3.0, r3, 7))
    if found != oracle.SEVEN_BLOCKS:
        print(f"FAILED seven published blocks: got {found}", file=sys.stderr)
        return False
    return True


def end_to_end(workload, seed, seconds) -> tuple[dict, Phase]:
    cold = ColdStarts(importtime=False)
    phase = Phase()

    def step(k):
        phase.round(workload, seed, k, workload.run)
        return phase.attempted

    run_for(seconds, step, cold)
    probe = subprocess.run([sys.executable, str(HERE / "memprobe.py"), workload.name, str(seed)],
                           capture_output=True, text=True, timeout=120, check=True)
    values = {
        "setup_s": cold.median("setup_s"),
        "ops_per_s": phase.ops_per_s,
        "latency_p90_ms": statistics.quantiles(phase.latencies, n=10)[8] * 1e3,
        "peak_rss_mb": int(probe.stdout.split()[-1]) / 1024.0,
    }
    return values, phase


def per_layer(workload, seed, seconds) -> tuple[dict, list[Phase]]:
    """Each round runs twice, untraced and then traced, so both see the
    same inputs and the same spells of host speed; the drop in
    operations per busy second between them is the tracing overhead."""

    cold = ColdStarts(importtime=True)
    tracer = Tracer()
    traced_op = tracer.wrap(OP, workload.run)

    def op(x):
        tracer.op_id += 1
        return traced_op(x)

    plain, traced = Phase(), Phase()
    first: dict = {}

    def step(k):
        plain.round(workload, seed, k, workload.run)
        tracer.recording = k == 0
        tracer.install()
        try:
            inputs, outputs = traced.round(workload, seed, k, op)
        finally:
            tracer.uninstall()
        if k == 0:
            first.update(tracer.snapshot(), ops=len(inputs), facts={})
            for x, out in zip(inputs, outputs):
                for key, v in workload.facts(x, out).items():
                    first["facts"][key] = first["facts"].get(key, 0) + v
        return traced.attempted

    run_for(seconds, step, cold)

    n_ops = traced.attempted
    self_ns = dict(zip(tracer.names, tracer.self_ns))
    calls, nested, n0 = first["calls"], first["nested"], first["ops"]

    def self_ms(name):
        return self_ns[name] / n_ops / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    solve, pi = "critical.solve_pi_root", "sequences.pi_eval"
    v_check, g_check = "uniqueness.check_v_membership", "uniqueness.check_univoque_general"
    values = {
        "import.univoque_ms": cold.median("univoque_us") / 1e3,
        "import.numpy_ms": cold.median("numpy_us") / 1e3,
        "critical.compute_constants.cold_ms": cold.median("constants_s") * 1e3,
        "critical.r_of_m.self_ms": self_ms("critical.r_of_m"),
        "critical.solve_pi_root.calls": calls[solve] / n0,
        "critical.solve_pi_root.self_ms": self_ms(solve),
        "critical.pi_eval_per_solve": ratio(nested[(solve, pi)], calls[solve]),
        "cli.curve_rows.self_ms": self_ms("cli.curve_rows"),
        "cli.to_csv.self_ms": self_ms("cli.to_csv"),
        "sequences.pi_eval.calls": calls[pi] / n0,
        "sequences.pi_eval.self_ms": self_ms(pi),
        "sequences.parse_seq.self_ms": self_ms("sequences.parse_seq"),
        "uniqueness.scan_forbidden.self_ms": self_ms("uniqueness.scan_forbidden"),
        "uniqueness.is_forbidden_block.calls":
            calls["uniqueness.is_forbidden_block"] / n0,
        "uniqueness.scan_forbidden.blocks": first["facts"].get("blocks", 0) / n0,
        "uniqueness.blocks_per_forbidden_test":
            ratio(first["facts"].get("blocks", 0), calls["uniqueness.is_forbidden_block"]),
        "uniqueness.check_v_membership.self_ms": self_ms(v_check),
        "uniqueness.check_univoque_general.self_ms": self_ms(g_check),
        "uniqueness.pi_eval_per_verdict":
            ratio(nested[(v_check, pi)] + nested[(g_check, pi)],
                  calls[v_check] + calls[g_check]),
        "automata.build_safety_automaton.self_ms": self_ms("automata.build_safety_automaton"),
        "automata.classify_growth.self_ms": self_ms("automata.classify_growth"),
        "automata.growth_rate.self_ms": self_ms("automata.growth_rate"),
        "automata.count_words.self_ms": self_ms("automata.count_words"),
        "automata.states": first["facts"].get("states", 0) / n0,
        "trace.overhead_pct": 100.0 * (1.0 - plain.busy / traced.busy),
    }
    OUT_DIR.mkdir(exist_ok=True)
    dump = tracer.dump()
    dump.update(workload=workload.name, seed=seed, metrics=values,
                note="spans of the first traced round; metrics as printed")
    with open(OUT_DIR / f"trace-{workload.name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return values, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    u = load_univoque()
    workload = workloads.WORKLOADS[args.workload](u)
    correct = args.workload != "block_scan" or seven_blocks_ok(u)
    if args.trace:
        values, phases = per_layer(workload, args.seed, args.seconds)
    else:
        values, phase = end_to_end(workload, args.seed, args.seconds)
        phases = [phase]
    failed = sum(p.failed for p in phases)
    correct = correct and failed == 0
    listed = json.loads(CONFIG.read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
