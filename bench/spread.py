"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py [--seeds 1-10]

Runs ``bench/run.py`` once per workload and seed, one run at a time, for
the workloads and ``run_seconds`` of BENCHMARK.json,
and prints for each metric the median, the quartiles and the spread
(distance between the quartiles as a share of the median) next to the
bound in BENCHMARK.json.  Raw results go to ``.bench_out/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    failed_share: dict[str, set] = {}
    for name in (w["name"] for w in config["workloads"]):
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - t0
            runs.setdefault(name, []).append(result)
            failed_share.setdefault(name, set()).add(result["failed"] / result["attempted"])
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed, correct "
                  f"{result['correct']}", file=sys.stderr)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{int(time.time())}.json").write_text(json.dumps(runs, indent=1))
    print(f"{'workload':16} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(metric)
            flag = "" if bound is None or metric == "setup_s" or spread < bound / 3 else "  <-- over a third of the bound"
            print(f"{name:16} {metric:36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {'' if bound is None else format(bound, '.2f'):>6}{flag}")
        print(f"{name:16} failed shares: {sorted(failed_share[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
