"""Steadiness mode: run each workload once per seed and report, per metric,
the median, the quartiles and the relative spread (q3 - q1) / median.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20
    python3 perfbench/steady.py --workloads lpe-spectral --seeds 1-5 --trace 1

Runs go one after another in child processes, from the checkout root.
The relative spread of an end-to-end metric must stay within its bound in
BENCHMARK.json; it is what the bounds were set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict[str, dict]:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        table[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median if median else 0.0,
                       "unit": results[0]["metrics"][name]["unit"]}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(one_run(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + json.dumps(results[-1]), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(seeds)} runs of {args.seconds} s, correct={correct}, "
              f"failed shares {shares}")
        print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in summarize(results).items():
            print(f"{name:28} {row['unit']:6} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:8.4f}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
