"""Reference figures: runs every workload on several seeds and summarizes.

    python3 perfbench/reference.py

Run from the root of a source checkout. For every workload in
BENCHMARK.json it makes one untraced run of BENCHMARK.json's run_seconds
on each of seeds 1-10 and one traced run on seed 1, then prints a
Markdown table per workload: the median and quartiles of every end-to-end
metric with its spread (interquartile range over median), the figures that
only go to standard error, the traced throughput, whether the per-layer
counts repeat in a second traced run of the same seed, and the per-layer
metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("calls/row", "tokens/row", "count")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(1, 11)
SECONDS = BENCHMARK["run_seconds"]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, HERE / "run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    info = {}
    for line in done.stderr.splitlines():
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: {done.stderr}", file=sys.stderr)
    return result, info


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main() -> int:
    print(f"os.cpu_count()={os.cpu_count()}, Python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}; {SECONDS} s per run, seeds "
          f"{SEEDS[0]}-{SEEDS[-1]}\n")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = [run(workload, seed, SECONDS, 0) for seed in SEEDS]
        print(f"### {workload}\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = results[0][0]["metrics"][name]["unit"]
            print(f"| {name} | {unit} | {fmt(med)} | {fmt(q1)} | {fmt(q3)} | "
                  f"{(q3 - q1) / med:.3f} | {bound} |")
        failed = {r["failed"] / r["attempted"] for r, _ in results}
        print(f"\ncorrect in every run: {all(r['correct'] for r, _ in results)}; "
              f"failed share: {sorted(failed)}; attempted per run: "
              f"{[r['attempted'] for r, _ in results]}")
        extra = {k for _, info in results for k in info}
        for key in sorted(extra):
            values = [info[key] for _, info in results if key in info]
            print(f"- {key}: median {fmt(statistics.median(values))}, "
                  f"min {fmt(min(values))}, max {fmt(max(values))}")
        untraced = statistics.median(r["metrics"]["rows_per_s"]["value"] for r, _ in results)
        traced, info = run(workload, SEEDS[0], SECONDS, 1)
        traced_rate = statistics.median(info["traced_rows_per_s"])  # scaled, as untraced
        print(f"- traced rows_per_s {fmt(traced_rate)} vs untraced {fmt(untraced)}: "
              f"tracing overhead {fmt(traced_rate - untraced)} rows/s")
        if "in_vocab_share" in info:
            print(f"- in-vocabulary token share: {info['in_vocab_share']}")
        again, _ = run(workload, SEEDS[0], SECONDS, 1)
        counts = [name for name, m in traced["metrics"].items() if m["unit"] in COUNT_UNITS]
        repeated = all(traced["metrics"][n] == again["metrics"][n] for n in counts)
        print(f"- counts repeat exactly in a second traced run: {repeated}")
        print("\n| per-layer metric | unit | traced value |\n|---|---|---|")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"| {name} | {metric['unit']} | {fmt(metric['value'])} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
