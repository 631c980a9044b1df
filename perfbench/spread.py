#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload (or the named ones) once per seed and prints, per
metric, the median and the interquartile range as a share of the median,
next to the bound BENCHMARK.json fixes for it. Run from the repository
root:

    python3 perfbench/spread.py --runs 10 [--workloads vo-churn] [--seed-base 100]
"""

import argparse
import json
import statistics
import subprocess
import sys

UNGATED = {"throughput_ops_s": "ops/s", "reference_ops_s": "ops/s"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        values, units = {}, {}
        for i in range(args.runs):
            seed = args.seed_base + i
            out = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            # Figures the run prints but does not gate.
            for line in out.stdout.splitlines():
                fields = line.split()
                if len(fields) == 2 and fields[0] in UNGATED:
                    values.setdefault(fields[0], []).append(float(fields[1]))
                    units[fields[0]] = UNGATED[fields[0]]
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:<28} median {med:>14.4f} {units[name]:<6} iqr/median {spread:7.4f}{note}")
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
