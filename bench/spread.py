"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 bench/spread.py --workload cc-sweep --runs 10 [--first-seed 100]

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...), one run
at a time, and prints for every end-to-end metric of BENCHMARK.json the
median of the runs and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of that median, next to the
metric's bound and a third of it. Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: exit {out.returncode}, "
                      f"correct {result['correct']}, failed {result['failed']}")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, json.dumps({k: round(v[-1], 6) for k, v in values.items()}),
                  flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            steady = share < m["bound"] / 3
            if m["name"] != "setup_s":
                ok = ok and steady
            print(f"spread {workload} {m['name']} median={statistics.median(vals):.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} iqr/median={share:.4f} "
                  f"bound={m['bound']} {'steady' if steady else 'NOT STEADY'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
