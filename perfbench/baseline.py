"""Run every workload over several seeds and record each metric's quartiles.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 101] [--out FILE]

Reads the command, run length, workloads and bounds from BENCHMARK.json,
runs each workload untraced once per seed (seeds first-seed, first-seed+1,
...), and writes the median, quartiles and spread (interquartile range over
median) of every end-to-end metric, with the commit, Python version and
core count, to FILE (default ``perfbench/baseline.json``).  It prints one
line per metric and exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"commit": commit(), "python": platform.python_version(),
              "cores": os.cpu_count(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(spec["command"] + [
                "--workload", w["name"], "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            summary[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "values": v}
            print(f"{w['name']:<10} {m['name']:<12} median {median:12.5f} {m['unit']:<5} "
                  f"q1 {q1:12.5f}  q3 {q3:12.5f}  spread {spread:.4f} (bound {m['bound']})",
                  flush=True)
        record["workloads"][w["name"]] = summary
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
