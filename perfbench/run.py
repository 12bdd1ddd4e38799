"""Benchmark of the sapforce library: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--refs DIR]

NAME is ``enumerate``, ``survey``, ``certify``, ``sap_check`` or ``all``
(each workload in turn, each in its own process).  With ``--trace 0`` the
run prints every end-to-end metric; with ``--trace 1`` it spends half the
time untraced and half with every layer boundary traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every op passed its check, 1 when any failed, and 2 when the
library source or the reference files are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("enumerate", "survey", "certify", "sap_check")
REF_FILES = ("classes8.g6", "survey8.txt", "xi7.txt")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", type=Path, default=HERE / "refs",
                        help="directory of reference answers (default: perfbench/refs)")
    return parser.parse_args(argv)


def load_library() -> None:
    """Import ``sapforce`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "sapforce" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import sapforce
    if Path(sapforce.__file__).resolve().parent != (SRC / "sapforce").resolve():
        raise SystemExit(f"perfbench: sapforce imported from {sapforce.__file__}, not {SRC}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so that peak memory and library
    caches stay per workload; prints each one's lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--refs", str(args.refs)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if not lines:
            return max(worst, 2)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [f for f in REF_FILES if not (args.refs / f).is_file()]
    if missing:
        print(f"perfbench: reference files missing in {args.refs}: {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        load_library()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from spans import PER_LAYER
    from workloads import END_TO_END, LATENCY_MIN_SAMPLES, WORKLOADS

    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), args.refs)
    specs = PER_LAYER if args.trace else END_TO_END
    for name, unit, _ in specs:
        print(f"{result.workload:<10} {name:<36} {result.metrics[name]:>16.6f} {unit}")
    failed = sum(n for _, n in result.failures)
    print(f"{result.workload:<10} {'fail_ratio':<36} {failed / result.attempted:>16.6f} "
          f"ratio ({failed}/{result.attempted})")
    for note in result.notes:
        print(f"{result.workload:<10} {note}")
    if not args.trace and args.workload != "enumerate" and result.attempted < LATENCY_MIN_SAMPLES:
        print(f"{result.workload:<10} warning: p99 from fewer than {LATENCY_MIN_SAMPLES} ops")
    for msg, n in result.failures[:10]:
        print(f"perfbench: FAILED ({n} ops) {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
