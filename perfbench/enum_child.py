"""One cold enumeration pass in a fresh interpreter (used by ``run.py``).

    python3 perfbench/enum_child.py [--import-only] [--trace SPANS_FILE]

Imports the library from ``src/``, times ``enumerate_graphs(n)`` for
n = 1..8 in order (each level reuses the one below, as a user's first call
pays it) and prints one JSON line: per-level counts, wall seconds and
speed-corrected seconds (see ``speed.py``), the 8-vertex graph6 list, peak
memory and, when traced, the per-layer metrics.  With ``--import-only`` it
prints only the speed-corrected time of the cold ``import sapforce``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import NOMINAL_NS, SpeedProbe, kernel

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def timed_import() -> float:
    """Seconds of a cold ``import sapforce`` at the kernel's nominal speed,
    calibrated by kernel runs just before and after (too short for the
    periodic probe)."""
    costs = []

    def calibrate() -> None:
        for _ in range(5):
            t0 = time.perf_counter_ns()
            kernel()
            costs.append(time.perf_counter_ns() - t0)

    calibrate()
    t0 = time.perf_counter_ns()
    importlib.import_module("sapforce")
    t1 = time.perf_counter_ns()
    calibrate()
    return (t1 - t0) / 1e9 * NOMINAL_NS / statistics.median(costs)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace", type=Path, metavar="SPANS_FILE")
    args = parser.parse_args()
    if args.import_only:
        print(json.dumps({"import_s": timed_import()}))
        return 0
    import sapforce
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    stamps, graphs = [], []
    with SpeedProbe() as probe:
        for n in range(1, 9):
            sid = tracer.begin_op(n) if tracer else 0
            t0 = time.perf_counter_ns()
            graphs = list(sapforce.enumerate_graphs(n))
            stamps.append((n, len(graphs), t0, time.perf_counter_ns()))
            if tracer:
                tracer.end_op(sid)
    levels = [{"n": n, "count": count, "s": probe.work_s(t0, t1),
               "ref_s": probe.reference_s(t0, t1)} for n, count, t0, t1 in stamps]
    out = {"levels": levels, "classes8": [g.to_graph6() for g in graphs],
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary(classes=sum(lv["count"] for lv in levels),
                                       seconds_of=probe.reference_s)
        out["spans"] = len(tracer.end)
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
