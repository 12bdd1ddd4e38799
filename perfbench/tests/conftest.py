import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def run_bench(workload: str, refs: Path | None = None, seconds: float = 1, seed: int = 3,
              trace: int = 0, script: Path = BENCH / "run.py") -> tuple[int, dict | None]:
    """Run the benchmark command; returns its exit code and its result line."""
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result
