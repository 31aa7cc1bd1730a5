"""Fast self-check of the benchmark: seed 0, one short pass per workload.

    python3 bench/selfcheck.py

For every workload it makes one untraced run and two traced runs, each
with --seconds 0 (a single pass, or one untraced and one traced pass),
and fails unless

- every job succeeded and matched its golden (correct, failed == 0,
  jobs_failed_share == 0);
- every count-type per-layer metric (*.calls, *.per_table,
  kernels.census.sets, *.accept_ratio) is identical in the two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

COUNT_SUFFIXES = (".calls", ".per_table", ".accept_ratio")
COUNT_NAMES = ("kernels.census.sets",)


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """Result line and full metric report of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_file = BENCH / "out" / workload / f"result-seed0-trace{trace}.json"
    detail = json.loads(detail_file.read_text(encoding="utf-8"))
    if not result["correct"] or result["failed"] or detail["metrics"]["jobs_failed_share"]:
        raise SystemExit(f"{workload} trace {trace}: failed jobs {detail['failures']}")
    return result, detail["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        run(workload, 0)
        _, first = run(workload, 1)
        _, second = run(workload, 1)
        counts = sorted(name for name in first if is_count(name))
        differ = [name for name in counts if first[name] != second.get(name)]
        if differ:
            raise SystemExit(f"{workload}: counts differ between traced runs: {differ}")
        print(f"{workload}: ok, {len(counts)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
