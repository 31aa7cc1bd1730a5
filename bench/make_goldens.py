"""Regenerate goldens.json from the library as it stands.

    python3 bench/make_goldens.py

Runs every job of every workload in process for two seeds, requires the
label-level content of each report to agree between them, and writes its
SHA-256 per job.  Run it only when a change is meant to alter reports.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hyperkernel import cli, corpus, relations  # noqa: E402
from hyperkernel.hypio import partition_labels  # noqa: E402

SEEDS = (0, 1)


def main() -> int:
    for name, classes in checks.GAMMA_CLASSES.items():
        H = corpus.fixtures()[name]
        if partition_labels(H.names, relations.gamma(H)) != sorted(classes):
            raise SystemExit(f"GAMMA_CLASSES[{name!r}] differs from gamma")
    goldens = {}
    for wl_name in workloads.WORKLOADS:
        digests = {}
        for seed in SEEDS:
            wl = workloads.build(wl_name, seed, ROOT, BENCH / "out" / f"goldens-{seed}")
            for job in wl.jobs:
                if job.ref is not None:
                    continue
                outcome = run.run_inprocess(cli, job.argv)
                if outcome.rc != job.expect or outcome.exc is not None:
                    raise SystemExit(f"{job.id}: exit {outcome.rc} {outcome.exc!r} {outcome.stderr}")
                digest = checks.digest(checks.canonical(job.argv, outcome.stdout))
                if digests.setdefault(job.id, digest) != digest:
                    raise SystemExit(f"{job.id}: report depends on the seed")
        goldens.update(digests)
    checks.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {checks.GOLDENS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
