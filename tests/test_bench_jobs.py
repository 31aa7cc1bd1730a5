"""Every timed job of the benchmark, run once in process on the seed-0
tables and checked against bench/goldens.json.

A library change that alters a golden report, or removes a name the
benchmark builds its tables with, fails here in about a second instead of
only in the two-minute bench/selfcheck.py.  The bench/ modules are
imported as they are, from bench/ put on sys.path.
"""

import contextlib
import io
from pathlib import Path

import pytest

from hyperkernel import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", ["ladder", "lattice", "freeprod", "cold"])
def test_timed_jobs_match_their_goldens(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    # Job arguments name the table files relative to the root passed here.
    monkeypatch.chdir(tmp_path)
    wl = workloads.build(workload, 0, tmp_path, tmp_path / workload)
    checker = checks.Checker(checks.load_goldens())
    assert wl.jobs
    for job in wl.jobs:
        rc, out, err = _run(job.argv)
        assert rc == job.expect, (job.id, err)
        ref = _run(job.ref)[1] if job.ref is not None else None
        try:
            checker.check(job, out, ref)
        except checks.CheckFailed as exc:
            pytest.fail(f"{job.id}: {exc}")
    assert checker.cross_check() == []
