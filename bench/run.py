"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 28 --trace 0

Run from the repository root.  The benchmark imports the library from
src/ of the same checkout.  With --trace 0 it prints every end-to-end
metric of BENCHMARK.json; with --trace 1 it alternates untraced and traced
passes and prints every per-layer metric.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable report.  README.md documents
the workloads and the metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 15
PROBE_LIMIT_S = 1.0
STARTUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 60
IMPORT_CLI = "import hyperkernel.cli"

# Units of the metrics printed in the report but not gated by BENCHMARK.json.
REPORT_UNITS = {"cold_job_ms": "ms", "cold_job_p90_ms": "ms", "setup_wall_s": "s",
                "batch_wall_s": "s", "host_scale": "ratio"}


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    exc: BaseException | None = None


class ProbeTimeout(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_inprocess(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as e:
        exc = RuntimeError(f"usage error, exit {e.code}")
    except Exception as e:  # a job's crash is a recorded failure, not the run's
        exc = e
    return Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0, exc)


def run_cold(argv) -> Outcome:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperkernel.cli", *argv],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        return Outcome(None, "", "", time.perf_counter() - t0, e)
    seconds = time.perf_counter() - t0
    exc = None
    if proc.returncode not in (0, 1, 2):
        exc = RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return Outcome(proc.returncode, proc.stdout, proc.stderr, seconds, exc)


def _alarm(signum, frame):
    raise ProbeTimeout()


def run_probe(cli, argv) -> Outcome:
    """One in-process job stopped after PROBE_LIMIT_S seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, PROBE_LIMIT_S)
        try:
            outcome = run_inprocess(cli, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ProbeTimeout as e:
        outcome = Outcome(None, "", "", time.perf_counter() - t0, e)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcome


def _subprocess_ms(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                   check=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1000


def startup_ms() -> tuple[float, float]:
    """Medians of a bare interpreter start and of a fresh CLI import."""
    bare, imports = [], []
    code = f"import time; t = time.perf_counter(); {IMPORT_CLI}; print((time.perf_counter() - t) * 1000)"
    for _ in range(STARTUP_SAMPLES):
        bare.append(_subprocess_ms("pass"))
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                             check=True, capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT_S)
        imports.append(float(out.stdout))
    return statistics.median(bare), statistics.median(imports)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def median_pass(samples: dict[str, list[float]]) -> float:
    """Seconds of one pass with every job at its median time over the passes."""
    return sum(statistics.median(times) for times in samples.values())


class Run:
    """One workload run: set-up, timed passes, checks, probes, metrics."""

    def __init__(self, args, cli, workloads, checks):
        self.args = args
        self.cli = cli
        self.workloads = workloads
        self.checks = checks
        self.workdir = OUT / args.workload
        self.cold = args.workload == "cold"
        self.checker = checks.Checker(checks.load_goldens())
        self.order_rng = random.Random(f"{args.seed}:order")
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: dict[tuple, str] = {}
        # calibrate.sample() before every set-up and every timed job.
        self.host_samples: list[float] = []
        # The cached original, so a cold job can clear it while traced.
        self.fixtures = cli.corpus_mod.fixtures

    def setup(self) -> tuple[float, float]:
        """Median wall seconds over SETUP_REPEATS of one full set-up, and
        the host_scale measured next to them.

        A set-up is a fresh interpreter importing the CLI, a build of the
        workload's inputs (tables, files, job list) and one warm-up job.
        """
        times, host = [], []
        for _ in range(SETUP_REPEATS):
            host.append(calibrate.sample())
            start = _subprocess_ms(IMPORT_CLI) / 1000
            host.append(calibrate.sample())
            t0 = time.perf_counter()
            self.wl = self.workloads.build(self.args.workload, self.args.seed, ROOT, self.workdir)
            warm = self.wl.jobs[0]
            self.evaluate(warm, self.runner(False)(warm.argv))
            times.append(start + time.perf_counter() - t0)
        self.host_samples += host
        return statistics.median(times), calibrate.scale(host)

    def runner(self, in_process: bool):
        if self.cold and not in_process:
            return run_cold
        return lambda argv: run_inprocess(self.cli, argv)

    def ref_stdout(self, argv) -> str | None:
        if argv not in self.refs:
            self.refs[argv] = run_inprocess(self.cli, argv).stdout
        return self.refs[argv]

    def evaluate(self, job, outcome: Outcome) -> str | None:
        """Failure reason, or None when the job did what it must."""
        self.attempted += 1
        reason = None
        if outcome.exc is not None:
            reason = f"raised {outcome.exc!r}"
        elif outcome.rc not in (0, 2) or (outcome.rc != job.expect and job.expect == 0):
            reason = f"exit {outcome.rc}, expected {job.expect}: {outcome.stderr.strip()}"
        elif outcome.rc == 0:
            ref = self.ref_stdout(job.ref) if job.ref is not None else None
            try:
                self.checker.check(job, outcome.stdout, ref)
            except self.checks.CheckFailed as e:
                reason = str(e)
        if reason is not None:
            self.failures.append(f"{job.id}: {reason}")
        return reason

    def one_pass(self, runner, samples: dict, layout: int, tracer=None, wall=None) -> float:
        """Run every timed job once in a seeded order; the pass's seconds.

        The tables are first rewritten in the element order of `layout`.
        Each job's calibrated seconds are appended to samples[job.id], and
        its wall seconds to wall[job.id] when `wall` is given.  The pass's
        own calibrate.sample() times give its host_scale, so a load shift
        between passes moves the figures less.  Outputs are checked
        after the pass, outside the timed region.
        """
        self.workloads.layout(self.args.workload, self.args.seed, layout, self.workdir)
        jobs = list(self.wl.jobs)
        self.order_rng.shuffle(jobs)
        done, host = [], []
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{layout}:{job.id}"
            if self.cold:
                # Each cold job is a fresh process that builds the fixtures.
                self.fixtures.cache_clear()
            # Garbage left by the previous job is not this job's cost.
            gc.collect()
            host.append(calibrate.sample())
            done.append((job, runner(job.argv)))
        self.host_samples += host
        scale = calibrate.scale(host)
        for job, outcome in done:
            self.evaluate(job, outcome)
            samples.setdefault(job.id, []).append(outcome.seconds * scale)
            if wall is not None:
                wall.setdefault(job.id, []).append(outcome.seconds)
        return sum(outcome.seconds for _, outcome in done)

    def passes(self) -> tuple[dict, dict]:
        """Untraced passes until --seconds is used up, at least one.

        Returns the calibrated and the wall samples.
        """
        samples: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        deadline = time.perf_counter() + self.args.seconds
        runner = self.runner(False)
        index = 0
        while True:
            last = self.one_pass(runner, samples, index, wall=wall)
            index += 1
            if time.perf_counter() + last > deadline:
                return samples, wall

    def traced_passes(self, tracer) -> tuple[dict, dict, dict, int]:
        """Alternate untraced and traced passes on the same layout.

        At least one of each; returns the untraced calibrated and wall
        samples, the traced calibrated samples and the number of traced
        passes.
        """
        plain: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        traced: dict[str, list[float]] = {}
        deadline = time.perf_counter() + self.args.seconds
        runner = self.runner(True)
        index = 0
        while True:
            last = self.one_pass(runner, plain, index, wall=wall)
            tracer.install()
            try:
                last += self.one_pass(runner, traced, index, tracer)
            finally:
                tracer.uninstall()
            index += 1
            if time.perf_counter() + last > deadline:
                return plain, wall, traced, index

    def probes(self) -> list[dict]:
        rows = []
        for job in self.wl.probes:
            outcome = run_probe(self.cli, job.argv)
            timed_out = isinstance(outcome.exc, ProbeTimeout)
            if timed_out:
                self.attempted += 1
                reason = None
            else:
                reason = self.evaluate(job, outcome)
            rows.append({
                "probe": job.id,
                "n": job.n,
                "exit": outcome.rc,
                "seconds": round(outcome.seconds, 4),
                "done": outcome.rc == 0 and reason is None,
                "message": (f"timeout after {PROBE_LIMIT_S} s" if timed_out
                            else reason or outcome.stderr.strip()),
            })
        return rows


def _environment(args, hyperkernel) -> dict:
    env = {
        "python": platform.python_version(),
        "backend": hyperkernel.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    if hyperkernel.BACKEND == "pure":
        env["backend_note"] = "pure Python kernels: the compiled extension is not built"
    return env


def _per_layer(tracer, passes: int, overhead: float, extra: dict) -> dict:
    calls, self_s = tracer.totals()
    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = calls[name] / passes
        m[f"{name}.self_s"] = self_s[name] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("kernels.assoc_witness", "relations.beta"):
        m[f"{name}.per_table"] = ratio(calls[name], len(tracer.tables.get(name, ())))
    counts = tracer.counts
    m["kernels.census.sets"] = counts.get("kernels.census.sets", 0) / passes
    m["kernels.sr_check.accept_ratio"] = ratio(counts.get("kernels.sr_check.accepted", 0),
                                               calls["kernels.sr_check"])
    m["quotients.scan.accept_ratio"] = ratio(counts.get("quotients.scan.found", 0),
                                             counts.get("quotients.scan.tested", 0))
    m["trace.overhead_ratio"] = overhead
    m.update(extra)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperkernel" / "__init__.py").is_file():
        print(f"bench: no hyperkernel sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import hyperkernel
    from hyperkernel import cli

    if Path(hyperkernel.__file__).resolve().parent != SRC / "hyperkernel":
        print(f"bench: imported hyperkernel from {hyperkernel.__file__}", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args, cli, workloads, checks)
    setup_wall_s, setup_scale = run.setup()
    if args.trace:
        tracer = spans.Tracer()
        samples, wall, traced, passes = run.traced_passes(tracer)
    else:
        samples, wall = run.passes()
        passes = len(next(iter(samples.values())))
    for rung in run.checker.cross_check():
        run.failures.append(f"gamma {rung}: commutator and oracle classes differ")
    probe_rows = run.probes()
    failed = len(run.failures)

    usage = resource.RUSAGE_CHILDREN if run.cold and not args.trace else resource.RUSAGE_SELF
    report = {
        "setup_s": setup_wall_s * setup_scale,
        "batch_s": median_pass(samples),
        "setup_wall_s": setup_wall_s,
        "batch_wall_s": median_pass(wall),
        "host_scale": calibrate.scale(run.host_samples),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "jobs_failed_share": failed / run.attempted,
    }
    if run.wl.probes:
        report["frontier_done"] = sum(row["done"] for row in probe_rows)
    if run.cold and not args.trace:
        pooled = [t for times in wall.values() for t in times]
        report["cold_job_ms"] = statistics.median(pooled) * 1000
        report["cold_job_p90_ms"] = p90(pooled) * 1000
    if args.trace:
        start_ms, import_ms = startup_ms()
        extra = {"cli.import_ms": import_ms, "interp.start_ms": start_ms,
                 "frontier_done": 0, **report}
        report = _per_layer(tracer, passes, median_pass(traced) / median_pass(samples), extra)
        run.workdir.mkdir(parents=True, exist_ok=True)
        tracer.write(run.workdir / "spans.bin")

    metrics = {m["name"]: {"value": report[m["name"]], "unit": m["unit"]} for m in wanted}
    env = _environment(args, hyperkernel)
    n_samples = sum(len(times) for times in samples.values())
    detail = {
        "environment": env,
        "passes": passes,
        "job_seconds": wall,
        "job_calibrated_s": samples,
        "probes": probe_rows,
        "failures": run.failures,
        "metrics": report,
    }
    run.workdir.mkdir(parents=True, exist_ok=True)
    (run.workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {passes} passes of {len(run.wl.jobs)} jobs, "
          f"{n_samples} job samples, {run.attempted} jobs attempted")
    for row in probe_rows:
        print(f"probe {row['probe']:<22} n={row['n']:<3} exit={row['exit']} "
              f"{row['seconds']:.3f} s  {row['message']}")
    for reason in run.failures:
        print(f"FAILED {reason}")
    units = dict(REPORT_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for name, value in report.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
