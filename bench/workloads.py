"""Job lists of the four workloads.

A job is one command line for `hyperkernel.cli.main`.  Each workload has
a timed list, run once per pass, and possibly a probe list: jobs that stop
at a cap or budget today, run once per run after the passes, outside the
timed region.  README.md says why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import tables

WORKLOADS = ("ladder", "lattice", "freeprod", "cold")

# conjectures --subs per factor pair; each block is a normal subhypergroup.
PAIR_SUBS = {
    ("h9", "v4"): "e,a;e,a",
    ("h9", "s3"): "e,a;e,r,rr",
    ("h9", "h9"): "e,a;e,a",
}
WORDS_PER_PAIR = 2


@dataclass(frozen=True)
class Job:
    """One command line and what it must do.

    `id` names the job independently of the seed and keys its golden.
    `expect` is the exit code it must return (0, or 2 for a cap or
    budget stop).  `ref` is the same command on the built-in fixtures,
    for jobs whose expected output depends on the seed.  `n` is the
    carrier size a probe reports.
    """

    id: str
    argv: tuple[str, ...]
    expect: int = 0
    ref: tuple[str, ...] | None = None
    n: int = 0


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    probes: tuple[Job, ...]


def _rel(path: Path, root: Path) -> str:
    return str(path.relative_to(root))


def _ladder(paths, root) -> Workload:
    jobs = []
    for rung in tables.RUNGS:
        t = _rel(paths[rung], root)
        jobs += [
            Job(f"check {rung}", ("--json", "check", t)),
            Job(f"beta {rung}", ("--json", "beta", t)),
            Job(f"gamma {rung}", ("--json", "gamma", t)),
            Job(f"gamma-oracle {rung}", ("--json", "gamma", t, "--oracle", "--nmax", "3")),
        ]
        if rung != "h9xs3":
            sub = tables.quotient_sub(rung)
            jobs.append(Job(f"quotient {rung}", ("--json", "quotient", t, "--sub", sub)))
    h9 = _rel(paths["h9"], root)
    for g in ("z2", "z3", "v4", "s3", "h9-quotient"):
        jobs.append(Job(f"product h9 {g}", ("--json", "product", h9, _rel(paths[g], root))))
    probes = (
        Job(
            "quotient h9xs3",
            ("--json", "quotient", _rel(paths["h9xs3"], root), "--sub", tables.quotient_sub("h9xs3")),
            expect=2,
            n=54,
        ),
        Job(
            "product h9xz2 z3",
            ("--json", "product", _rel(paths["h9xz2"], root), _rel(paths["z3"], root)),
            expect=2,
            n=54,
        ),
    )
    return Workload(tuple(jobs), probes)


# Timed lattice jobs: each command of a pair runs on each table of it.
# Each job reads its own file, so the element orders of the jobs of one
# pass are independent.
LATTICE_JOBS = (
    (("subs", "heart", "derived"), ("h9", "h9xz2")),
    (("sr-enum",), ("h9", "h9-quotient", "v4", "s3", "total4")),
)


def _lattice(paths, root) -> Workload:
    jobs = []
    for cmds, names in LATTICE_JOBS:
        for name in names:
            for cmd in cmds:
                jobs.append(Job(f"{cmd} {name}", ("--json", cmd, _rel(paths[f"{cmd}-{name}"], root))))
    probes = []
    for cmds, names in (
        (("subs", "heart", "derived"), ("h9xz3", "h9xv4", "h9xs3", "h9xh9")),
        (("sr-enum",), ("h9xz2", "h9xz3", "h9xv4", "h9xs3", "h9xh9")),
    ):
        for name in names:
            n = tables.base_table(name).n
            for cmd in cmds:
                probes.append(Job(f"{cmd} {name}", ("--json", cmd, _rel(paths[name], root)), expect=2, n=n))
    return Workload(tuple(jobs), tuple(probes))


def draw_word(rng: random.Random, pair: tuple[str, str]) -> str:
    """A reduced word: alternating factors, no identity letters."""
    letters = []
    factor = rng.randrange(2)
    for _ in range(rng.randint(2, 5)):
        H = tables.base_table(pair[factor])
        ident = tables.FACTOR_IDENTITY[pair[factor]]
        label = rng.choice([lab for lab in H.names if lab != ident])
        letters.append(f"{label}@{factor}")
        factor = 1 - factor
    return " ".join(letters)


def _freeprod(paths, root, rng) -> Workload:
    jobs = []
    for pair, subs in PAIR_SUBS.items():
        files = ",".join(_rel(paths[name], root) for name in pair)
        tag = ",".join(pair)
        for max_len in (2, 3, 4):
            jobs.append(
                Job(
                    f"conjectures {tag} {max_len}",
                    ("--json", "freeprod", "--factors", files, "conjectures", "--subs", subs, "--max-len", str(max_len)),
                )
            )
        for k in range(WORDS_PER_PAIR):
            expr = f"{draw_word(rng, pair)} * {draw_word(rng, pair)}"
            jobs.append(
                Job(
                    f"eval {tag} #{k}",
                    ("--json", "freeprod", "--factors", files, "eval", expr),
                    ref=("--json", "freeprod", "--factors", tag, "eval", expr),
                )
            )
            word = draw_word(rng, pair)
            jobs.append(
                Job(
                    f"psi {tag} #{k}",
                    ("--json", "freeprod", "--factors", files, "psi", word),
                    ref=("--json", "freeprod", "--factors", tag, "psi", word),
                )
            )
    return Workload(tuple(jobs), ())


# The command-line examples of the README on the built-in fixtures, in
# text and JSON form, plus two jobs on one small table file.
_COLD_FIXTURE_JOBS = (
    ("check", "h9"),
    ("--json", "beta", "h9"),
    ("gamma", "h9", "--oracle", "--nmax", "4"),
    ("heart", "h9"),
    ("derived", "s3"),
    ("subs", "h9", "--closed", "--normal"),
    ("quotient", "h9", "--sub", "e,a"),
    ("product", "h9", "z2"),
    ("sr-enum", "v4"),
    ("freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"),
    ("freeprod", "--factors", "s3,z4", "psi", "s@0 1@1 s@0"),
    ("freeprod", "--factors", "h9,v4", "conjectures", "--subs", "e,a;e,a", "--max-len", "2"),
)


def _cold(paths, root) -> Workload:
    jobs = [Job("cold " + " ".join(argv), argv) for argv in _COLD_FIXTURE_JOBS]
    t = _rel(paths["h9"], root)
    jobs.append(Job("cold --json beta file:h9", ("--json", "beta", t)))
    jobs.append(Job("cold --json check file:h9", ("--json", "check", t)))
    return Workload(tuple(jobs), ())


def _same(names) -> dict[str, str]:
    return {name: name for name in names}


# File stem -> table name, per workload.
TABLES = {
    "ladder": _same(list(tables.RUNGS) + ["z2", "z3", "v4", "s3", "h9-quotient"]),
    "lattice": _same(tables.RUNGS) | {
        f"{cmd}-{name}": name for cmds, names in LATTICE_JOBS for name in names for cmd in cmds
    },
    "freeprod": _same(["h9", "v4", "s3"]),
    "cold": _same(["h9"]),
}


def layout(name: str, seed: int, index: int, workdir: Path) -> dict[str, Path]:
    """Write the workload's tables in the element order of layout `index`.

    Each pass of a run uses its own layout, so one run times the jobs on
    several element orders; the file paths stay the same.
    """
    return tables.write_tables(TABLES[name], random.Random(f"{seed}:layout:{index}"), workdir)


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write layout 0 of the workload's tables and return its job lists.

    The same seed gives the same tables, words and jobs.
    """
    paths = layout(name, seed, 0, workdir)
    if name == "ladder":
        return _ladder(paths, root)
    if name == "lattice":
        return _lattice(paths, root)
    if name == "freeprod":
        return _freeprod(paths, root, random.Random(f"{seed}:words"))
    return _cold(paths, root)
