"""Output checks that hold for any seed.

The seed permutes element order, which moves everything the reports
derive from index order: the order of list entries, least-index
representatives and the coset names built from them.  `canonical` maps a
report to its label-level content, which does not depend on element
order; goldens.json pins the SHA-256 of that content per job.  Where the
library has an independent route, the check uses it as well: `gamma`
against the `gamma --oracle` classes of the same rung, `sr-enum` against
its own correspondence count, and `psi` against a sum computed here from
the table cells.  `eval` words are drawn from the seed, so it is compared
with the same expression on the built-in fixtures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import tables

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

COMMANDS = ("check", "beta", "gamma", "heart", "derived", "subs", "quotient",
            "product", "sr-enum", "freeprod")

# Classes of gamma on the free-product factors (their abelianizations).
GAMMA_CLASSES = {
    "h9": [["a", "b", "c", "e"], ["x", "y"], ["u", "z"], ["v"]],
    "v4": [["a"], ["b"], ["c"], ["e"]],
    "s3": [["e", "r", "rr"], ["rrs", "rs", "s"]],
}


class CheckFailed(Exception):
    pass


def command_of(argv) -> str:
    return next(tok for tok in argv if tok in COMMANDS)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def _keyed(blocks) -> dict[str, str]:
    """Label -> name of its block, the block's labels joined by '|'."""
    return {lab: "|".join(block) for block in blocks for lab in block}


def _cell_triples(elements, table, key) -> list:
    return sorted(
        [key[a], key[b], sorted(key[c] for c in cell)]
        for a, row in zip(elements, table)
        for b, cell in zip(elements, row)
    )


def _factor_names(argv) -> list[str]:
    spec = argv[argv.index("--factors") + 1]
    return [Path(tok).stem for tok in spec.split(",")]


def canonical(argv, stdout: str):
    """Label-level content of one report; raw text for text-mode jobs."""
    if "--json" not in argv:
        return {"text": stdout}
    doc = json.loads(stdout)
    cmd = command_of(argv)
    if cmd == "check":
        doc["elements"] = sorted(doc["elements"])
        doc["witnesses"] = sorted(doc["witnesses"])
    elif cmd in ("beta", "gamma"):
        key = _keyed(doc["classes"])
        q = doc["quotient"]
        q["table"] = _cell_triples(q.pop("elements"), q["table"], key)
    elif cmd == "quotient":
        key = {name: "|".join(members) for name, members in doc["cosets"].items()}
        doc["cosets"] = sorted(doc["cosets"].values())
        q = doc["quotient"]
        q["table"] = _cell_triples(q.pop("elements"), q["table"], key)
        if "quotient_beta_kernel" in doc:
            doc["quotient_beta_kernel"] = sorted(key[c] for c in doc["quotient_beta_kernel"])
    elif cmd == "subs":
        doc["subhypergroups"] = sorted(doc["subhypergroups"], key=digest)
    elif cmd == "sr-enum":
        doc["relations"] = sorted(doc["relations"])
    elif cmd == "freeprod" and "eval" in argv:
        doc["words"] = sorted(doc["words"])
    elif cmd == "freeprod" and "psi" in argv:
        names = _factor_names(argv)
        doc["support"] = {
            f: _keyed(GAMMA_CLASSES[names[int(f)]])[lab] for f, lab in doc["support"].items()
        }
    return doc


def psi_oracle(argv) -> dict[str, str]:
    """Summed abelianized image of a word, from the factor tables' cells.

    In the abelianization the order of the letters does not matter, so
    the image in factor f is the gamma class of the product of all its
    letters; only non-identity classes appear in the support.
    """
    names = _factor_names(argv)
    word = argv[argv.index("psi") + 1]
    support = {}
    for f, name in enumerate(names):
        H = tables.base_table(name)
        key = _keyed(GAMMA_CLASSES[name])
        acc = tables.FACTOR_IDENTITY[name]
        zero = key[acc]
        for tok in word.split():
            lab, _, idx = tok.rpartition("@")
            if int(idx) == f:
                cell = H.rows[H.index(acc)][H.index(lab)]
                acc = H.names[(cell & -cell).bit_length() - 1]
        if key[acc] != zero:
            support[str(f)] = key[acc]
    return support


class Checker:
    """Checks each job's report and the cross-job oracles of one run."""

    def __init__(self, goldens: dict[str, str]):
        self.goldens = goldens
        self.gamma_routes: dict[str, dict[str, list]] = {}

    def check(self, job, stdout: str, ref_stdout: str | None = None) -> None:
        """Raise CheckFailed unless a successful job's report is right."""
        try:
            doc = canonical(job.argv, stdout)
        except (ValueError, KeyError, StopIteration) as exc:
            raise CheckFailed(f"unreadable report: {exc!r}") from None
        cmd = command_of(job.argv)
        if "--json" in job.argv and cmd == "sr-enum":
            if not doc["correspondence_counts_match"] or doc["count"] != len(doc["relations"]):
                raise CheckFailed("SR count differs from normal closed subhypergroups")
        elif "--json" in job.argv and cmd == "gamma":
            rung = job.id.split()[-1]
            route = "oracle" if "--oracle" in job.argv else "commutator"
            self.gamma_routes.setdefault(rung, {})[route] = doc["classes"]
        elif "--json" in job.argv and cmd == "freeprod" and "psi" in job.argv:
            if doc["support"] != psi_oracle(job.argv):
                raise CheckFailed("psi differs from the summed letter classes")
        if job.ref is not None:
            if ref_stdout is None or canonical(job.ref, ref_stdout) != doc:
                raise CheckFailed("differs from the same command on the fixtures")
        elif job.id in self.goldens:
            if digest(doc) != self.goldens[job.id]:
                raise CheckFailed("label-level content differs from the golden")
        elif job.expect == 0:
            raise CheckFailed("no golden for this job")

    def cross_check(self) -> list[str]:
        """Rungs whose gamma classes differ between the two routes."""
        return sorted(
            rung
            for rung, routes in self.gamma_routes.items()
            if len(routes) == 2 and routes["oracle"] != routes["commutator"]
        )
