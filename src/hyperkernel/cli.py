"""Batch command line: parse tables, run computations, emit reports.

Every command accepts either a built-in fixture name (h9, h9-quotient,
z2, z3, z4, v4, s3, total2, total3, total4) or a file path.  A fixture
name wins over a file of the same name; write ./h9 for such a file.
Output is a human-readable text report by default and canonical JSON
with --json; identical inputs and flags produce byte-identical output.

Exit codes: 0 success, 1 any error, 2 budget exhaustion.

Every call of the command line is a fresh process, and importing the
layers costs more than most commands run.  So the module imports only
what every command needs (errors, core, hypio, corpus), and each
handler imports the layer it runs: relations for beta and gamma,
quotients for the lattice and quotient commands, freeprod for freeprod.
Handlers reach those names through the module (`relations.beta(H)`), so
a patched module attribute is seen on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from hyperkernel import errors
from hyperkernel import corpus as corpus_mod
from hyperkernel import core, hypio
from hyperkernel.core import ElementSet, HyperTable
from hyperkernel.hypio import emit_report, partition_labels, set_labels, table_doc

if TYPE_CHECKING:
    from hyperkernel import freeprod, relations


def _load(arg: str) -> HyperTable:
    if arg in corpus_mod.FIXTURE_NAMES:
        return corpus_mod.fixture(arg)
    path = Path(arg)
    if path.exists():
        return hypio.load_table(path)
    raise errors.ParseError(f"no such file or fixture: {arg}")


def _positive_int(text: str) -> int:
    """A whole number of at least 1, for the budgets and bounds."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_subset(H: HyperTable, members: str) -> ElementSet:
    labels = [tok.strip() for tok in members.split(",") if tok.strip()]
    if not labels:
        raise errors.ParseError("empty element list")
    return H.subset(labels)


def _quotient_doc(q: relations.QuotientStructure) -> dict:
    return {
        "elements": list(q.table.names),
        "table": table_doc(q.table)["table"],
        "is_group": q.is_group,
        "is_abelian_group": q.is_group and core.is_commutative(q.table),
    }


def _render(doc: dict, as_json: bool) -> str:
    if as_json:
        return emit_report(doc)
    lines: list[str] = []

    def walk(value, indent: str, key: str | None):
        prefix = f"{indent}{key}: " if key is not None else indent
        if isinstance(value, dict):
            if key is not None:
                lines.append(f"{indent}{key}:")
            for k in sorted(value):
                walk(value[k], indent + ("  " if key is not None else ""), k)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            if key is not None:
                lines.append(f"{indent}{key}:")
            for item in value:
                walk(item, indent + "  ", None)
        else:
            if isinstance(value, list):
                text = "{" + ",".join(str(v) for v in value) + "}"
            elif isinstance(value, tuple):
                text = "(" + ",".join(str(v) for v in value) + ")"
            else:
                text = str(value)
            lines.append(prefix + text if key is not None else indent + "- " + text)

    walk(doc, "", None)
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> dict:
    H = _load(args.table)
    rep = core.structure_report(H)
    flags = {name: getattr(rep, name) for name in rep._fields if name.startswith("is_")}
    witnesses = {
        key: tuple(H.names[v] if isinstance(v, int) else v for v in val)
        for key, val in rep.witnesses.items()
    }
    return {
        "n": H.n,
        "elements": list(H.names),
        "flags": flags,
        "identities": set_labels(H.names, rep.identities),
        "witnesses": witnesses,
    }


def _kernel_doc(H: HyperTable, R, key: str) -> dict:
    """{key: labels of the kernel of R} when H/R is a group, else {}."""
    from hyperkernel import relations

    if not relations.quotient_by(H, R).is_group:
        return {}
    return {key: set_labels(H.names, relations.kernel_S(H, R))}


def _fundamental_doc(H: HyperTable, R) -> dict:
    from hyperkernel import relations

    return {
        "classes": partition_labels(H.names, R),
        "quotient": _quotient_doc(relations.quotient_by(H, R)),
        **_kernel_doc(H, R, "kernel"),
    }


def _cmd_beta(args) -> dict:
    from hyperkernel import relations

    H = _load(args.table)
    return _fundamental_doc(H, relations.beta(H))


def _cmd_gamma(args) -> dict:
    from hyperkernel import relations

    H = _load(args.table)
    if args.oracle:
        doc = _fundamental_doc(H, relations.gamma_oracle(H, nmax=args.nmax))
        doc["route"] = "oracle"
        doc["nmax"] = args.nmax
    else:
        doc = _fundamental_doc(H, relations.gamma(H))
        doc["route"] = "commutator"
    return doc


def _cmd_heart(args) -> dict:
    from hyperkernel import quotients

    H = _load(args.table)
    return {
        "heart": set_labels(H.names, quotients.heart(H)),
        "routes_agree": True,
    }


def _cmd_derived(args) -> dict:
    from hyperkernel import quotients

    H = _load(args.table)
    return {
        "derived": set_labels(H.names, quotients.derived(H)),
        "routes_agree": True,
    }


def _cmd_subs(args) -> dict:
    from hyperkernel import quotients

    H = _load(args.table)
    lattice = quotients.subhypergroups(H)
    entries = []
    for e in lattice.all:
        if args.closed and not e.closed:
            continue
        if args.normal and not e.normal:
            continue
        if args.complete_part and not e.complete_part:
            continue
        if args.contains_heart and not e.contains_S_beta:
            continue
        entries.append(
            {
                "members": set_labels(H.names, e.members),
                "closed": e.closed,
                "normal": e.normal,
                "complete_part": e.complete_part,
                "conjugable": e.conjugable,
                "contains_heart": e.contains_S_beta,
                "contains_derived": e.contains_S_gamma,
            }
        )
    return {"count": len(entries), "subhypergroups": entries}


def _cmd_quotient(args) -> dict:
    from hyperkernel import quotients, relations

    H = _load(args.table)
    K = _parse_subset(H, args.sub)
    Q = quotients.quotient_hypergroup(H, K)
    closed = core.is_closed(H, K)
    doc: dict = {
        "cosets": {
            name: set_labels(H.names, block)
            for name, block in zip(Q.names, relations.congruence_mod(H, K).classes)
        },
        "quotient": table_doc(Q),
        "is_group": closed and quotients.check_group_quotient(H, K),
        "is_abelian_group": closed and quotients.check_abelian_quotient(H, K),
        **_kernel_doc(Q, relations.beta(Q), "quotient_beta_kernel"),
    }
    try:
        rep = quotients.correspondence_check(H, K)
        doc["correspondence"] = {
            "applicable": True,
            "holds": rep.holds,
            "identities": [o._asdict() for o in rep.outcomes],
        }
    except errors.NotCanonical:
        probe = quotients.correspondence_probe(H, K)
        doc["correspondence"] = {
            "applicable": False,
            "probe_holds": probe.holds,
        }
    return doc


def _cmd_product(args) -> dict:
    from hyperkernel import quotients

    H1 = _load(args.table1)
    H2 = _load(args.table2)
    rep = quotients.product_identities_check(H1, H2)
    return {
        "carrier_size": H1.n * H2.n,
        "kernel_match": rep.kernel_match,
        "gamma_quotient_iso": rep.gamma_quotient_iso,
        "holds": rep.holds,
        "product_kernel": set_labels(rep.product.names, rep.product_kernel),
    }


def _cmd_sr_enum(args) -> dict:
    from hyperkernel import quotients, relations

    H = _load(args.table)
    found = relations.enumerate_strongly_regular(H, budget=args.budget)
    lattice = quotients.subhypergroups(H)
    normal_closed = [
        e for e in lattice.all if e.normal and e.closed and e.contains_S_beta
    ]
    return {
        "count": len(found),
        "relations": [partition_labels(H.names, R) for R in found],
        "normal_closed_containing_heart": len(normal_closed),
        "correspondence_counts_match": len(found) == len(normal_closed),
    }


def _parse_word(reg: freeprod.FactorRegistry, text: str) -> freeprod.ReducedWord:
    from hyperkernel import freeprod

    toks = text.split()
    if not toks:
        raise errors.ParseError("empty word; the empty word is written 1")
    if toks == ["1"]:
        return freeprod.EMPTY_WORD
    letters = []
    for tok in toks:
        if "@" not in tok:
            raise errors.ParseError(f"letter {tok!r} is not name@factor")
        lab, _, idx = tok.rpartition("@")
        try:
            f = int(idx)
        except ValueError:
            raise errors.ParseError(f"bad factor index in {tok!r}") from None
        if not 0 <= f < len(reg.factors):
            raise errors.ParseError(f"no factor {f}")
        letters.append(freeprod.Letter(f, reg.factors[f].index(lab)))
    return freeprod.make_word(reg, letters)


def _format_word(reg: freeprod.FactorRegistry, w: freeprod.ReducedWord) -> str:
    if w.is_empty():
        return "1"
    return " ".join(f"{reg.factors[l.factor].names[l.elem]}@{l.factor}" for l in w.letters)


def _cmd_freeprod(args) -> dict:
    from hyperkernel import freeprod

    factor_tables = [_load(tok) for tok in args.factors.split(",") if tok]
    reg = freeprod.FactorRegistry(factor_tables)
    if args.action == "eval":
        parts = [p.strip() for p in args.expr.split("*")]
        words = [_parse_word(reg, p) for p in parts]
        out = freeprod.word_product(reg, words)
        out = sorted(out, key=freeprod.ReducedWord.sort_key)
        return {"words": [_format_word(reg, w) for w in out]}
    if args.action == "psi":
        w = _parse_word(reg, args.expr)
        image = freeprod.psi_image(reg, w)
        family = reg.direct_sum_family()
        return {
            "support": {
                str(i): family.abelianizations[i].names[c] for i, c in image.support
            }
        }
    if args.action == "conjectures":
        if not args.subs:
            raise errors.ParseError("conjectures needs --subs k1;k2;...")
        blocks = args.subs.split(";")
        if len(blocks) != len(factor_tables):
            raise errors.ParseError("one --subs block per factor required")
        subs = [
            _parse_subset(H, block) for H, block in zip(factor_tables, blocks)
        ]
        rep = freeprod.quotient_conjecture_report(
            factor_tables, subs, max_len=args.max_len
        )
        return {
            "max_len": rep.max_len,
            "free_product_of_quotients": rep.free_product_of_quotients,
            "fundamental_formula": rep.fundamental_formula,
            "commutative_formula": rep.commutative_formula,
        }
    raise errors.ParseError(f"unknown freeprod action {args.action!r}")


def _add_globals(parser: argparse.ArgumentParser, suppress: bool) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="emit canonical JSON",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hyperkernel",
        description="Finite hypergroup computations on Cayley-table files.",
    )
    _add_globals(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _add_globals(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[shared], help="structural predicate report")
    p.add_argument("table")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "beta", parents=[shared], help="fundamental relation and quotient group"
    )
    p.add_argument("table")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser(
        "gamma", parents=[shared], help="commutative fundamental relation"
    )
    p.add_argument("table")
    p.add_argument("--oracle", action="store_true", help="use the brute-force route")
    p.add_argument(
        "--nmax", type=_positive_int, default=4, help="oracle product length bound"
    )
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser(
        "heart",
        parents=[shared],
        help="identity class of beta (on a hypergroup, the intersection of "
        "complete-part subhypergroups)",
    )
    p.add_argument("table")
    p.set_defaults(func=_cmd_heart)

    p = sub.add_parser("derived", parents=[shared], help="derived subhypergroup")
    p.add_argument("table")
    p.set_defaults(func=_cmd_derived)

    p = sub.add_parser("subs", parents=[shared], help="subhypergroup lattice with flags")
    p.add_argument("table")
    p.add_argument("--closed", action="store_true")
    p.add_argument("--normal", action="store_true")
    p.add_argument("--complete-part", dest="complete_part", action="store_true")
    p.add_argument("--contains-heart", dest="contains_heart", action="store_true")
    p.set_defaults(func=_cmd_subs)

    p = sub.add_parser(
        "quotient", parents=[shared], help="coset table modulo a subhypergroup"
    )
    p.add_argument("table")
    p.add_argument("--sub", required=True, help="comma-separated member labels")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser(
        "product", parents=[shared], help="direct-product identities report"
    )
    p.add_argument("table1")
    p.add_argument("table2")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser(
        "sr-enum", parents=[shared], help="enumerate strongly regular relations"
    )
    p.add_argument("table")
    p.add_argument(
        "--budget", type=_positive_int, default=core.DEFAULT_CLOSED_SET_BUDGET,
        help="most closed sets to visit while enumerating the subgroups of the "
        "fundamental group, the empty set included "
        f"(default {core.DEFAULT_CLOSED_SET_BUDGET})",
    )
    p.set_defaults(func=_cmd_sr_enum)

    p = sub.add_parser(
        "freeprod", parents=[shared], help="reduced-word arithmetic over factors"
    )
    p.add_argument("--factors", required=True, help="comma-separated tables")
    p.add_argument("action", choices=["eval", "psi", "conjectures"])
    p.add_argument("expr", nargs="?", default="1")
    p.add_argument("--subs", default=None, help="per-factor members, ';'-separated")
    p.add_argument("--max-len", dest="max_len", type=_positive_int, default=2)
    p.set_defaults(func=_cmd_freeprod)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means exhaustion.
        return 1 if exc.code else 0
    try:
        # one command shares one analysis between tables with equal rows
        with core.shared_memos():
            doc = args.func(args)
    except errors.ResourceExhausted as exc:
        print(f"hyperkernel: {exc}", file=sys.stderr)
        return 2
    except errors.HyperError as exc:
        print(f"hyperkernel: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"hyperkernel: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_render(doc, args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
