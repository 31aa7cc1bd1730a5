import contextlib
import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperkernel import cli, corpus
from hyperkernel.cli import main
from hyperkernel.hypio import emit_report, format_hyp, table_doc

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter, importing the library from src/, run with args."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )


NON_ASSOCIATIVE = (
    '{"elements":["a","b","c"],'
    '"table":[[["c"],["a"],["c"]],[["c"],["a","b"],["c"]],[["b"],["a"],["b"]]]}'
)


class TestCheck:
    def test_h9(self, capsys):
        code, out, _ = run(capsys, "check", "h9", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["flags"]["is_hypergroup"]
        assert doc["flags"]["is_canonical"]
        assert doc["identities"] == ["e"]

    def test_total4_not_canonical(self, capsys):
        code, out, _ = run(capsys, "check", "total4", "--json")
        doc = json.loads(out)
        assert doc["flags"]["is_hypergroup"]
        assert not doc["flags"]["is_canonical"]

    def test_text_witnesses_are_ordered_tuples(self, capsys, tmp_path):
        # (a*b)*b = {a,b} but a*(b*b) = {a}; the JSON keeps arrays
        path = tmp_path / "two.hyp"
        path.write_text("elements: a b\nrow a: {a} {a,b}\nrow b: {b} {a}\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "  is_semihypergroup: (a,b,b)\n" in out
        assert "  is_commutative: (a,b)\n" in out
        assert "elements: {a,b}\n" in out
        _, out, _ = run(capsys, "--json", "check", str(path))
        assert json.loads(out)["witnesses"]["is_semihypergroup"] == ["a", "b", "b"]


class TestBetaGamma:
    def test_beta_h9_classes(self, capsys):
        code, out, _ = run(capsys, "--json", "beta", "h9")
        doc = json.loads(out)
        assert doc["classes"] == [["a", "b", "c", "e"], ["u", "z"], ["v"], ["x", "y"]]
        assert doc["kernel"] == ["a", "b", "c", "e"]
        assert doc["quotient"]["is_group"]

    def test_gamma_routes_agree(self, capsys):
        _, out1, _ = run(capsys, "--json", "gamma", "h9")
        _, out2, _ = run(capsys, "--json", "gamma", "h9", "--oracle", "--nmax", "4")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1["classes"] == doc2["classes"]
        assert doc1["route"] == "commutator"
        assert doc2["route"] == "oracle"

    def test_beta_on_a_non_associative_table(self, capsys, tmp_path):
        # the smallest strongly regular relation is the single class here;
        # the common-product relation {a,b}|{c} is not strongly regular
        path = tmp_path / "nonassoc.json"
        path.write_text(NON_ASSOCIATIVE, encoding="utf-8")
        code, out, err = run(capsys, "--json", "beta", str(path))
        assert code == 0, err
        assert json.loads(out)["classes"] == [["a", "b", "c"]]


class TestQuotient:
    def test_h9_mod_ea(self, capsys):
        code, out, _ = run(capsys, "--json", "quotient", "h9", "--sub", "e,a")
        doc = json.loads(out)
        assert doc["cosets"]["K"] == ["a", "e"]
        assert doc["cosets"]["bK"] == ["b", "c"]
        assert doc["quotient_beta_kernel"] == ["K", "bK"]
        assert not doc["is_group"]
        assert doc["correspondence"]["holds"]
        golden = corpus.h9_quotient()
        assert doc["quotient"]["elements"] == list(golden.names)

    def test_bad_sub_label(self, capsys):
        code, _, err = run(capsys, "quotient", "h9", "--sub", "e,nope")
        assert code == 1
        assert "nope" in err

    def test_non_canonical_table_gets_probe_only(self, capsys):
        code, out, _ = run(capsys, "--json", "quotient", "s3", "--sub", "e,r,rr")
        doc = json.loads(out)
        assert code == 0
        assert doc["correspondence"] == {"applicable": False, "probe_holds": True}
        assert doc["cosets"] == {"K": ["e", "r", "rr"], "sK": ["rrs", "rs", "s"]}
        assert doc["quotient_beta_kernel"] == ["K"]
        assert doc["is_group"] and doc["is_abelian_group"]

    @pytest.mark.parametrize(
        "table, sub, message",
        [
            ("h9", "e,x", "quotient needs a subhypergroup"),
            ("total3", "0", "quotient needs a subhypergroup"),
            ("s3", "e,s", "quotient needs a normal subhypergroup"),
        ],
    )
    def test_refusals(self, capsys, table, sub, message):
        code, out, err = run(capsys, "quotient", table, "--sub", sub)
        assert (code, out, err) == (1, "", f"hyperkernel: {message}\n")


class TestSubsAndHeart:
    def test_subs_filter(self, capsys):
        _, out, _ = run(capsys, "--json", "subs", "h9", "--contains-heart")
        doc = json.loads(out)
        assert doc["count"] == 5
        assert all(e["contains_heart"] for e in doc["subhypergroups"])

    def test_heart_and_derived(self, capsys):
        _, out, _ = run(capsys, "--json", "heart", "h9")
        assert json.loads(out)["heart"] == ["a", "b", "c", "e"]
        _, out, _ = run(capsys, "--json", "derived", "s3")
        assert json.loads(out)["derived"] == ["e", "r", "rr"]

    @pytest.mark.parametrize(
        "command, message",
        [
            ("subs", "subhypergroup lattice requires a hypergroup"),
            ("derived", "derived subhypergroup requires a hypergroup"),
        ],
    )
    def test_refusal_names_the_command(self, capsys, tmp_path, command, message):
        path = tmp_path / "nonassoc.json"
        path.write_text(NON_ASSOCIATIVE, encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err == f"hyperkernel: {message}\n"


class TestProductAndSr:
    def test_product_h9_z2(self, capsys):
        code, out, _ = run(capsys, "--json", "product", "h9", "z2")
        doc = json.loads(out)
        assert doc["holds"] and doc["kernel_match"] and doc["gamma_quotient_iso"]

    def test_product_above_64_elements(self, capsys):
        code, out, err = run(capsys, "--json", "product", "h9", "h9")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["carrier_size"] == 81
        assert doc["holds"] is True

    def test_sr_enum_counts(self, capsys):
        _, out, _ = run(capsys, "--json", "sr-enum", "v4")
        doc = json.loads(out)
        assert doc["count"] == 5
        assert doc["correspondence_counts_match"]

    def test_sr_enum_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "sr-enum", "h9", "--budget", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("sr-enum", "h9", "--budget", "0"),
            ("sr-enum", "h9", "--budget", "many"),
            ("gamma", "h9", "--oracle", "--nmax", "0"),
            ("freeprod", "--factors", "h9,v4", "conjectures", "--subs", "e,a;e,a", "--max-len", "-1"),
            ("freeprod", "--factors", "h9,v4", "conjectures", "--subs", "e,a;e,a", "--max-len", "0"),
        ],
    )
    def test_non_positive_values_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "expected a positive integer" in err

    def test_sr_enum_needs_hypergroup(self, capsys, tmp_path):
        path = tmp_path / "semi.hyp"
        path.write_text(
            "elements: a b\nrow a: {a} {a}\nrow b: {a} {b}\n", encoding="utf-8"
        )
        code, _, err = run(capsys, "sr-enum", str(path))
        assert code == 1
        assert "hypergroup" in err


class TestBadInput:
    def test_a_table_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.hyp"
        path.write_bytes(b"elements: e\nrow e: {\xff}\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err == "hyperkernel: not UTF-8 text: invalid start byte at byte 20\n"

    def test_json_nested_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, "beta", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("hyperkernel: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1


class TestBudgetRefusals:
    # Both charges are known before any block or word is built, so a
    # bound of 10^9 refuses at once.
    def test_gamma_oracle(self, capsys):
        code, _, err = run(capsys, "gamma", "h9", "--oracle", "--nmax", "1000000000")
        assert code == 2
        masks = 9 * comb(10**9 + 7, 10**9 - 2)
        letters = 9 * comb(10**9 + 7, 10**9 - 3)
        assert err == (
            f"hyperkernel: gamma oracle: {masks} block masks and {letters} key "
            "letters by length 1000000000, over the budget of 4000000\n"
        )

    def test_conjectures(self, capsys):
        code, _, err = run(
            capsys, "freeprod", "--factors", "h9,v4", "conjectures",
            "--subs", "e,a;e,a", "--max-len", "1000000000",
        )
        assert code == 2
        assert err == (
            "hyperkernel: conjecture images: charged 500000000500000000 word ids "
            "by length 1000000000, over the budget of 4000000\n"
        )

    def test_conjectures_on_one_letter_factors(self, capsys):
        # Only 40,001 base words, but each layer multiplies out longer
        # words; the layers alone charge 20000 * 20001 / 2.
        code, out, err = run(
            capsys, "freeprod", "--factors", "z2,z2", "conjectures",
            "--subs", "0;0", "--max-len", "20000",
        )
        assert (code, out) == (2, "")
        assert err == (
            "hyperkernel: conjecture images: charged 200010000 word ids "
            "by length 20000, over the budget of 4000000\n"
        )

    def test_conjectures_with_a_one_element_factor(self, capsys, tmp_path):
        # No word is longer than one letter, but every layer is charged.
        path = tmp_path / "one.hyp"
        path.write_text("elements: e\nrow e: {e}\n", encoding="utf-8")
        code, out, err = run(
            capsys, "freeprod", "--factors", f"{path},z2", "conjectures",
            "--subs", "e;0", "--max-len", "5000000",
        )
        assert (code, out) == (2, "")
        assert err == (
            "hyperkernel: conjecture images: charged 12500002500000 word ids "
            "by length 5000000, over the budget of 4000000\n"
        )


def _mutate(data: bytes, edits, cut) -> bytes:
    """data with each (position, deleted length, inserted bytes) edit
    applied in turn, then cut at a position."""
    for pos, dele, ins in edits:
        pos %= len(data) + 1
        data = data[:pos] + ins + data[pos + dele:]
    return data if cut is None else data[: cut % (len(data) + 1)]


def _garbage():
    h9 = corpus.fixture("h9")
    texts = {".hyp": format_hyp(h9).encode(), ".json": emit_report(table_doc(h9)).encode()}
    edit = st.tuples(st.integers(0, 4000), st.integers(0, 6), st.binary(max_size=3))
    mutated = st.sampled_from(sorted(texts)).flatmap(
        lambda suffix: st.tuples(
            st.just(suffix),
            st.builds(_mutate, st.just(texts[suffix]), st.lists(edit, max_size=4),
                      st.none() | st.integers(0, 4000)),
        )
    )
    raw = st.tuples(st.sampled_from([".hyp", ".json"]), st.binary(max_size=80))
    return mutated | raw


class TestGarbageSweep:
    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        return tmp_path_factory.mktemp("garbage")

    def test_mutated_and_raw_files_exit_cleanly(self, directory):
        # Mutated and truncated h9 files in both formats, and raw bytes:
        # check and beta exit 0 or 1, and a failure is one stderr line.
        @given(_garbage())
        @settings(max_examples=250, deadline=None, derandomize=True, database=None)
        def sweep(case):
            suffix, data = case
            path = directory / f"table{suffix}"
            path.write_bytes(data)
            for command in ("check", "beta"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, str(path)])
                lines = err.getvalue().splitlines()
                assert code in (0, 1), (command, data)
                if code:
                    assert len(lines) == 1 and lines[0].startswith("hyperkernel: "), data
                else:
                    assert lines == [] and out.getvalue(), data

        sweep()


class TestFreeprod:
    def test_eval(self, capsys):
        code, out, _ = run(
            capsys, "--json", "freeprod", "--factors", "h9,v4", "eval", "x@0 * x@0"
        )
        doc = json.loads(out)
        assert doc["words"] == ["b@0", "c@0"]

    @pytest.mark.parametrize(
        "factors, expr, words",
        [
            ("h9,v4", "x@0 * x@0 * y@0 a@1", ["x@0 a@1"]),
            ("h9,v4", "a@1 x@0 * y@0 b@1 z@0", ["c@1 z@0", "a@1 a@0 b@1 z@0"]),
            ("h9,s3", "x@0 s@1 * z@0 * u@0 r@1", ["x@0 rrs@1", "x@0 s@1 b@0 r@1"]),
            ("h9,h9", "y@1 x@0 * y@0 x@1", ["1", "a@1", "y@1 a@0 x@1"]),
            (
                "h9,h9",
                "x@0 * x@0 * x@1 * x@1",
                ["b@0 b@1", "b@0 c@1", "c@0 b@1", "c@0 c@1"],
            ),
        ],
    )
    def test_eval_orders_words_by_length_factors_elements(
        self, capsys, factors, expr, words
    ):
        code, out, err = run(capsys, "--json", "freeprod", "--factors", factors, "eval", expr)
        assert code == 0, err
        assert json.loads(out)["words"] == words

    def test_eval_cancellation(self, capsys):
        _, out, _ = run(
            capsys, "--json", "freeprod", "--factors", "h9,v4", "eval", "a@0 * a@0"
        )
        assert json.loads(out)["words"] == ["1"]

    def test_factor_that_is_not_a_hypergroup_is_named(self, capsys, tmp_path):
        # (a*b)*b = {a,b} but a*(b*b) = {a}: not associative
        path = tmp_path / "bad.hyp"
        path.write_text("elements: a b\nrow a: {a} {a,b}\nrow b: {b} {a}\n", encoding="utf-8")
        code, out, err = run(capsys, "freeprod", "--factors", f"{path},z2", "eval", "1")
        assert (code, out, err) == (1, "", "hyperkernel: factor 0 is not a hypergroup\n")

    def test_identity_letter_is_named_by_its_label(self, capsys):
        code, out, err = run(capsys, "freeprod", "--factors", "h9,v4", "eval", "e@0")
        assert (code, out, err) == (1, "", "hyperkernel: letter e@0 is an identity\n")

    @pytest.mark.parametrize(
        "action,expr", [("eval", "x@0 *"), ("eval", "* x@0"), ("eval", "x@0 *  * x@0"), ("psi", " ")]
    )
    def test_empty_word_part_is_parse_error(self, capsys, action, expr):
        code, out, err = run(capsys, "freeprod", "--factors", "h9,v4", action, expr)
        assert code == 1 and not out
        assert "empty word" in err

    def test_psi(self, capsys):
        _, out, _ = run(
            capsys, "--json", "freeprod", "--factors", "s3,z4", "psi", "s@0 1@1 s@0"
        )
        doc = json.loads(out)
        assert doc["support"] == {"1": "1"}

    def test_conjectures(self, capsys):
        code, out, _ = run(
            capsys,
            "--json",
            "freeprod",
            "--factors",
            "h9,v4",
            "conjectures",
            "--subs",
            "e,a;e,a",
            "--max-len",
            "2",
        )
        doc = json.loads(out)
        assert doc["free_product_of_quotients"]["all_quotient_words_covered"]


class TestFilesAndDeterminism:
    def test_file_load_and_fixture_equivalence(self, capsys, tmp_path):
        path = tmp_path / "mine.hyp"
        path.write_text(format_hyp(corpus.h9()), encoding="utf-8")
        _, out_file, _ = run(capsys, "--json", "beta", str(path))
        _, out_fixture, _ = run(capsys, "--json", "beta", "h9")
        assert out_file == out_fixture

    def test_json_file(self, capsys, tmp_path):
        from hyperkernel.hypio import emit_report, table_doc

        path = tmp_path / "mine.json"
        path.write_text(emit_report(table_doc(corpus.klein_four())), encoding="utf-8")
        code, out, _ = run(capsys, "--json", "check", str(path))
        assert code == 0
        assert json.loads(out)["flags"]["is_canonical"]

    def test_fixture_name_wins_over_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h9").write_text(format_hyp(corpus.klein_four()), encoding="utf-8")
        _, by_name, _ = run(capsys, "--json", "beta", "h9")
        _, by_path, _ = run(capsys, "--json", "beta", "./h9")
        _, v4, _ = run(capsys, "--json", "beta", "v4")
        assert json.loads(by_name)["classes"][0] == ["a", "b", "c", "e"]
        assert by_path == v4 != by_name

    def test_unknown_input(self, capsys):
        code, _, err = run(capsys, "beta", "definitely-missing")
        assert code == 1

    def test_seed_is_not_an_option(self, capsys):
        assert main(["--seed", "7", "check", "h9"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "h9"),
            ("beta", "h9"),
            ("gamma", "h9", "--oracle"),
            ("heart", "h9"),
            ("derived", "h9"),
            ("subs", "h9", "--closed"),
            ("quotient", "h9", "--sub", "e,a"),
            ("product", "total2", "z2"),
            ("sr-enum", "v4"),
            ("freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        for flags in ((), ("--json",)):
            _, out1, _ = run(capsys, *flags, *argv)
            _, out2, _ = run(capsys, *flags, *argv)
            assert out1 == out2 and out1


class TestParserReuse:
    def test_one_parser_serves_calls_around_a_usage_error(self, capsys, monkeypatch):
        # main builds its parser once per process; a usage error between
        # two commands must leave it as a fresh process would find it.
        monkeypatch.setenv("COLUMNS", "80")
        cli.build_parser.cache_clear()
        argvs = [
            ("--json", "beta", "h9"),
            ("quotient", "h9"),
            ("check", "z3", "--json"),
            ("--json", "beta", "h9"),
        ]
        try:
            runs = [run(capsys, *argv) for argv in argvs]
            builds = cli.build_parser.cache_info().misses
        finally:
            cli.build_parser.cache_clear()
        assert builds == 1
        assert runs[1][0] == 1 and "required: --sub" in runs[1][2]
        fresh_runs = [fresh("-m", "hyperkernel.cli", *argv) for argv in argvs]
        assert runs == [(p.returncode, p.stdout, p.stderr) for p in fresh_runs]


# A fresh interpreter imports the CLI, optionally runs one command with its
# output discarded, and prints the modules that appeared and how many
# fixtures were built.
_FRESH_IMPORT = """
import contextlib, io, json, sys
before = set(sys.modules)
import hyperkernel.cli
built = []
build = hyperkernel.corpus.fixture
hyperkernel.corpus.fixture = lambda name: built.append(name) or build(name)
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        hyperkernel.cli.main(argv)
print(json.dumps({
    "modules": sorted(set(sys.modules) - before),
    "fixtures_built": len(built),
}))
"""

LAYERS = ("hyperkernel.groups", "hyperkernel.relations", "hyperkernel.quotients",
          "hyperkernel.freeprod")


def fresh_import(argv) -> dict:
    proc = fresh("-c", _FRESH_IMPORT, json.dumps(list(argv)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdStart:
    @pytest.mark.parametrize(
        "argv,absent",
        [
            ((), LAYERS),
            (("check", "h9"), LAYERS),
            (("--json", "beta", "h9"), ("hyperkernel.quotients", "hyperkernel.freeprod")),
        ],
        ids=["import", "check", "beta"],
    )
    def test_a_fresh_process_loads_only_the_layer_it_runs(self, argv, absent):
        loaded = fresh_import(argv)["modules"]
        assert "hyperkernel.cli" in loaded
        assert not {"dataclasses", "inspect", *absent} & set(loaded)

    def test_a_file_argument_builds_no_fixture(self, tmp_path):
        path = tmp_path / "mine.hyp"
        path.write_text(format_hyp(corpus.h9()), encoding="utf-8")
        assert fresh_import(["--json", "check", str(path)])["fixtures_built"] == 0
        assert fresh_import(["--json", "check", "h9"])["fixtures_built"] == 1

    def test_fixtures_are_the_per_name_fixtures(self):
        fixtures = corpus.fixtures()
        assert set(fixtures) == corpus.FIXTURE_NAMES
        assert all(corpus.fixture(name) == H for name, H in fixtures.items())

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "h9"),
            ("--json", "beta", "h9"),
            ("gamma", "h9", "--oracle", "--nmax", "3"),
            ("heart", "h9"),
            ("derived", "s3"),
            ("subs", "h9", "--closed", "--normal"),
            ("quotient", "h9", "--sub", "e,a"),
            ("product", "h9", "z2"),
            ("sr-enum", "v4"),
            ("--json", "freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"),
        ],
        ids=lambda argv: next(a for a in argv if not a.startswith("-")),
    )
    def test_a_fresh_process_prints_what_main_prints(self, capsys, argv):
        proc = fresh("-m", "hyperkernel.cli", *argv)
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)
        assert proc.returncode == 0 and proc.stdout
