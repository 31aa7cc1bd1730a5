import json

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_memo import README_COMMANDS

from hyperkernel import cli, corpus, errors
from hyperkernel.cli import main
from hyperkernel.hypio import (
    emit_report,
    format_hyp,
    parse_hyp,
    parse_hyp_json,
    partition_labels,
    set_labels,
    table_doc,
)

MINIMAL = """
# trivial table
elements: e
row e: {e}
"""


class TestParse:
    def test_minimal(self):
        H = parse_hyp(MINIMAL)
        assert H.n == 1
        assert H.cell(0, 0) == H.set_of([0])

    def test_name_and_comments(self):
        H = parse_hyp("name: tiny\nelements: a b\nrow a: {a} {b}\nrow b: {b} {a,b}\n")
        assert H.name == "tiny"
        assert H.cell(1, 1) == H.subset(["a", "b"])

    def test_empty_cell_rejected(self):
        with pytest.raises(errors.EmptyCell):
            parse_hyp("elements: a\nrow a: {}\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(errors.UnknownLabel):
            parse_hyp("elements: a\nrow a: {b}\n")

    def test_duplicate_element_rejected(self):
        with pytest.raises(errors.DuplicateLabel):
            parse_hyp("elements: a a\nrow a: {a} {a}\n")

    def test_duplicate_row_rejected(self):
        with pytest.raises(errors.DuplicateLabel):
            parse_hyp("elements: a\nrow a: {a}\nrow a: {a}\n")

    def test_missing_row_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_hyp("elements: a b\nrow a: {a} {b}\n")

    def test_wrong_cell_count(self):
        with pytest.raises(errors.ParseError) as exc:
            parse_hyp("elements: a b\nrow a: {a}\nrow b: {a} {b}\n")
        assert exc.value.line == 2

    def test_parse_error_carries_line(self):
        with pytest.raises(errors.ParseError) as exc:
            parse_hyp("elements: a\nrow a: a\n")
        assert exc.value.line == 2

    # Each cell label is checked once per parse; the first error in file
    # order still wins, whichever labels were checked before it.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("elements: a b\nrow a: {a} {b}\nrow b: {b} {a,b*}\nrow c: {\n", "line 3: bad label 'b*'"),
            ("elements: a b\nrow a: {a} {b*} x\n", "line 2: bad label 'b*'"),
            ("elements: a b\nrow a: {a} x {b*}\n", "line 2: expected '{' at column 6"),
            ("elements: a b\nrow a: {a} {b}\nrow b: {a} {a, b , c d}\n", "line 3: bad label 'c d'"),
            ("elements: a\nrow a: {z*}\nrow b: {z*}\n", "line 2: bad label 'z*'"),
            ("elements: a\nrow a: {z}\nrow z: {a,*}\n", "line 3: bad label '*'"),
        ],
    )
    def test_first_bad_cell_label_wins(self, text, message):
        with pytest.raises(errors.ParseError) as exc:
            parse_hyp(text)
        assert type(exc.value) is errors.ParseError
        assert str(exc.value) == message


class TestDistinctCells:
    """Each distinct cell text is checked, and each distinct label tuple
    mapped to its mask, once per parse; errors still land where a cell by
    cell parse puts them."""

    def test_same_bad_cell_in_two_rows_gives_the_earlier_line(self):
        text = "elements: a b\nrow a: {a} {b*}\nrow b: {b} {b*}\n"
        with pytest.raises(errors.ParseError) as exc:
            parse_hyp(text)
        assert str(exc.value) == "line 2: bad label 'b*'"

    def test_spacing_inside_a_cell_does_not_change_its_mask(self):
        H = parse_hyp("elements: a b\nrow a: {a} {a, b}\nrow b: {a,b} { b ,a }\n")
        assert H.rows[0][1] == H.rows[1][0] == H.rows[1][1] == 0b11

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # {zz} is first met in row b, but row a comes first in the
            # elements line and so names the unknown label
            ("elements: a b\nrow b: {b} {zz}\nrow a: {a} {zz}\n", errors.UnknownLabel, "line 3: unknown element 'zz'"),
            ("elements: a b\nrow b: {b} {zz}\nrow a: {zz} {a}\n", errors.UnknownLabel, "line 3: unknown element 'zz'"),
            ("elements: a b\nrow b: {b} {zz}\nrow a: {a} {a}\n", errors.UnknownLabel, "line 2: unknown element 'zz'"),
            # a cell count error of an earlier row still comes first
            ("elements: a b\nrow b: {b} {zz}\nrow a: {a}\n", errors.ParseError, "line 3: row 'a' has 1 cells, expected 2"),
        ],
    )
    def test_first_unknown_label_in_element_row_order_wins(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_hyp(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("elements: a b\nrow a: {a} {b} }\nrow b: {a,b} {b}\n", "line 2: expected '{' at column 10"),
            ("elements: a b\nrow a: {a} {a, b} {\nrow b: {a,b} {b}\n", "line 2: unterminated cell"),
            ("elements: a\nrow a: {a}}\n", "line 2: expected '{' at column 5"),
            ("elements: a b\nrow a: {a} {a{b}\nrow b: {a,b} {b}\n", "line 2: bad label 'a{b'"),
            ("elements: a b\nrow a: {a} {a,}\nrow b: {a,b} {b}\n", "line 2: bad label ''"),
        ],
    )
    def test_row_syntax_errors(self, text, message):
        with pytest.raises(errors.ParseError) as exc:
            parse_hyp(text)
        assert type(exc.value) is errors.ParseError
        assert str(exc.value) == message


class TestJson:
    def test_same_table_as_the_text_format(self, h9):
        doc = table_doc(h9)
        doc["table"][0][1] = doc["table"][0][1] * 2
        assert parse_hyp_json(json.dumps(doc)) == parse_hyp(format_hyp(h9))

    @pytest.mark.parametrize(
        "table, error, message",
        [
            ([[["a"], ["b"]], [["b"], ["a", "zz"]]], errors.UnknownLabel, "unknown element 'zz'"),
            ([[["a"], ["b"]], [["b"]]], errors.ParseError, "row 'b' has 1 cells, expected 2"),
            ([[["a"], []], [["b"], ["a"]]], errors.EmptyCell, "empty cell in row 'a'"),
        ],
    )
    def test_errors_carry_no_line(self, table, error, message):
        doc = {"elements": ["a", "b"], "table": table}
        with pytest.raises(error) as exc:
            parse_hyp_json(json.dumps(doc))
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert exc.value.line is None

    def test_round_trip_document(self, h9):
        doc = table_doc(h9)
        H2 = parse_hyp_json(json.dumps(doc))
        assert H2 == h9

    def test_bad_json(self):
        with pytest.raises(errors.ParseError):
            parse_hyp_json("{nope")

    def test_empty_cell(self):
        doc = {"elements": ["a"], "table": [[[]]]}
        with pytest.raises(errors.EmptyCell):
            parse_hyp_json(json.dumps(doc))

    # A string where an array belongs was read one character at a time,
    # and a number raised TypeError.
    @pytest.mark.parametrize(
        "elements, table, message",
        [
            (["a"], [5], "row 'a' is not an array"),
            (["a"], 3, "'table' is not an array"),
            (["a"], {"a": [["a"]]}, "'table' is not an array"),
            (["a"], [[5]], "a cell in row 'a' is not an array"),
            (["a", "b"], [[["a"], ["b"]], "ba"], "row 'b' is not an array"),
            (["a", "b"], [[["a"], "ab"], [["b"], ["a"]]], "a cell in row 'a' is not an array"),
            ("ab", [[["a"], ["b"]], [["b"], ["a"]]], "'elements' is not an array"),
            (5, [], "'elements' is not an array"),
        ],
    )
    def test_non_arrays_are_parse_errors(self, tmp_path, capsys, elements, table, message):
        text = json.dumps({"elements": elements, "table": table})
        with pytest.raises(errors.ParseError) as exc:
            parse_hyp_json(text)
        assert type(exc.value) is errors.ParseError
        assert str(exc.value) == message
        assert exc.value.line is None
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"hyperkernel: {message}\n"

    @pytest.mark.parametrize("label", ["a\n", "a b", "", "a*"])
    def test_bad_label_is_a_parse_error(self, label):
        doc = {"elements": [label], "table": [[[label]]]}
        with pytest.raises(errors.ParseError):
            parse_hyp_json(json.dumps(doc))


class TestRoundTrip:
    def test_all_fixtures(self):
        for name, H in corpus.fixtures().items():
            assert parse_hyp(format_hyp(H)) == H, name

    def test_corpus_members(self, full_corpus):
        for name, H in full_corpus.items():
            assert parse_hyp(format_hyp(H)) == H, name


class TestReports:
    def test_labels_sorted_lexicographically(self, h9):
        from hyperkernel.relations import beta

        classes = partition_labels(h9.names, beta(h9))
        assert classes == [["a", "b", "c", "e"], ["u", "z"], ["v"], ["x", "y"]]

    def test_set_labels_sorted(self, h9):
        assert set_labels(h9.names, h9.subset(["c", "a"])) == ["a", "c"]

    def test_emit_byte_identical(self):
        doc = {"b": [2, 1], "a": {"y": True, "x": None}}
        assert emit_report(doc) == emit_report(json.loads(json.dumps(doc)))

    def test_emit_sorts_keys(self):
        out = emit_report({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')


# Labels with quotes, backslashes, control characters and non-ASCII
_TEXT = st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x1f\x7fé✓\U0001d400'), max_size=4)
_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _TEXT


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
    )


_DOCS = st.recursive(_SCALARS, _containers, max_leaves=24)


class TestWriter:
    """emit_report against json.dumps (oracles.emit_report)."""

    def test_every_cli_report(self, capsys, monkeypatch):
        # the README commands and every fixture through the commands that
        # take one table; each report the CLI writes goes through the spy
        written = []

        def spy(doc):
            text = emit_report(doc)
            assert text == oracles.emit_report(doc)
            written.append(text)
            return text

        monkeypatch.setattr(cli, "emit_report", spy)
        argvs = [[a for a in argv if a != "--json"] for argv in README_COMMANDS]
        for name in sorted(corpus.FIXTURE_NAMES):
            argvs += [[cmd, name] for cmd in ("check", "beta", "gamma", "heart", "derived", "subs", "sr-enum")]
            argvs.append(["product", name, "z2"])
        for argv in argvs:
            assert main(["--json", *argv]) == 0, argv
        capsys.readouterr()
        assert len(written) == len(argvs)

    def test_every_table_doc(self, full_corpus):
        for name, H in full_corpus.items():
            doc = table_doc(H)
            assert emit_report(doc) == oracles.emit_report(doc), name

    @given(_DOCS, st.lists(_SCALARS, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_documents(self, doc, shared):
        # `shared` is one object at two depths and twice at one depth
        for value in (doc, {"x": shared, "y": [doc, [shared, shared]], "z": (shared,)}):
            assert emit_report(value) == oracles.emit_report(value)

    @pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, {"a": [{("b",): 1}]}])
    def test_a_key_that_is_not_a_str_is_refused(self, doc):
        with pytest.raises(TypeError):
            emit_report(doc)
