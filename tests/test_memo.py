"""The per-table memo: what it shares, what it never keeps, and a spy over
the CLI asserting that no rows run a kernel twice in one command."""

import gc
import sys
import weakref

import pytest

from hyperkernel import core, corpus, errors, kernels, quotients
from hyperkernel.cli import main
from hyperkernel.core import HyperTable, is_semihypergroup, per_table, shared_memos
from hyperkernel.hypio import format_hyp
from hyperkernel.relations import beta, congruence_mod, quotient_by


def fresh(H: HyperTable) -> HyperTable:
    """An equal table with an empty memo."""
    return HyperTable(H.names, H.rows, H.name)


class Spy:
    """Counts kernel calls per rows value, so equal tables count together."""

    def __init__(self, monkeypatch, *names):
        self.calls: dict[tuple[str, tuple], int] = {}
        for name in names:
            monkeypatch.setattr(kernels, name, self._wrap(name, getattr(kernels, name)))

    def _wrap(self, name, fn):
        def spied(rows, *args):
            key = (name, rows)
            self.calls[key] = self.calls.get(key, 0) + 1
            return fn(rows, *args)

        return spied

    def repeats(self) -> dict[tuple[str, tuple], int]:
        return {key: k for key, k in self.calls.items() if k > 1}


LIMIT = 100
RUNS = []


@per_table
def cells(H: HyperTable, limit: int) -> tuple[int, ...]:
    """The distinct cells of H; raises when limit is below its size."""
    RUNS.append(limit)
    if limit < H.n:
        raise errors.BudgetExceeded(f"{H.n} elements exceed limit {limit}")
    return tuple(sorted({cell for row in H.rows for cell in row}))


class TestPerTable:
    def test_other_arguments_get_their_own_entry(self):
        H = fresh(corpus.h9())
        assert cells(H, 10_000) is not cells(H, LIMIT)
        assert cells(H, 10_000) == cells(H, LIMIT)

    def test_exceptions_are_not_cached(self):
        H = fresh(corpus.h9())
        RUNS.clear()
        for _ in range(2):
            with pytest.raises(errors.BudgetExceeded):
                cells(H, 3)
        assert len(RUNS) == 2
        assert cells(H, 3 * LIMIT) == cells(fresh(corpus.h9()), LIMIT)

    def test_equality_and_hash_ignore_the_memo(self):
        H = fresh(corpus.h9())
        G = fresh(corpus.h9())
        is_semihypergroup(H)
        assert H.memo and not G.memo
        assert H == G and hash(H) == hash(G)

    def test_memo_belongs_to_one_table(self, monkeypatch):
        spy = Spy(monkeypatch, "assoc_witness")
        H, G = fresh(corpus.h9()), fresh(corpus.h9())
        assert is_semihypergroup(H) == is_semihypergroup(G) == (True, None)
        is_semihypergroup(H)
        assert list(spy.calls.values()) == [2]  # one scan by each table

    def test_equal_rows_share_a_memo_within_a_scope(self, monkeypatch):
        spy = Spy(monkeypatch, "assoc_witness")
        H = corpus.h9()
        with shared_memos():
            G, R = fresh(H), HyperTable([f"r{lab}" for lab in H.names], H.rows)
            assert G.memo is R.memo
            assert is_semihypergroup(G) == is_semihypergroup(R) == (True, None)
            # the labelled facts keep each table's own labels
            assert quotient_by(G, beta(G)).table.names == ("e", "x", "z", "v")
            assert quotient_by(R, beta(R)).table.names == ("re", "rx", "rz", "rv")
        assert spy.calls[("assoc_witness", H.rows)] == 1
        assert spy.repeats() == {}
        assert fresh(H).memo is not G.memo

    def test_equal_rows_share_one_coset_partition(self):
        H = corpus.h9()
        with shared_memos():
            G, R = fresh(H), HyperTable([f"r{lab}" for lab in H.names], H.rows)
            sigma = congruence_mod(G, G.subset(["e", "a"]))
            assert congruence_mod(R, R.subset(["re", "ra"])) is sigma

    def test_memo_makes_no_reference_cycle(self):
        # a memoised result that referred back to its table would keep the
        # table alive until the cyclic collector ran
        H = fresh(corpus.h9())
        q = weakref.ref(quotient_by(H, beta(H)))
        gc.disable()
        try:
            del H
            assert q() is None
        finally:
            gc.enable()

    def test_a_default_is_refused(self):
        # f(H) and f(H, 2) would be two keys for one fact
        def f(H, a, b=2):
            return a + b

        with pytest.raises(TypeError):
            per_table(f)
        with pytest.raises(TypeError):
            per_table(labelled=True)(f)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((1,), {"c": 3}),  # keywords are refused
            ((), {"b": 2}),  # a missing
            ((1, 2, 3), {}),  # too many positionals
            ((1,), {"a": 1}),  # a given twice
        ],
    )
    def test_bad_calls_raise_and_leave_no_entry(self, args, kwargs):
        calls = []

        @per_table
        def f(H, a, b):
            calls.append((a, b))
            return a + b

        H = fresh(corpus.cyclic_group(2))
        with pytest.raises(TypeError):
            f(H, *args, **kwargs)
        assert calls == [] and H.memo == {}


@pytest.fixture
def table_files(tmp_path):
    paths = {}
    for name in ("h9", "z2", "v4"):
        path = tmp_path / f"{name}.hyp"
        path.write_text(format_hyp(corpus.fixtures()[name]), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "h9"),
        ("beta", "h9"),
        ("gamma", "h9"),
        ("quotient", "h9", "--sub", "e,a"),
        ("quotient", "h9", "--sub", "e,a,b,c"),
        ("subs", "h9"),
        ("heart", "h9"),
        ("derived", "h9"),
        ("sr-enum", "h9"),
        ("product", "h9", "z2"),
        ("freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"),
        ("freeprod", "--factors", "h9,v4", "psi", "x@0 a@1 y@0"),
        ("freeprod", "--factors", "h9,v4", "conjectures", "--subs", "e,a;e,a",
         "--max-len", "3"),
    ],
)
def test_each_table_runs_each_kernel_once(capsys, monkeypatch, table_files, argv):
    spy = Spy(monkeypatch, "assoc_witness", "congruence_closure")
    argv = [",".join(table_files.get(t, t) for t in arg.split(",")) for arg in argv]
    assert main(["--json", *argv]) == 0
    capsys.readouterr()
    assert spy.calls
    assert spy.repeats() == {}


def test_psi_closes_only_the_factor_tables(capsys, monkeypatch):
    # psi reads each factor's gamma classes; no fundamental group gets a
    # beta of its own
    spy = Spy(monkeypatch, "congruence_closure")
    assert main(["freeprod", "--factors", "h9,s3", "psi", "x@0 s@1 z@0"]) == 0
    capsys.readouterr()
    fixtures = corpus.fixtures()
    assert spy.calls == {
        ("congruence_closure", fixtures["h9"].rows): 1,
        ("congruence_closure", fixtures["s3"].rows): 1,
    }


def test_eval_closes_no_table(capsys, monkeypatch):
    # word arithmetic reads each factor's identity and inverses, no beta
    spy = Spy(monkeypatch, "congruence_closure")
    assert main(["freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"]) == 0
    capsys.readouterr()
    assert spy.calls == {}


def count_coset_builds(monkeypatch) -> list[tuple[tuple, int]]:
    """(rows, mask) of every core.build_cosets call from now on, under
    each module name that holds the builder."""
    builds = []
    build = core.build_cosets

    def counted(H, mask):
        builds.append((H.rows, mask))
        return build(H, mask)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("hyperkernel") and vars(module).get("build_cosets") is build:
            monkeypatch.setattr(module, "build_cosets", counted)
    return builds


@pytest.mark.parametrize(
    "argv, records",
    [
        # (h9, {e,a}), the lifted kernel on h9, and the identity of H/beta
        (("quotient", "h9", "--sub", "e,a"), 3),
        # the 5 subgroups of H/beta, each read by is_normal and then by
        # congruence_mod, and the 10 product-closed sets of the lattice
        (("sr-enum", "h9"), 15),
    ],
)
def test_each_coset_record_is_built_once(capsys, monkeypatch, argv, records):
    builds = count_coset_builds(monkeypatch)
    assert main(["--json", *argv]) == 0
    capsys.readouterr()
    assert len(builds) == len(set(builds)) == records


def test_the_lattice_keeps_no_coset_record():
    # subhypergroups builds each closed set's record and drops it; the
    # memo would keep both lists of every closed set
    H = fresh(core.direct_product(corpus.h9(), corpus.cyclic_group(2)))
    assert len(quotients.subhypergroups(H).all) > 2
    assert not [v for v in H.memo.values() if isinstance(v, core.Cosets)]
    assert isinstance(core.cosets(H, H.carrier()), core.Cosets)
    assert core.cosets(H, H.carrier()) in H.memo.values()


def test_nothing_is_shared_across_commands(capsys, monkeypatch, table_files):
    spy = Spy(monkeypatch, "assoc_witness")
    for _ in range(2):
        assert main(["--json", "check", table_files["h9"]]) == 0
    capsys.readouterr()
    assert spy.calls == {("assoc_witness", corpus.h9().rows): 2}


README_COMMANDS = [
    ("check", "h9"),
    ("beta", "h9", "--json"),
    ("gamma", "h9", "--oracle", "--nmax", "4"),
    ("heart", "h9"),
    ("derived", "s3"),
    ("subs", "h9", "--closed", "--normal"),
    ("quotient", "h9", "--sub", "e,a"),
    ("product", "h9", "z2"),
    ("sr-enum", "v4"),
    ("freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"),
    ("freeprod", "--factors", "s3,z4", "psi", "s@0 1@1 s@0"),
    ("freeprod", "--factors", "h9,v4", "conjectures", "--subs", "e,a;e,a",
     "--max-len", "2"),
]


def test_fixtures_take_the_memo_of_the_command_that_loads_them(capsys, monkeypatch):
    # The README commands one after another in one process: a fixture
    # built by an earlier command must not bring that command's memo.
    spy = Spy(monkeypatch, "assoc_witness", "congruence_closure")
    repeats = {}
    for argv in README_COMMANDS:
        spy.calls.clear()
        assert main(list(argv)) == 0
        repeats[argv] = spy.repeats()
    capsys.readouterr()
    assert repeats == {argv: {} for argv in README_COMMANDS}
