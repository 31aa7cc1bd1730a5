"""Backend parity: the compiled kernels must match the pure ones exactly."""

import pytest

from hyperkernel import corpus, kernels
from oracles import all_class_assignments

BACKENDS = kernels.backends()
needs_both = pytest.mark.skipif(
    len(BACKENDS) < 2, reason="compiled extension not built"
)


def _tables():
    out = dict(corpus.corpus())
    from hyperkernel.core import direct_product

    out["h9xz2"] = direct_product(corpus.h9(), corpus.cyclic_group(2))
    return out


@needs_both
class TestParity:
    def test_assoc_witness(self):
        for name, H in _tables().items():
            results = {k: b.assoc_witness(H.rows, H.n) for k, b in BACKENDS.items()}
            assert len(set(results.values())) == 1, name

    def test_census(self):
        for name, H in _tables().items():
            results = {k: b.census(H.rows, H.n, 100000) for k, b in BACKENDS.items()}
            vals = list(results.values())
            assert all(v == vals[0] for v in vals), name

    def test_census_cap_behaviour(self):
        H = corpus.h9()
        for b in BACKENDS.values():
            assert b.census(H.rows, H.n, 2) is None

    def test_oracle_merge(self):
        for name, H in _tables().items():
            if H.n > 9:
                continue
            results = {
                k: b.oracle_merge(H.rows, H.n, 3) for k, b in BACKENDS.items()
            }
            vals = list(results.values())
            assert all(v == vals[0] for v in vals), name

    def test_sr_check_all_partitions(self):
        for name, H in _tables().items():
            if H.n > 5:
                continue
            for class_of in all_class_assignments(H.n):
                results = {
                    k: b.sr_check(H.rows, H.n, list(class_of))
                    for k, b in BACKENDS.items()
                }
                assert len(set(results.values())) == 1, (name, class_of)

    def test_sr_check_h9_spot(self):
        H = corpus.h9()
        good = [0, 0, 0, 0, 1, 1, 2, 2, 3]
        bad = list(range(9))
        for b in BACKENDS.values():
            assert b.sr_check(H.rows, H.n, good)
            assert not b.sr_check(H.rows, H.n, bad)


def test_wide_carrier_uses_pure_fallback():
    # carriers beyond the compiled mask width must still work
    from hyperkernel.core import total_hypergroup

    T = total_hypergroup(70)
    assert kernels.census(T.rows, T.n, 10) == [T.full_mask]
    assert kernels.oracle_merge(T.rows, T.n, 2) == [0] * 70
