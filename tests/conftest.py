import generators
import pytest

from hyperkernel import corpus


@pytest.fixture(scope="session")
def h9():
    return corpus.h9()


@pytest.fixture(scope="session")
def h9q():
    return corpus.h9_quotient()


@pytest.fixture(scope="session")
def full_corpus():
    return generators.corpus()
