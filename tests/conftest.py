import time

import pytest

from tightpoly.classifier import classify_tight
from tightpoly.toddcox import regular_rep
from tightpoly.words import (
    Presentation,
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    lambda_k_presentation,
)

CENSUS_TYPES = [
    (p, q) for p in range(2, 26) for q in range(2, 26) if 2 * p * q <= 100
]


@pytest.fixture(scope="session")
def census_grid():
    """The orientable census over the 108 types with 2pq <= 100, shared by
    the acceptance criteria and the certificate differential test."""
    start = time.monotonic()
    records = {
        (p, q): classify_tight(p, q, require_orientable=True)
        for p, q in CENSUS_TYPES
    }
    return {"records": records, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="session")
def rep_gamma36():
    return regular_rep(gamma_pq_presentation(3, 6))


@pytest.fixture(scope="session")
def rep_cube():
    return regular_rep(coxeter_presentation((4, 3)))


@pytest.fixture(scope="session")
def rep_simplex():
    return regular_rep(coxeter_presentation((3, 3)))


@pytest.fixture(scope="session")
def rep_lambda1():
    return regular_rep(lambda_k_presentation(1))


@pytest.fixture(scope="session")
def rep_lambda3():
    return regular_rep(lambda_k_presentation(3))


@pytest.fixture(scope="session")
def rep_gamma364():
    return regular_rep(gamma_tuple_presentation((3, 6, 4)))


@pytest.fixture(scope="session")
def rep_degenerate_x0x2():
    """[2,2] with the extra relator x0 x2: forces x0 = x2."""
    base = coxeter_presentation((2, 2))
    return regular_rep(Presentation(3, base.relators + ((0, 2),)))
