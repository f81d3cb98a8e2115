import numpy as np
import pytest

from hammerstein.problem import log_sin_benchmark, manufactured_cosine_square


@pytest.fixture(scope="session")
def benchmark_problem():
    return log_sin_benchmark()


@pytest.fixture(scope="session")
def cosine_problem():
    # shared instance so the memoized manufactured rhs is paid for once
    return manufactured_cosine_square(quad_tol=1e-10)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
