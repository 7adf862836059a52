import numpy as np
import pytest

from nlsground import DomainSpec, Grid

# Discrete Dirichlet eigenvalues of the 1D second-difference operator on n
# interior nodes over an interval of length L (independent oracle: the
# tridiagonal matrix diagonalizes in the discrete sine basis):
#     lambda_j = (2/h^2) (1 - cos(j pi h / L)),  h = L/(n+1)


def tridiag_eigenvalue(j: int, n: int, length: float = 1.0) -> float:
    h = length / (n + 1)
    return 2.0 / h**2 * (1.0 - np.cos(j * np.pi * h / length))


@pytest.fixture(scope="session")
def unit_interval():
    return DomainSpec.interval(0.0, 1.0)


@pytest.fixture(scope="session")
def grid255(unit_interval):
    return Grid(unit_interval, 255)


@pytest.fixture(scope="session")
def grid511(unit_interval):
    return Grid(unit_interval, 511)


@pytest.fixture(scope="session")
def grid2047(unit_interval):
    return Grid(unit_interval, 2047)


@pytest.fixture(scope="session")
def unit_square():
    return DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
