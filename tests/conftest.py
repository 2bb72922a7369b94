import pytest

from likeiper.bigreal import BigReal
from likeiper.constants import load_stieltjes
from likeiper.lambda_core import lambda_table
from likeiper.zeros import load_zeros


@pytest.fixture(scope="session")
def stieltjes():
    return load_stieltjes()


@pytest.fixture(scope="session")
def zeros():
    return load_zeros()


@pytest.fixture(scope="session")
def table7():
    """lambda(1..7) at 50 digits."""
    return lambda_table(7, 50)


@pytest.fixture(scope="session")
def table15():
    """lambda(1..15) at 50 digits."""
    return lambda_table(15, 50)


@pytest.fixture(scope="session")
def table32():
    """lambda(1..32) at 50 digits."""
    return lambda_table(32, 50)


def agrees_to(x, other, digits):
    """The tests' "x agrees with ``other`` to D digits": |x - other| < 1/2 10^-D, relative to
    |x| when |x| >= 1, decided exactly.  An ``other`` that is not a ``BigReal`` is read as
    ``BigReal(other, x.precision)``."""
    a = x.to_fraction()
    b = (other if isinstance(other, BigReal) else BigReal(other, x.precision)).to_fraction()
    return abs(a - b) < max(abs(a), 1) / (2 * 10**digits)
