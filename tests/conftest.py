import pytest

from traversale import Conic, PLine, canonical_chart
from traversale.synthetic import worked_quadrangle as _worked_quadrangle
from traversale.verify import verify_all


@pytest.fixture
def circle():
    return Conic.unit_circle()


@pytest.fixture
def x_axis_chart():
    return canonical_chart(PLine(0, 1, 0))


@pytest.fixture
def worked_quadrangle():
    """B=(1,0), C=(-1,0), D=(3/5,4/5), E=(5/13,12/13) on the unit circle."""
    return _worked_quadrangle()


@pytest.fixture(scope="session")
def seed_1_reports():
    """``verify_all(1)`` at default case counts, computed once per test run."""
    return verify_all(1)
