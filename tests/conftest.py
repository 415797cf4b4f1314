import math
from fractions import Fraction

import pytest

from traversale import Conic, PLine, canonical_chart, linalg
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


class FractionCount:
    """Fraction constructions and ``linalg`` Fraction readings, counted while ``label`` is set.

    ``counts`` maps (label, kind) to a count; kind is "fraction" for a
    built Fraction and "primitive" for entries holding a Fraction, on
    which ``math.gcd`` raises TypeError inside a ``linalg`` reduction.
    """

    def __init__(self):
        self.label = None
        self.counts = {}

    def count(self, kind):
        if self.label is not None:
            key = (self.label, kind)
            self.counts[key] = self.counts.get(key, 0) + 1

    def uncounted(self, fn):
        """``fn`` wrapped so that nothing is counted while it runs."""

        def call(*args):
            label, self.label = self.label, None
            try:
                return fn(*args)
            finally:
                self.label = label

        return call


@pytest.fixture
def fraction_count(monkeypatch):
    counter = FractionCount()
    real_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        counter.count("fraction")
        return real_new(cls, *args, **kwargs)

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, *values):
            try:
                return math.gcd(*values)
            except TypeError:
                counter.count("primitive")
                raise

    monkeypatch.setattr(Fraction, "__new__", new)
    monkeypatch.setattr(linalg, "math", CountingMath())
    return counter
