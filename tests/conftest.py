import numpy as np
import pytest
from hypothesis import settings

from hermlp import _blas, hermite

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("ci")

# The acceptance module records one verdict line per criterion; echoing them
# in the terminal summary keeps them visible even though pytest captures
# stdout during the tests themselves.
CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


class _SteppedPoints:
    """Stands in for numpy inside ``hermite`` and counts the points the
    recurrence steps: a step to order k + 1 writes two products, each into
    a buffer as long as the points still stepping.  It also counts the
    steps that rescale: each looks up its points above the limit once."""

    def __init__(self):
        self.products = 0
        self.rescales = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, a, b, out=None):
        self.products += out.size
        return np.multiply(a, b, out=out)

    def flatnonzero(self, a):
        self.rescales += 1
        return np.flatnonzero(a)

    @property
    def steps(self) -> int:
        return self.products // 2


@pytest.fixture
def stepped_points(monkeypatch):
    """Count the recurrence steps taken per point; order 0 takes none."""
    counter = _SteppedPoints()
    monkeypatch.setattr(hermite, "np", counter)
    return counter


class _FakeBlas:
    """A (get, set) pair that records every count it is set to."""

    def __init__(self, count):
        self.count = count
        self.history = []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.history.append(count)


@pytest.fixture
def fake_blas(monkeypatch):
    """OpenBLAS stood in for by a fake at 7 threads."""
    fake = _FakeBlas(7)
    monkeypatch.setattr(_blas, "_found", (fake.get, fake.set))
    return fake


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
