"""Shared fixtures.

`interpolated_det` is the reference determinant of the table and
verification tests.  The acceptance tests record one line per criterion;
the terminal summary hook replays them at the end of the run so the
pass/fail ledger is visible even when output capture is on.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rookalg.nupoly import NuPoly
from rookalg.tables import _pivots, evaluate_matrix

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance():
    @contextmanager
    def criterion(index, title, budget=None):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            ACCEPTANCE_LINES.append(f"AC{index:02d} {title}: FAIL")
            raise
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            ACCEPTANCE_LINES.append(
                f"AC{index:02d} {title}: FAIL (took {elapsed:.1f}s, budget {budget:.0f}s)"
            )
            raise AssertionError(
                f"criterion {index} exceeded its time budget: "
                f"{elapsed:.1f}s >= {budget:.0f}s"
            )
        line = f"AC{index:02d} {title}: PASS ({elapsed:.2f}s)"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return criterion


def _point_det(mat, x) -> Fraction:
    """det M(x): the signed product of the pivots, 0 when a column has none."""
    det, count = Fraction(1), 0
    for _, piv, exchanged in _pivots(evaluate_matrix(mat, Fraction(x))):
        det *= -piv if exchanged else piv
        count += 1
    return det if count == len(mat) else Fraction(0)


def _interpolated_det(mat) -> NuPoly:
    """det M(nu) by Newton interpolation through all bound + 1 points x = 0..bound."""
    bound = sum(max((int(c.degree) for c in row if c), default=0) for row in mat)
    xs = list(range(bound + 1))
    coeffs = [_point_det(mat, x) for x in xs]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = NuPoly.zero()
    for i in reversed(range(len(xs))):
        poly = poly * (NuPoly.nu() - NuPoly.constant(xs[i])) + NuPoly.constant(coeffs[i])
    return poly


@pytest.fixture
def interpolated_det():
    """det M(nu) interpolated through every point, with no nullity factored out first."""
    return _interpolated_det


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
