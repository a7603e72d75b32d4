"""Shared fixtures.

`interpolated_det` is the reference determinant of the table and
verification tests, and `reference_reduce` the reference rewriting engine
of the algebra tests.  The acceptance tests record one line per criterion;
the terminal summary hook replays them at the end of the run so the
pass/fail ledger is visible even when output capture is on.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rookalg.algebra import _ONE, Monomial, _emit, _measure, _sites
from rookalg.combinatorics import Permutation
from rookalg.errors import ConsistencyError
from rookalg.nupoly import NuPoly
from rookalg.sparse import combine
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


class _ReferenceNormalizer:
    """The rewriting engine on NuPoly coefficients, every step summed by `combine`.

    Same rule order, measure check and memo keys as `algebra.Normalizer`,
    but no packing: each normal form is a dict from leaf ids to interned
    NuPolys, so no coefficient size needs a digit width.
    """

    def __init__(self):
        self._cache = {}
        self._polys = {}
        self.monomials = []
        self.stats = {"square": 0, "swap": 0, "erase": 0, "states": 0, "cache_hits": 0}

    def reduce(self, images, js):
        key = (images, js)
        hit = self._cache.get(key)
        if hit is not None:
            self.stats["cache_hits"] += 1
            return hit
        self.stats["states"] += 1
        intern = self._polys.setdefault
        sites = _sites(images, js)
        if not sites:
            self.monomials.append(Monomial(Permutation(images), js))
            out = {len(self.monomials) - 1: intern(_ONE.coeffs, _ONE)}
        else:
            rule, t = sites[0]
            self.stats[rule] += 1
            parent = None
            terms = []
            for w, images2, js2 in _emit(rule, t, images, js):
                # a shorter child decreases the measure by its length alone
                if len(js2) >= len(js):
                    if parent is None:
                        parent = _measure(images, js)
                    child = _measure(images2, js2)
                    if not child < parent:
                        raise ConsistencyError(
                            "termination measure failed to decrease",
                            {"rule": rule, "g": list(images), "parent": parent, "child": child, "js": js},
                        )
                terms.append((w, self.reduce(images2, js2).items()))
            out = {i: intern(c.coeffs, c) for i, c in combine(terms).items()}
        self._cache[key] = out
        return out


@pytest.fixture
def reference_reduce():
    """The normal form of a state (images, js) as Monomial -> NuPoly, by the NuPoly engine.

    Each test gets a fresh memo.
    """
    nz = _ReferenceNormalizer()
    return lambda images, js: {nz.monomials[i]: c for i, c in nz.reduce(images, js).items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
