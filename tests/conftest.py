"""Shared fixtures.

`leibniz_det` is the reference determinant of the small matrices in the
table tests, and `reference_reduce` the reference rewriting engine
of the algebra tests.  The acceptance tests record one line per criterion;
the terminal summary hook replays them at the end of the run so the
pass/fail ledger is visible even when output capture is on.
"""

import time
from contextlib import contextmanager
from itertools import permutations

import pytest

from rookalg.algebra import _ONE, Monomial, _emit, _measure, _sites
from rookalg.combinatorics import Permutation
from rookalg.errors import ConsistencyError
from rookalg.nupoly import NuPoly
from rookalg.sparse import combine

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


def _leibniz_det(mat) -> NuPoly:
    """det M(nu) by the Leibniz expansion: the signed sum, over permutations, of products of entries."""
    size = len(mat)
    total = NuPoly.zero()
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = NuPoly.constant((-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


@pytest.fixture
def leibniz_det():
    """det M(nu) straight from its definition, with no elimination; for small matrices."""
    return _leibniz_det


class _ReferenceNormalizer:
    """The rewriting engine on NuPoly coefficients, every step summed by `combine`.

    Same rule order and measure check as `algebra.Normalizer`, but one
    memo keyed by the whole state (images, js), so `_cache` lists every
    state the recursion visits, where the engine's slide memo keeps one
    entry per js; and no packing: each normal form is a dict from leaf ids
    to interned NuPolys, so no coefficient size needs a digit width.
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
def reference_normalizer():
    """A fresh reference engine; its `reduce`, `monomials` and `stats` stand in for a Normalizer's."""
    return _ReferenceNormalizer()


@pytest.fixture
def reference_reduce(reference_normalizer):
    """The normal form of a state (images, js) as Monomial -> NuPoly, by the NuPoly engine.

    Each test gets a fresh memo.
    """
    nz = reference_normalizer
    return lambda images, js: {nz.monomials[i]: c for i, c in nz.reduce(images, js).items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
