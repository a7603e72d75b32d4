"""Acceptance criteria for the exact double-coset interpolation library.

Each test is one criterion. Every comparison is exact: Fraction and
integer equality throughout, no tolerances anywhere. The conftest hook
replays one pass/fail line per criterion at the end of the run.
"""

from fractions import Fraction

from rookalg.algebra import Monomial, Normalizer, basis_enumerate
from rookalg.combinatorics import (
    fixed_space_dimensions,
    rook_count,
    rook_enumerate,
)
from rookalg.nupoly import NuPoly
from rookalg.oracle import Context
from rookalg.tables import (
    check_associativity,
    det_polynomial,
    evaluate_matrix,
    gram_matrix,
    positive_definite,
    scaled_limit_table,
    structure_table,
    trace_form,
)
from rookalg.verify import (
    crosscheck_structure,
    limit_suite,
    monomial_images,
    relation_suite,
    semisimplicity_probe,
)

RELATION_POINTS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
CROSSCHECK_POINTS = [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 3)]


def test_ac01_dimension_counts(acceptance):
    with acceptance(1, "four counting routes agree for alpha 1..5", budget=5.0):
        expected = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546}
        for alpha, want in expected.items():
            assert rook_count(alpha) == want
            assert len(rook_enumerate(alpha)) == want
            dims = fixed_space_dimensions(alpha)
            assert sum(d * d for d in dims) == want
            assert len(basis_enumerate(alpha)) == want


def test_ac02_defining_relations_hold_in_the_oracle(acceptance):
    with acceptance(2, "oracle satisfies the defining relations", budget=60.0):
        for alpha, n in RELATION_POINTS:
            report = relation_suite(alpha, n)
            assert report.passed, report.summary_line()
            assert report.metrics["failure_count"] == 0


def test_ac03_structure_constants_match_the_oracle(acceptance):
    with acceptance(3, "interpolated table matches the oracle", budget=600.0):
        for alpha, n in CROSSCHECK_POINTS:
            report = crosscheck_structure(alpha, n)
            assert report.passed, report.summary_line()
            assert report.metrics["pairs"] == rook_count(alpha) ** 2
            assert report.metrics["failure_count"] == 0


def test_ac04_basis_bijection_and_normal_forms(acceptance):
    with acceptance(4, "admissible basis is in bijection and already normal"):
        for alpha in (1, 2, 3, 4):
            basis = basis_enumerate(alpha)
            assert len(basis) == rook_count(alpha)
            assert {m.to_rook() for m in basis} == set(rook_enumerate(alpha))
            for m in basis:
                assert Monomial.from_rook(m.to_rook()) == m
            nz = Normalizer()
            for m in basis:
                assert nz.reduce(m.perm, m.holes) == {m: NuPoly.one()}


def test_ac05_associativity(acceptance):
    with acceptance(5, "multiplication is associative"):
        assert check_associativity(structure_table(1)) == []
        assert check_associativity(structure_table(2)) == []
        assert check_associativity(structure_table(3), samples=1000, seed=20260815) == []


def test_ac06_trace_form_is_symmetric(acceptance):
    with acceptance(6, "trace form is symmetric as polynomials"):
        for alpha in (1, 2, 3):
            form = trace_form(structure_table(alpha))
            dim = len(form)
            for i in range(dim):
                for j in range(i):
                    assert form[i][j] == form[j][i]


def test_ac07_gram_positive_definite_window(acceptance):
    with acceptance(7, "Gram matrix positive definite on [alpha, 4*alpha]"):
        assert gram_matrix(1) == (
            (NuPoly.one(), NuPoly.zero()),
            (NuPoly.zero(), NuPoly.nu()),
        )
        for alpha in (1, 2, 3):
            gram = gram_matrix(alpha)
            for value in range(alpha, 4 * alpha + 1):
                assert positive_definite(evaluate_matrix(gram, value)), (
                    alpha,
                    value,
                )


def test_ac08_scaled_limits_reproduce_partial_injections(acceptance):
    with acceptance(8, "scaled limit table is the partial injection monoid"):
        for alpha in (1, 2, 3):
            table = structure_table(alpha)
            limit = scaled_limit_table(table)
            # one list per p, holding one entry per q
            assert [len(limits_of_p) for limits_of_p in limit] == [table.dimension] * table.dimension
            for ip, limits_of_p in enumerate(limit):
                for iq, entries in enumerate(limits_of_p):
                    assert len(entries) == 1
                    ir, coeff = entries[0]
                    assert coeff == Fraction(1)
                    want = table.basis[ip].to_rook() * table.basis[iq].to_rook()
                    assert table.basis[ir].to_rook() == want
            report = limit_suite(alpha)
            assert report.passed, report.summary_line()


def test_ac09_augmentation_is_multiplicative(acceptance):
    with acceptance(9, "augmentation is multiplicative and matches the oracle"):
        for alpha in (1, 2, 3):
            table = structure_table(alpha)
            basis = table.basis
            for ip, p in enumerate(basis):
                for iq, q in enumerate(basis):
                    total = NuPoly.zero()
                    for ir, poly in table.product(ip, iq):
                        total = total + poly * NuPoly.monomial(basis[ir].hole_degree)
                    assert total == NuPoly.monomial(p.hole_degree + q.hole_degree)
        for alpha, n in CROSSCHECK_POINTS:
            ctx = Context(alpha, n)
            basis = basis_enumerate(alpha)
            for m, image in zip(basis, monomial_images(basis, ctx)):
                assert image.augmentation() == Fraction(n**m.hole_degree)


def test_ac10_trace_form_determinant_is_nonzero(acceptance):
    with acceptance(10, "trace form determinant is a nonzero polynomial"):
        det1 = det_polynomial(trace_form(structure_table(1)))
        assert det1 == NuPoly.nu()
        for alpha in (1, 2, 3):
            report = semisimplicity_probe(alpha)
            assert report.passed, report.summary_line()
            assert report.metrics["det_degree"] >= 1
        probe2 = semisimplicity_probe(2)
        assert probe2.metrics["det_degree"] == 6
        assert probe2.metrics["rational_roots"] == ["0/1"] * 5 + ["1/1"]


def test_ac11_printed_size_formula_is_flagged(acceptance):
    with acceptance(11, "divergent printed coset size formula raises a warning"):
        report = relation_suite(2, 2)
        assert report.passed
        assert len(report.warnings) == 1
        assert "(n!)^2/(n-r)!" in report.warnings[0]
        assert "authoritative" in report.warnings[0]
        # where the two formulas coincide no warning is raised
        assert relation_suite(1, 1).warnings == ()
