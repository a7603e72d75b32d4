"""Cross-checking suites: reports, warnings, and failure collection."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rookalg.algebra import basis_enumerate
from rookalg.combinatorics import PartialInjection, rook_enumerate
from rookalg.errors import CapacityError
from rookalg.nupoly import NuPoly, format_rational
from rookalg.oracle import BiinvariantElement, Context, dc_multiply, gen_hole
from rookalg import verify
from rookalg.tables import StructureTable, _det_factors, det_polynomial, structure_table, trace_form
from rookalg.verify import (
    VerificationReport,
    crosscheck_multi,
    crosscheck_structure,
    dimension_suite,
    gram_suite,
    limit_suite,
    monomial_images,
    relation_suite,
    semisimplicity_probe,
)


def test_report_shape():
    r = dimension_suite(2)
    assert isinstance(r, VerificationReport)
    assert r.passed
    assert r.status == "pass"
    assert r.summary_line().startswith("PASS dimensions")
    obj = r.to_json_obj()
    assert set(obj) == {
        "suite",
        "params",
        "status",
        "warnings",
        "counterexamples",
        "metrics",
    }
    # the record keeps the timing; its canonical JSON leaves it out
    assert "elapsed_s" in obj["metrics"]
    assert "elapsed_s" not in json.loads(r.canonical_json())["metrics"]


def test_report_json_is_deterministic():
    assert dimension_suite(2).canonical_json() == dimension_suite(2).canonical_json()
    assert relation_suite(2, 2).canonical_json() == relation_suite(2, 2).canonical_json()


def test_dimension_suite_counts():
    r = dimension_suite(2)
    assert r.passed
    assert r.metrics["dimension"] == 7


def test_dimension_suite_capacity():
    with pytest.raises(CapacityError):
        dimension_suite(7)


@pytest.mark.parametrize("alpha,n", [(1, 1), (1, 2), (2, 2)])
def test_relation_suite_passes(alpha, n):
    r = relation_suite(alpha, n)
    assert r.passed
    assert r.metrics["failure_count"] == 0
    assert r.params == {"alpha": alpha, "n": n}


def test_relation_suite_flags_printed_size_formula():
    r = relation_suite(2, 2)
    assert r.passed
    assert len(r.warnings) == 1
    assert "(n!)^2/(n-r)!" in r.warnings[0]
    assert "authoritative" in r.warnings[0]


def test_relation_suite_checks_biinvariance_at_small_degree():
    r = relation_suite(2, 2)
    assert r.metrics["biinvariance_checked"] == 7


@pytest.mark.parametrize("alpha,n", [(1, 1), (1, 3), (2, 2)])
def test_crosscheck_structure_passes(alpha, n):
    r = crosscheck_structure(alpha, n)
    assert r.passed
    assert r.metrics["pairs"] == structure_table(alpha).dimension ** 2
    assert r.metrics["failure_count"] == 0


def test_crosscheck_dual_route_runs_at_small_degree():
    r = crosscheck_structure(1, 2)
    assert r.metrics["dual_route_pairs"] > 0


def _tampered(t, rows):
    """t with the entries {(p, q): row} replaced, through the checking constructor."""
    return StructureTable.from_pairs(t.alpha, t.basis, {**t.constants, **rows}.items())


def test_crosscheck_detects_a_tampered_table():
    t = structure_table(1)
    # one row for three pairs: its right-hand side is built once, but every
    # pair is still reported
    bad_row = ((0, NuPoly.one()),)
    bad = _tampered(t, {(0, 1): bad_row, (1, 0): bad_row, (1, 1): bad_row})
    r = crosscheck_structure(1, 2, table=bad)
    assert not r.passed
    assert r.status == "fail"
    assert r.metrics["failure_count"] == 3
    assert len(r.counterexamples) == 3
    kinds = {c["kind"] for c in r.counterexamples}
    assert kinds == {"structure-mismatch"}
    assert [(c["p"], c["q"]) for c in r.counterexamples] == [(0, 1), (1, 0), (1, 1)]
    # the table side is the shared row at n = 2, 1 * image(basis[0]); the
    # convolution side is each pair's own product
    imgs = monomial_images(t.basis, Context(1, 2))
    for c in r.counterexamples:
        assert c["table"] == [[list(k), v] for k, v in imgs[0].to_pairs()]
        lhs = dc_multiply(imgs[c["p"]], imgs[c["q"]])
        assert c["convolution"] == [[list(k), v] for k, v in lhs.to_pairs()]
    assert r.summary_line().startswith("FAIL")


def test_counterexample_cap():
    t = structure_table(1)
    bad_row = ((0, NuPoly.one()),)
    bad = _tampered(t, {(0, 1): bad_row, (1, 0): bad_row, (1, 1): bad_row})
    r = crosscheck_structure(1, 2, table=bad, max_counterexamples=1)
    assert len(r.counterexamples) == 1
    # the count keeps tallying past the cap
    assert r.metrics["failure_count"] == 3


def test_negative_counterexample_cap_is_refused():
    with pytest.raises(ValueError):
        crosscheck_multi(1, max_counterexamples=-1)
    with pytest.raises(ValueError):
        limit_suite(1, max_counterexamples=-1)


def test_crosscheck_multi_merges_the_points(monkeypatch):
    bad_row = ((0, NuPoly.one()),)
    bad = _tampered(structure_table(1), {(0, 1): bad_row, (1, 0): bad_row, (1, 1): bad_row})
    monkeypatch.setattr(verify, "structure_table", lambda *a, **k: bad)
    r = crosscheck_multi(1, ns=(1, 2), max_counterexamples=4)
    assert r.status == "fail"
    # at n = 1 the true (1,1) product (nu-1) T1 + nu is nu = 1, the tampered row
    assert r.metrics["failure_count"] == 5
    assert [(c["n"], c["p"], c["q"]) for c in r.counterexamples] == [
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]


def test_crosscheck_multi_pins_the_degree():
    r = crosscheck_multi(1)
    assert r.passed
    assert r.metrics["degree_pinned"] is True
    assert r.params["ns"] == [1, 2]
    r2 = crosscheck_multi(2)
    assert r2.passed
    assert r2.metrics["degree_pinned"] is True
    assert r2.metrics["points"] == 3


def test_crosscheck_multi_warns_when_not_pinned():
    r = crosscheck_multi(2, ns=(2,))
    assert r.passed
    assert r.metrics["degree_pinned"] is False
    assert any("pin" in w for w in r.warnings)


def _null_vector(imgs) -> list[Fraction]:
    """A nonzero k with sum_r k[r] imgs[r] = 0: eliminate [M | I] on M's columns, read I's part."""
    keys = list(dict.fromkeys(key for x in imgs for key, _ in x.items()))
    dim = len(imgs)
    a = [[Fraction(x.coefficient(key)) for key in keys] + [Fraction(r == i) for i in range(dim)]
         for r, x in enumerate(imgs)]
    top = 0
    for col in range(len(keys)):
        piv = next((i for i in range(top, dim) if a[i][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        for i in range(top + 1, dim):
            f = a[i][col] / a[top][col]
            a[i] = [u - f * v for u, v in zip(a[i], a[top])]
        top += 1
    assert top < dim, "the images are independent"
    return a[top][len(keys):]


def test_crosscheck_multi_catches_a_tamper_in_the_null_space_of_dependent_images(monkeypatch):
    # entry (5, 7) plus (nu-3)(nu-4)[(2-nu) k1 + (nu-1) k2], with k_n a null vector of
    # the images at n: it vanishes at n = 3, 4 and is a null vector at n = 1, 2, so
    # it agrees with the oracle at n = 1..4, and it keeps the degree at 3
    t = structure_table(3)
    k1, k2 = (_null_vector(monomial_images(t.basis, Context(3, n))) for n in (1, 2))
    w = NuPoly((12, -7, 1))  # (nu - 3)(nu - 4)
    row = dict(t.product(5, 7))
    for r in range(t.dimension):
        extra = w * (NuPoly((2, -1)) * NuPoly((k1[r],)) + NuPoly((-1, 1)) * NuPoly((k2[r],)))
        row[r] = row.get(r, NuPoly.zero()) + extra
    bad = _tampered(t, {(5, 7): tuple(sorted(((r, p) for r, p in row.items() if p), key=lambda e: e[0]))})
    assert bad != t and bad.max_degree() == t.max_degree() == 3
    monkeypatch.setattr(verify, "structure_table", lambda *a, **k: bad)
    # the old default points agree everywhere, and only two of them are independent
    old = crosscheck_multi(3, ns=(1, 2, 3, 4))
    assert old.passed
    assert old.metrics["independent_points"] == [3, 4]
    assert old.metrics["degree_pinned"] is False
    # the default points are all independent, and n = 5 catches the tamper
    r = crosscheck_multi(3)
    assert r.status == "fail"
    assert r.params["ns"] == r.metrics["independent_points"] == [3, 4, 5]
    assert [(c["n"], c["p"], c["q"]) for c in r.counterexamples] == [(5, 5, 7)]


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_image_rank_counts_the_rooks_of_corank_at_most_n(alpha):
    # measured: 6, 7, 7 at alpha = 2 and 24, 33, 34, 34, 34 at alpha = 3, n = 1..5
    t = structure_table(alpha)
    for n in range(1, 6):
        expected = sum(1 for s in rook_enumerate(alpha) if alpha - s.rank <= n)
        assert verify._image_rank(monomial_images(t.basis, Context(alpha, n))) == expected


@pytest.mark.parametrize("alpha, expected", [(1, {}), (2, {1: 1}), (3, {1: 10, 2: 1})])
def test_trace_form_nullity_is_the_rank_defect_of_the_images(alpha, expected):
    # two routes to one number: the nullity of the trace form at nu = x, and
    # dimension minus the oracle's rank of the monomial images at n = x
    t = structure_table(alpha)
    nullities, _ = _det_factors(trace_form(t))
    defects = {}
    for x in range(1, alpha):
        defects[x] = t.dimension - verify._image_rank(monomial_images(t.basis, Context(alpha, x)))
    assert {x: k for x, k in nullities.items() if x >= 1} == defects == expected
    # at x >= alpha the images are independent, and the trace form is not singular
    assert all(x < alpha for x in nullities)


@pytest.mark.parametrize("alpha", [1, 2])
def test_limit_suite(alpha):
    r = limit_suite(alpha)
    assert r.passed
    assert r.metrics["pairs"] == structure_table(alpha).dimension ** 2


def test_limit_suite_reports_a_divergent_entry(monkeypatch):
    bad = _tampered(structure_table(1), {(0, 0): ((0, NuPoly.nu()),)})
    monkeypatch.setattr(verify, "structure_table", lambda *a, **k: bad)
    r = limit_suite(1)
    assert r.status == "fail"
    assert [c["kind"] for c in r.counterexamples] == ["divergent-entry"]
    assert set(r.metrics) == {"failure_count", "elapsed_s"}
    assert r.metrics["failure_count"] == 1


def test_gram_suite():
    r = gram_suite(2)
    assert r.passed
    assert r.metrics["first_positive_definite_integer"] == 2
    # oracle agreement is checked at two integer points for the whole basis
    assert r.metrics["agreement_pairs"] == 98


def test_gram_suite_refuses_past_the_oracle_cap():
    with pytest.raises(CapacityError, match="degree 9"):
        gram_suite(2, ns=(7,))


def test_semisimplicity_probe_alpha1():
    r = semisimplicity_probe(1)
    assert r.passed
    assert r.metrics["det_degree"] == 1
    assert r.metrics["det_leading"] == "1/1"
    assert r.metrics["rational_roots"] == ["0/1"]


def test_semisimplicity_probe_alpha2():
    r = semisimplicity_probe(2)
    assert r.passed
    assert r.metrics["det_degree"] == 6
    assert r.metrics["rational_roots"] == ["0/1"] * 5 + ["1/1"]


@pytest.mark.parametrize("alpha", [2, 3])
def test_root_multiplicities_count_the_rational_roots(alpha):
    # read back from the report JSON, so the multiplicities must serialize
    m = json.loads(semisimplicity_probe(alpha).canonical_json())["metrics"]
    assert sum(m["root_multiplicities"].values()) == len(m["rational_roots"])
    expanded = [r for r, k in m["root_multiplicities"].items() for _ in range(k)]
    assert expanded == m["rational_roots"]


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_probe_roots_match_factoring_the_whole_determinant(alpha):
    # the reference route: sympy factors the expanded determinant
    det = det_polynomial(trace_form(structure_table(alpha)))
    expected = {format_rational(r): k for r, k in verify._rational_roots(det).items()}
    assert semisimplicity_probe(alpha).metrics["root_multiplicities"] == expected


def test_probe_adds_the_cofactor_roots_to_the_nullities(monkeypatch):
    # det = nu^2 (2 nu - 1): nullity 1 at 0, and a cofactor nu (2 nu - 1)
    # whose roots sympy finds, 0 among them
    z = NuPoly.zero()
    monkeypatch.setattr(verify, "trace_form", lambda tbl: [[NuPoly((0, 0, 1)), z], [z, NuPoly((-1, 2))]])
    m = semisimplicity_probe(1).metrics
    assert m["root_multiplicities"] == {"0/1": 2, "1/2": 1}
    assert m["det_degree"] == 3
    assert m["det_leading"] == "2/1"


def test_probe_does_not_import_sympy_when_the_cofactor_is_constant():
    # a fresh interpreter, so no earlier test has imported sympy already
    import rookalg

    src = str(Path(rookalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys\n"
        "from rookalg.verify import semisimplicity_probe\n"
        "assert semisimplicity_probe(3).passed\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_monomial_images():
    ctx = Context(2, 2)
    basis = basis_enumerate(2)
    imgs = monomial_images(basis, ctx)
    assert imgs[0] == BiinvariantElement.basis(ctx, PartialInjection.identity(2))
    assert imgs[2] == gen_hole(1, ctx)
    assert len(imgs) == 7
