"""Cross-checking suites: reports, warnings, and failure collection."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rookalg.algebra import basis_enumerate
from rookalg.combinatorics import PartialInjection, rook_enumerate
from rookalg.errors import CapacityError, ConsistencyError
from rookalg.nupoly import NuPoly, parse_rational
from rookalg.oracle import BiinvariantElement, Context, coset_corank, dc_multiply, gen_hole
import rookalg
from rookalg import algebra, capacity, cli, tables, verify
from rookalg.tables import (
    StructureTable,
    _pivots,
    det_polynomial,
    evaluate_matrix,
    gram_matrix,
    positive_definite,
    structure_table,
    trace_form,
)
from rookalg.verify import (
    VerificationReport,
    crosscheck_multi,
    crosscheck_structure,
    dimension_suite,
    gram_suite,
    limit_suite,
    monomial_images,
    relation_suite,
    rook_images,
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


def test_crosscheck_detects_a_tampered_table(monkeypatch):
    t = structure_table(1)
    # one row for three pairs: its right-hand side is built once, but every
    # pair is still reported
    bad_row = ((0, NuPoly.one()),)
    bad = _tampered(t, {(0, 1): bad_row, (1, 0): bad_row, (1, 1): bad_row})
    monkeypatch.setattr(verify, "structure_table", lambda *a, **k: bad)
    r = crosscheck_structure(1, 2)
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


def test_counterexample_cap(monkeypatch):
    t = structure_table(1)
    bad_row = ((0, NuPoly.one()),)
    bad = _tampered(t, {(0, 1): bad_row, (1, 0): bad_row, (1, 1): bad_row})
    monkeypatch.setattr(verify, "structure_table", lambda *a, **k: bad)
    r = crosscheck_structure(1, 2, max_counterexamples=1)
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


def test_crosscheck_multi_forms_each_points_images_once(monkeypatch):
    # the images a point is checked with are the ones its independence is read from
    calls = []
    original = verify.monomial_images

    def counted(basis, ctx):
        calls.append(ctx.n)
        return original(basis, ctx)

    monkeypatch.setattr(verify, "monomial_images", counted)
    r = crosscheck_multi(2)
    assert r.passed
    assert calls == r.params["ns"] == [2, 3, 4]


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


def _rank(mat) -> int:
    """Rank over Q of a rational matrix: the number of pivots _pivots finds."""
    return sum(1 for _ in _pivots([list(map(Fraction, row)) for row in mat]))


def _image_rank(imgs) -> int:
    """Rank over Q of the images, as coefficient vectors over the coset keys they use."""
    keys = list(dict.fromkeys(k for x in imgs for k, _ in x.items()))
    return _rank([[x.coefficient(k) for k in keys] for x in imgs])


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_image_rank_counts_the_rooks_of_corank_at_most_n(alpha):
    # measured: 6, 7, 7 at alpha = 2 and 24, 33, 34, 34, 34 at alpha = 3, n = 1..5
    t = structure_table(alpha)
    for n in range(1, 6):
        expected = sum(1 for s in rook_enumerate(alpha) if alpha - s.rank <= n)
        assert _image_rank(monomial_images(t.basis, Context(alpha, n))) == expected


@pytest.mark.parametrize("alpha, expected", [(1, {}), (2, {1: 1}), (3, {1: 10, 2: 1})])
def test_trace_form_nullity_is_the_rank_defect_of_the_images(alpha, expected):
    # two routes to one number: the nullity of the trace form at nu = x, and
    # dimension minus the oracle's rank of the monomial images at n = x
    t = structure_table(alpha)
    B = trace_form(t)
    nullities, defects = {}, {}
    for x in range(1, alpha):
        nullities[x] = t.dimension - _rank(evaluate_matrix(B, x))
        defects[x] = t.dimension - _image_rank(monomial_images(t.basis, Context(alpha, x)))
    assert nullities == defects == expected
    # at x >= alpha the images are independent, and the trace form is not singular
    assert all(_rank(evaluate_matrix(B, x)) == t.dimension for x in range(alpha, alpha + 3))


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


def _tamper_gram(monkeypatch, p, q, entry):
    """Make the suite read the alpha=2 Gram matrix with G[p][q] replaced by entry."""
    G = [list(row) for row in verify.gram_matrix(2)]
    G[p][q] = entry
    monkeypatch.setattr(verify, "gram_matrix", lambda alpha: tuple(map(tuple, G)))


def test_gram_suite_reports_an_asymmetric_matrix(monkeypatch, capsys):
    _tamper_gram(monkeypatch, 0, 1, NuPoly.one())
    r = gram_suite(2)
    assert r.status == "fail"
    # the closed form is symmetric, so it names the tampered entry and not its mirror
    assert r.counterexamples == (
        {"kind": "asymmetry", "p": 1, "q": 0},
        {"kind": "gram-off-closed-form", "p": 0, "q": 1},
    )
    assert r.metrics["first_positive_definite_integer"] is None
    assert r.metrics["agreement_pairs"] == 98
    assert cli.main(["verify", "gram", "--alpha", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "fail"
    assert err == "FAIL gram\n"


def test_gram_suite_reports_a_matrix_that_is_not_positive_definite(monkeypatch):
    _tamper_gram(monkeypatch, 0, 0, -NuPoly.one())
    r = gram_suite(2)
    assert r.status == "fail"
    assert r.counterexamples == ({"kind": "gram-off-closed-form", "p": 0, "q": 0},)
    assert r.metrics["first_positive_definite_integer"] is None


def test_gram_suite_reports_a_disagreement_with_the_oracle(monkeypatch):
    # still symmetric and positive definite from nu = 2 on, but off the closed form,
    # so the suite claims no first positive definite integer
    _tamper_gram(monkeypatch, 0, 0, NuPoly.constant(2))
    r = gram_suite(2)
    assert r.status == "fail"
    assert r.counterexamples == ({"kind": "gram-off-closed-form", "p": 0, "q": 0},)
    assert r.metrics["first_positive_definite_integer"] is None


# the rational points k/d, -12 <= k <= 24 and d in {1, 2, 3, 7}: 111 distinct values
_GRID = sorted({Fraction(k, d) for k in range(-12, 25) for d in (1, 2, 3, 7)})


@pytest.mark.parametrize(
    "alpha, points",
    [(0, _GRID), (1, _GRID), (2, _GRID), (3, _GRID), (4, [2, Fraction(5, 2), 3, Fraction(7, 2), 4])],
)
def test_gram_positive_definite_is_the_sylvester_test(alpha, points):
    # the closed form's verdict against an exact elimination of G(x), on either
    # side of alpha - 1 and at non-integers between alpha - 1 and alpha
    G = gram_matrix(alpha)
    imgs = rook_images(basis_enumerate(alpha))
    for x in points:
        assert verify.gram_positive_definite(imgs, x) == positive_definite(evaluate_matrix(G, x)), x


def test_gram_suite_refuses_past_the_oracle_cap():
    with pytest.raises(CapacityError, match="degree 9"):
        gram_suite(2, ns=(7,))


def test_default_runs_with_no_point_are_refused_before_any_build(monkeypatch, capsys):
    # at alpha=5 no n >= alpha keeps alpha + n within the oracle limit, so a
    # default run would compare nothing and report a pass
    def unreachable(*args, **kwargs):
        raise AssertionError("built for a run that checks no point")

    monkeypatch.setattr(verify, "structure_table", unreachable)
    monkeypatch.setattr(verify, "gram_matrix", unreachable)
    with capacity.override(5):
        for suite in (crosscheck_multi, gram_suite):
            with pytest.raises(CapacityError, match="ORACLE_DEGREE_LIMIT"):
                suite(5)
    for suite in ("crosscheck", "gram"):
        assert cli.main(["verify", suite, "--alpha", "5", "--capacity", "5"]) == 3
        assert "ORACLE_DEGREE_LIMIT" in capsys.readouterr().err


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


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_probe_roots_match_factoring_the_whole_determinant(alpha):
    # the closed form (-1)^s prod_sigma (nu)_{r_sigma}, s half the number of
    # sigma != sigma^-1, against the determinant interpolated through every point
    t = structure_table(alpha)
    rooks = [m.to_rook() for m in t.basis]
    closed = NuPoly.constant((-1) ** (sum(s != s.inverse() for s in rooks) // 2))
    for m in t.basis:
        for j in range(m.hole_degree):
            closed = closed * NuPoly((-j, 1))
    # the probe's roots and leading coefficient multiply back to it
    m = semisimplicity_probe(alpha).metrics
    from_probe = NuPoly.constant(parse_rational(m["det_leading"]))
    for root in m["rational_roots"]:
        from_probe = from_probe * (NuPoly.nu() - NuPoly.constant(parse_rational(root)))
    assert from_probe == closed == det_polynomial(trace_form(t))
    assert m["det_degree"] == closed.degree


_Z = NuPoly.zero()


@pytest.mark.parametrize(
    "form, counterexamples",
    [
        # det = nu^2 (2 nu - 1): the right nullity, and the closed form nu at nu = 1
        ([[NuPoly((0, 0, 1)), _Z], [_Z, NuPoly((-1, 2))]], [(0, 0), (1, 1)]),
        # det = -nu: only the sign is wrong
        ([[-NuPoly.one(), _Z], [_Z, NuPoly.nu()]], [(0, 0)]),
        # det = nu - 1: only the nullity is wrong, at 1 instead of 0
        ([[NuPoly.one(), _Z], [_Z, NuPoly((-1, 1))]], [(1, 1)]),
        # det = 0: the right nullity at 0, but singular at every nu
        ([[_Z, _Z], [_Z, NuPoly.one()]], [(0, 0), (1, 1)]),
    ],
    ids=["cofactor-roots", "sign", "nullity", "degenerate"],
)
def test_probe_fails_a_determinant_off_the_closed_form(monkeypatch, form, counterexamples):
    # alpha=1's trace form is diag(1, nu), with det nu; each form fails at
    # exactly the entries where it differs from that
    monkeypatch.setattr(verify, "trace_form", lambda tbl: form)
    r = semisimplicity_probe(1)
    assert r.status == "fail"
    assert r.counterexamples == tuple(
        {"kind": "trace-form-off-closed-form", "p": p, "q": q} for p, q in counterexamples
    )
    # a failed probe claims no determinant
    assert [r.metrics[k] for k in ("det_degree", "det_leading", "rational_roots", "root_multiplicities")] == [None] * 4
    assert r.warnings == ()


def test_every_suite_imports_only_the_standard_library():
    # a fresh interpreter, so no earlier test has imported anything; modules
    # loaded before rookalg (an editable install's finder among them) do not
    # count.  The tampered probe is the one whose determinant is off the closed form.
    import rookalg

    src = str(Path(rookalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import io\n"
        "from contextlib import redirect_stdout\n"
        "from rookalg import cli, verify\n"
        "from rookalg.nupoly import NuPoly\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    for suite in ('dims', 'relations', 'crosscheck', 'limit', 'semisimple', 'gram'):\n"
        "        assert cli.main(['verify', suite, '--alpha', '2']) == 0, suite\n"
        "z = NuPoly.zero()\n"
        "verify.trace_form = lambda tbl: [[NuPoly((0, 0, 1)), z], [z, NuPoly((-1, 2))]]\n"
        "verify.semisimplicity_probe(1)\n"
        "top = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(top - {'rookalg'} - set(sys.stdlib_module_names)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_monomial_images():
    ctx = Context(2, 2)
    basis = basis_enumerate(2)
    imgs = monomial_images(basis, ctx)
    assert imgs[0] == BiinvariantElement.basis(ctx, PartialInjection.identity(2))
    assert imgs[2] == gen_hole(1, ctx)
    assert len(imgs) == 7


def test_monomial_images_are_unitriangular():
    # phi(m) has coefficient 1 at m's own rook and smaller corank at every other
    # key, whenever m's corank fits in n; the closed forms of the trace form rest on it
    images = checked = 0
    for alpha in range(1, 5):
        basis = basis_enumerate(alpha)
        for n in range(1, 9 - alpha):
            for m, img in zip(basis, monomial_images(basis, Context(alpha, n))):
                images += 1
                if m.hole_degree > n:
                    continue
                checked += 1
                own = m.to_rook()
                assert img.coefficient(own) == 1, (alpha, n, m)
                assert all(coset_corank(s) < m.hole_degree for s, _ in img.items() if s != own), (alpha, n, m)
    assert (images, checked) == (1062, 943)


def test_gram_pairing_is_the_identity_coefficient_of_the_product_with_a_star():
    # gram_suite's oracle side, sum_sigma x_sigma y_sigma (n)_{r_sigma}, against
    # the product route it replaces: n! trace(x y*) read off the identity coset
    pairs = 0
    for alpha in range(1, 4):
        one = PartialInjection.identity(alpha)
        for n in range(1, 9 - alpha):
            imgs = monomial_images(basis_enumerate(alpha), Context(alpha, n))
            for x in imgs:
                for y in imgs:
                    pairing = sum(c * y.coefficient(s) * math.perm(n, coset_corank(s)) for s, c in x.items())
                    assert pairing == dc_multiply(x, y.star()).coefficient(one), (alpha, n)
                    pairs += 1
    assert pairs == 4 * 7 + 49 * 6 + 34 * 34 * 5


def test_rook_images_are_the_monomial_images_at_every_n():
    # the hole rule's 0/1 vectors, less the keys of corank > n, against the oracle
    compared = 0
    for alpha in range(1, 5):
        basis = basis_enumerate(alpha)
        rooks = rook_images(basis)
        for n in range(1, 9 - alpha):
            for m, x, y in zip(basis, monomial_images(basis, Context(alpha, n)), rooks):
                assert dict(x.items()) == {s: 1 for s in y if coset_corank(s) <= n}, (alpha, n, m)
                compared += 1
    assert compared == 1062


def test_unitriangular_wants_one_at_the_own_rook_and_smaller_corank_elsewhere():
    basis = basis_enumerate(2)
    t1, t1t2 = basis[2], basis[6]
    low = PartialInjection((None, 1))  # corank 1, as T1's own rook
    assert verify._unitriangular(t1t2, {t1t2.to_rook(): 1, low: 5})
    assert not verify._unitriangular(t1t2, {t1t2.to_rook(): 2})
    assert not verify._unitriangular(t1t2, {low: 1})
    assert not verify._unitriangular(t1, {t1.to_rook(): 1, low: 1})


def test_rook_images_refuse_an_image_that_is_not_unitriangular(monkeypatch):
    monkeypatch.setattr(verify, "_unitriangular", lambda m, x: m.holes != (2,))
    with pytest.raises(ConsistencyError, match="not unitriangular") as exc:
        rook_images(basis_enumerate(2))
    assert exc.value.payload == {"g": [1, 2], "I": [2]}


def test_images_without_the_fill_values_fail_every_closed_form(monkeypatch):
    # rook_images with the sum over the missed targets dropped: each hole only
    # undefines its point, so each image is its own rook alone
    monkeypatch.setattr(verify, "rook_images", lambda basis: [{m.to_rook(): 1} for m in basis])
    probe = semisimplicity_probe(2)
    assert probe.status == "fail"
    assert {c["kind"] for c in probe.counterexamples} == {"trace-form-off-closed-form"}
    gram = gram_suite(2)
    assert gram.status == "fail"
    assert {c["kind"] for c in gram.counterexamples} >= {"gram-off-closed-form", "image-mismatch"}
    assert gram.metrics["first_positive_definite_integer"] is None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(["gram", "--alpha", "2"]) == 1
    assert (out.getvalue(), err.getvalue()) == (
        "",
        'FAIL consistency: the Gram matrix is off its closed form\n{"p": 3, "q": 6}\n',
    )


def test_each_run_builds_the_images_once(monkeypatch):
    # the Gram suite, the probe and `rookalg gram` each hand one Phi to every check that reads it
    calls = []
    real = verify.rook_images
    monkeypatch.setattr(verify, "rook_images", lambda basis: calls.append(len(basis)) or real(basis))
    assert gram_suite(2).passed and calls == [7]
    assert semisimplicity_probe(2).passed and calls == [7, 7]
    with redirect_stdout(io.StringIO()):
        assert cli.main(["gram", "--alpha", "2"]) == 0
    assert calls == [7, 7, 7]


def test_gram_faults_lists_the_asymmetric_pairs_then_the_entries_off_the_closed_form():
    basis = basis_enumerate(2)
    G = [list(row) for row in verify.gram_matrix(2)]
    assert verify.gram_faults(G, rook_images(basis)) == []
    G[0][1] = G[2][3] = NuPoly.one()
    assert verify.gram_faults(G, rook_images(basis)) == [
        ("asymmetry", 1, 0),
        ("asymmetry", 3, 2),
        ("gram-off-closed-form", 0, 1),
        ("gram-off-closed-form", 2, 3),
    ]


def test_rook_images_are_unitriangular_at_alpha_5():
    # what the symbolic checks past the oracle's degree limit rest on
    basis = basis_enumerate(5)
    imgs = rook_images(basis)
    assert len(imgs) == 1546
    assert all(verify._unitriangular(m, x) for m, x in zip(basis, imgs))


def _double_the_images(monkeypatch):
    images = verify.monomial_images
    monkeypatch.setattr(verify, "monomial_images", lambda basis, ctx: [x * 2 for x in images(basis, ctx)])


@pytest.mark.parametrize(
    "suite, tamper",
    [
        (crosscheck_multi, _double_the_images),
        (gram_suite, _double_the_images),
        (dimension_suite, lambda mp: mp.setattr(verify, "coset_size", lambda ctx, sigma: 0)),
    ],
    ids=["crosscheck", "gram", "dims"],
)
def test_a_repeated_point_is_checked_once(monkeypatch, suite, tamper):
    # tampered, so each check of the point adds failures to the count
    tamper(monkeypatch)
    once, twice = (json.loads(suite(1, ns).canonical_json()) for ns in ((2,), (2, 2)))
    assert once["metrics"]["failure_count"] > 0
    assert twice.pop("params")["ns"] == [2, 2]
    assert once.pop("params")["ns"] == [2]
    assert twice == once


def test_verification_runs_no_elimination():
    for name in ("rank", "positive_definite", "_point_det", "_degree_bound", "evaluate_matrix"):
        assert not hasattr(verify, name), name
    # the CLI prints G(x) but reads its verdict off the closed form
    for name in ("positive_definite", "rank", "_pivots", "det_polynomial"):
        assert not hasattr(cli, name), name
    assert not hasattr(tables, "rank")
    assert not {"rank", "positive_definite", "det_polynomial"} & set(rookalg.__all__)


def _tamper(rule, change):
    """A copy of the engine's `_emit` whose `rule` emits change(terms) in place of its terms."""

    def tampered(r, *args):
        terms = algebra._emit(r, *args)
        return change(terms) if r == rule else terms

    return tampered


@pytest.mark.parametrize(
    "tampered, expected",
    [
        # erase without its -1 term, -A((uv)) T_v: one failure at each of the C(3, 2) pairs
        (_tamper("erase", lambda ts: ts[:2]), [("hole-erase", {"u": u, "v": v}) for u, v in ((1, 2), (1, 3), (2, 3))]),
        # square with weight nu in place of nu - 1
        (_tamper("square", lambda ts: ((NuPoly.nu(), *ts[0][1:]), ts[1])),
         [("hole-square", {"i": i}) for i in (1, 2, 3)]),
        # swap without its -A((uv)) T_v term
        (_tamper("swap", lambda ts: ts[:2]),
         [("hole-exchange", {"u": u, "v": v}) for u, v in ((2, 1), (3, 1), (3, 2))]),
    ],
    ids=["erase-without-its-minus-one-term", "square-weighted-nu", "swap-without-its-minus-term"],
)
def test_a_tampered_rewriting_rule_fails_as_its_relation(monkeypatch, tampered, expected):
    # the suite reads each relation's right-hand side off the engine's rules, so it names the broken one
    monkeypatch.setattr(verify, "_emit", tampered)
    r = relation_suite(3, 3, max_counterexamples=10)
    assert r.metrics["failure_count"] == len(expected)
    assert [(c["kind"], {k: v for k, v in c.items() if k != "kind"}) for c in r.counterexamples] == expected


@pytest.mark.parametrize(
    "alpha, n, digest",
    [
        (1, 1, "f2bae5387602bc4dc9c69a89aa0c7c65be8e33200f6ceebb904d62790a7ab092"),
        (2, 3, "00acdfcc4db5ad9e0e762008bbc7bec5ec53177be8f7f65d2788819f344749ce"),
        (3, 3, "17296a585ed94886490bbc9b466257e793924d0712d5099d1f91f415a15c0cbb"),
        (3, 5, "d3a8f118babad1b756133627890ec5fee90a0c903470618b1cb901c6c221aa05"),
        (4, 4, "bee11c7b437e4cfadccd91252475d4aa08bf73519d89b7ae7a462c5708f646fa"),
    ],
)
def test_relation_report_bytes(alpha, n, digest):
    # recorded when each relation's right-hand side was still typed out in the suite
    assert hashlib.sha256(relation_suite(alpha, n).canonical_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("suite", [crosscheck_multi, dimension_suite, gram_suite], ids=["crosscheck", "dims", "gram"])
def test_an_out_of_limit_point_is_refused_before_any_work(monkeypatch, suite):
    # alpha + n = 9 at n = 7; nothing is counted, built or checked at n = 2 first
    calls = []
    for name in ("structure_table", "gram_matrix", "_check_point", "monomial_images",
                 "rook_count", "rook_enumerate", "all_permutations"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    with pytest.raises(CapacityError, match="brute-force check at degree 9 exceeds the limit 8"):
        suite(2, (2, 7))
    assert calls == []
