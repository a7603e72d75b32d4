"""Exact univariate polynomial arithmetic over the rationals, stored as ints where integral."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rookalg import nupoly
from rookalg.nupoly import NuPoly, format_rational, parse_rational
from rookalg.rational import smallest


def test_trailing_zeros_are_stripped():
    assert NuPoly((1, 2, 0, 0)) == NuPoly((1, 2))
    assert NuPoly((0,)) == NuPoly.zero()
    assert not NuPoly(())


def test_constructors():
    assert NuPoly.zero().coeffs == ()
    assert NuPoly.one().coeffs == (Fraction(1),)
    assert NuPoly.nu().coeffs == (Fraction(0), Fraction(1))
    assert NuPoly.monomial(3).coeffs == (0, 0, 0, 1)
    assert NuPoly.constant(Fraction(2, 3)).coeffs == (Fraction(2, 3),)


def test_degree_and_leading():
    p = NuPoly((5, 0, -3))
    assert p.degree == 2
    assert p.leading == Fraction(-3)
    assert NuPoly.zero().degree == float("-inf")
    assert NuPoly.one().degree == 0


def test_ring_operations():
    p = NuPoly((1, 1))   # nu + 1
    q = NuPoly((-1, 1))  # nu - 1
    assert p * q == NuPoly((-1, 0, 1))
    assert p + q == NuPoly((0, 2))
    assert p - q == NuPoly((2,))
    assert -p == NuPoly((-1, -1))
    assert p * NuPoly.zero() == NuPoly.zero()
    assert p * NuPoly.one() == p


def test_evaluate_exact():
    p = NuPoly((1, -2, 1))  # (nu - 1)^2
    assert p.evaluate(1) == 0
    assert p.evaluate(4) == 9
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)
    # smallest form: an int when integral, a Fraction otherwise
    assert type(p.evaluate(3)) is int
    assert type(p.evaluate(Fraction(1, 2))) is Fraction
    assert type(NuPoly((Fraction(1, 2), Fraction(1, 2))).evaluate(1)) is int


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ((0,), "0"),
        ((1,), "1"),
        ((Fraction(1, 2),), "1/2"),
        ((0, 1), "nu"),
        ((-1, 1), "nu - 1"),
        ((1, -2, 1), "nu^2 - 2*nu + 1"),
    ],
)
def test_pretty(coeffs, text):
    assert NuPoly(coeffs).pretty() == text


def test_pretty_writes_each_coefficient_as_format_rational_does_less_a_trailing_one():
    assert NuPoly((Fraction(-3, 7), Fraction(5, 2), -12)).pretty() == "-12*nu^2 + 5/2*nu - 3/7"
    assert NuPoly((Fraction(6, 3), -1)).pretty() == "-nu + 2"
    assert not hasattr(nupoly, "_frac_str")


def test_string_roundtrip():
    p = NuPoly((Fraction(1, 3), -2, 0, 5))
    assert NuPoly.from_strings(p.to_strings()) == p
    assert p.to_strings() == ["1/3", "-2/1", "0/1", "5/1"]


def test_rational_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


@pytest.mark.parametrize("text", ["1e3", "1_0.5", "0.5", "+3", " 3", "3 ", "1/-2", "-", "", "/2", "1/", "\uff13"])
def test_rational_parsing_refuses_other_syntax(text):
    # only "p/q" and plain integers, though Fraction() itself takes most of these
    with pytest.raises(ValueError) as exc:
        parse_rational(text)
    assert str(exc.value) == f"Invalid literal for Fraction: {text!r}"


def test_zero_denominator_is_a_value_error():
    # a ZeroDivisionError would escape the CLI's usage-error handling
    for parse in (parse_rational, lambda text: NuPoly.from_strings(["1", text])):
        with pytest.raises(ValueError, match="zero denominator"):
            parse("1/0")


small_polys = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    min_size=0,
    max_size=4,
).map(lambda cs: NuPoly(tuple(cs)))


@given(small_polys, small_polys, st.integers(min_value=-5, max_value=5))
def test_evaluation_is_a_ring_homomorphism(p, q, v):
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


@given(small_polys, small_polys)
def test_product_degree(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree
        assert (p * q).leading == p.leading * q.leading


# ------------------------------------------------------------ representation

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)
rationals = st.one_of(st.integers(min_value=-20, max_value=20), fractions)


def test_integral_inputs_are_stored_as_int():
    p = NuPoly((Fraction(4, 2), 2, Fraction(1, 2)))
    assert [type(c) for c in p.coeffs] == [int, int, Fraction]
    assert p.coeffs == (2, 2, Fraction(1, 2))
    assert type(NuPoly.from_strings(["3/1"]).coeffs[0]) is int


@pytest.mark.parametrize(
    "c, d, want",
    [(6, 3, 2), (-6, -3, 2), (0, 5, 0), (3, -6, Fraction(-1, 2)), (7, 1, 7), (Fraction(4, 2), 1, 2),
     (Fraction(9, 2), 3, Fraction(3, 2)), ("6/3", 1, 2)],
)
def test_smallest_is_an_int_exactly_when_the_quotient_is_integral(c, d, want):
    got = smallest(c, d)
    assert got == want and type(got) is type(want)


@given(st.lists(rationals, max_size=5))
def test_storage_type_follows_integrality(cs):
    for c in NuPoly(cs).coeffs:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@given(st.lists(st.integers(min_value=-20, max_value=20), max_size=5))
def test_int_and_fraction_builds_are_equal(cs):
    p = NuPoly(cs)
    q = NuPoly([Fraction(c) for c in cs])
    assert p == q and hash(p) == hash(q)
    # a product of non-integral factors that lands in Z[nu] is stored as ints too
    r = NuPoly([Fraction(c, 2) for c in cs]) * NuPoly((2,))
    assert r == p and hash(r) == hash(p)
    assert all(type(c) is int for c in r.coeffs)


def test_leading_is_a_fraction():
    assert type(NuPoly((1, 3)).leading) is Fraction
    assert type(NuPoly((Fraction(1, 2),)).leading) is Fraction
    assert type(NuPoly.zero().leading) is Fraction


def test_mixed_strings_roundtrip():
    p = NuPoly.from_strings(["3/1", "-1/2"])
    assert p.coeffs == (3, Fraction(-1, 2))
    assert p.to_strings() == ["3/1", "-1/2"]
    assert NuPoly.from_strings(p.to_strings()) == p


def _ref_add(a, b):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)]


def _ref_sub(a, b):
    return _ref_add(a, [-c for c in b])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_eval(a, x):
    return sum((c * Fraction(x) ** k for k, c in enumerate(a)), Fraction(0))


@given(st.lists(rationals, max_size=4), st.lists(rationals, max_size=4), rationals)
def test_mixed_arithmetic_matches_fraction_reference(a, b, x):
    fa, fb = [Fraction(c) for c in a], [Fraction(c) for c in b]
    p, q = NuPoly(a), NuPoly(b)
    assert p + q == NuPoly(_ref_add(fa, fb))
    assert p - q == NuPoly(_ref_sub(fa, fb))
    assert -p == NuPoly([-c for c in fa])
    assert p * q == NuPoly(_ref_mul(fa, fb))
    v = p.evaluate(x)
    assert v == _ref_eval(fa, x)
    assert type(v) is (int if v.denominator == 1 else Fraction)
    for r in (p + q, p - q, p * q, -p):
        # smallest form: ints where integral, and no trailing zero
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in r.coeffs)
        assert not r.coeffs or r.coeffs[-1]


def test_sums_that_become_integral_are_stored_as_int():
    half = NuPoly((Fraction(1, 2), Fraction(1, 2)))
    assert (half + half).coeffs == (1, 1)
    assert all(type(c) is int for c in (half + half).coeffs)
    assert (half - NuPoly((Fraction(-1, 2), Fraction(1, 2)))).coeffs == (1,)
    assert (half - half).coeffs == ()
    assert (-half).coeffs == (Fraction(-1, 2), Fraction(-1, 2))
