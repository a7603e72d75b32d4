"""The sparse-vector arithmetic shared by the three element classes."""

import ast
import inspect
from fractions import Fraction

import pytest

from rookalg import oracle, sparse

from rookalg.algebra import Monomial, OElement
from rookalg.combinatorics import PartialInjection, Permutation, idempotent
from rookalg.errors import ContextError, EmptyCosetError
from rookalg.nupoly import NuPoly
from rookalg.oracle import BiinvariantElement, Context, GroupAlgebraElement, gen_hole, gen_perm
from rookalg.sparse import SparseVector, combine


def group_element(ctx):
    return GroupAlgebraElement(
        ctx,
        {
            Permutation.identity(ctx.degree): Fraction(3),
            Permutation.transposition(ctx.degree, 1, ctx.degree): Fraction(-1, 2),
        },
    )


def biinvariant_element(ctx):
    return gen_perm(Permutation((2, 1)), ctx) + gen_hole(1, ctx).scale(Fraction(2, 3))


def o_element(alpha):
    return OElement(alpha, {Monomial.one(alpha): NuPoly.nu(), Monomial(Permutation.identity(alpha), (1,)): -1})


# (class, an element, its context, an element in another context)
CASES = [
    (GroupAlgebraElement, group_element(Context(2, 1)), Context(2, 1), group_element(Context(1, 2))),
    (BiinvariantElement, biinvariant_element(Context(2, 2)), Context(2, 2), biinvariant_element(Context(2, 3))),
    (OElement, o_element(2), 2, o_element(3)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, x, context, elsewhere", CASES, ids=IDS)
def test_shared_arithmetic(cls, x, context, elsewhere):
    assert 2 * x == x.scale(2)
    assert len((x - x).items()) == 0
    zero = cls.zero(context)
    assert not zero and x
    assert x + zero == x
    assert zero + x == x
    assert (x + x) == x.scale(2)
    assert len(x.items()) == 2
    with pytest.raises(ContextError):
        x + elsewhere
    with pytest.raises(ContextError):
        x - elsewhere


def test_elements_of_different_classes_never_compare_equal():
    ctx = Context(2, 2)
    zeros = [GroupAlgebraElement.zero(ctx), BiinvariantElement.zero(ctx), OElement.zero(2)]
    for i, a in enumerate(zeros):
        for j, b in enumerate(zeros):
            assert (a == b) == (i == j)


# (class, a context, [(a key outside that context, the error it raises)])
BAD_KEYS = [
    (GroupAlgebraElement, Context(2, 1), [(Permutation.identity(2), ContextError)]),
    (
        BiinvariantElement,
        Context(2, 1),
        [
            (PartialInjection.identity(3), ContextError),
            # corank 2 indexes no coset with one tail point
            (idempotent(2, (1, 2)), EmptyCosetError),
        ],
    ),
    (OElement, 2, [(Monomial.one(3), ContextError)]),
]


@pytest.mark.parametrize("cls, context, bad", BAD_KEYS, ids=IDS)
def test_public_constructor_checks_every_key(cls, context, bad):
    for key, error in bad:
        with pytest.raises(error):
            cls(context, {key: 1})
        # a zero coefficient is dropped before its key is checked
        assert cls(context, {key: 0}) == cls.zero(context)


@pytest.mark.parametrize("cls, x, context, elsewhere", CASES, ids=IDS)
def test_no_element_takes_a_float_coefficient(cls, x, context, elsewhere):
    key = next(iter(x.items()))[0]
    with pytest.raises(TypeError):
        cls(context, {key: 0.1})
    with pytest.raises(TypeError):
        x.scale(0.5)


HALVES = [
    gen_hole(1, Context(2, 2)).scale(Fraction(1, 2)),
    GroupAlgebraElement(Context(2, 1), {Permutation.identity(3): Fraction(1, 2)}),
]


@pytest.mark.parametrize("h", HALVES, ids=IDS[1::-1])
def test_sums_and_scalings_of_halves_store_ints(h):
    # the oracle's classes hold a Fraction only when it is not integral
    def types(v):
        return {type(c) for _, c in v.items()}

    assert types(h) == {Fraction}
    for made in (h + h, h.scale(2), Fraction(2) * h, h.scale(Fraction(4)) - h - h):
        assert types(made) == {int}, made
    assert types(h + h + h) == types(h.scale(3)) == {Fraction}


SHARED = (
    "__init__", "zero", "_trusted", "coefficient", "items", "sorted_items", "_check", "__bool__",
    "__add__", "__sub__", "scale", "__rmul__", "_key", "__repr__",
)


@pytest.mark.parametrize("cls", [case[0] for case in CASES], ids=IDS)
def test_element_classes_keep_no_copy_of_the_shared_methods(cls):
    for name in SHARED:
        assert name in vars(SparseVector)
        assert name not in vars(cls), name


@pytest.mark.parametrize("module", [oracle, sparse], ids=["oracle", "sparse"])
def test_the_oracle_stays_independent_of_the_rewriting_code(module):
    tree = ast.parse(inspect.getsource(module))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert not {"algebra", "nupoly", "tables", "verify"} & {name.rsplit(".", 1)[-1] for name in imported if name}


def plain_sum(terms):
    """The sum of w * c by the definition, one multiplication per coefficient."""
    acc = {}
    for w, v in terms:
        for k, c in v:
            acc[k] = acc[k] + w * c if k in acc else w * c
    return {k: c for k, c in acc.items() if c}


WEIGHTS = [1, -1, 0, 2, Fraction(-1), NuPoly.one(), NuPoly.nu()]
COEFFICIENTS = {
    "NuPoly": (NuPoly((1, 2)), NuPoly((0, -1)), NuPoly((-3,))),
    "Fraction": (Fraction(1, 2), Fraction(-3), Fraction(2, 3)),
}


@pytest.mark.parametrize("w", WEIGHTS, ids=repr)
@pytest.mark.parametrize("coeffs", COEFFICIENTS.values(), ids=COEFFICIENTS.keys())
def test_combine_equals_the_plain_sum(w, coeffs):
    a, b, c = coeffs
    u, v = [("x", a), ("y", b)], [("y", c), ("z", a)]
    for terms in ([(w, u)], [(w, u), (w, v)], [(w, u), (w, v), (w, u)]):
        assert combine(terms) == plain_sum(terms)
    # the sign weights cancel a vector exactly
    assert combine([(1, u), (-1, u)]) == {}
    assert combine([(w, u), (-1, [(k, w * c) for k, c in u])]) == {}


def test_combine_mixes_every_weight_over_polynomials():
    a, b, c = COEFFICIENTS["NuPoly"]
    terms = [(w, [("x", a), ("y", b), (w.__class__.__name__, c)]) for w in WEIGHTS]
    assert combine(terms) == plain_sum(terms)
