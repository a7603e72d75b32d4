"""Brute-force double coset algebra over exact rationals.

Support sets and coefficients pinned here were derived independently by
convolving indicator sums in the full group algebra at small sizes.
"""

import math
import random
from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from rookalg.algebra import basis_enumerate
from rookalg.combinatorics import (
    PartialInjection,
    Permutation,
    all_permutations,
    corner_map,
    idempotent,
    rook_enumerate,
)
from rookalg.errors import CapacityError, ConsistencyError, ContextError, EmptyCosetError
from rookalg.oracle import (
    BiinvariantElement,
    Context,
    GroupAlgebraElement,
    canonical_completion,
    coset_corank,
    coset_enumerate,
    coset_size,
    dc_multiply,
    gen_hole,
    gen_perm,
    k_average,
    project_biinvariant,
    subgroup_elements,
)
from rookalg.verify import monomial_images


def test_context():
    ctx = Context(2, 3)
    assert ctx.degree == 5
    with pytest.raises(ValueError):
        Context(-1, 2)
    with pytest.raises(ValueError):
        Context(2, -1)


def test_subgroup_elements_fix_the_corner():
    ctx = Context(2, 3)
    elems = subgroup_elements(ctx)
    assert len(elems) == 6
    for g in elems:
        assert g(1) == 1 and g(2) == 2


# -------------------------------------------------------------- group algebra


def test_delta_convolution_follows_the_group_law():
    ctx = Context(1, 2)
    for u in all_permutations(3):
        for v in all_permutations(3):
            lhs = GroupAlgebraElement.delta(ctx, u) * GroupAlgebraElement.delta(ctx, v)
            assert lhs == GroupAlgebraElement.delta(ctx, u * v)


def test_convolution_keys_hash_and_compare_like_checked_permutations():
    # the product's keys are built without the check; each must be the
    # checked permutation in every way a dict or a set can tell
    ctx = Context(1, 3)
    x = GroupAlgebraElement(ctx, {u: i + 1 for i, u in enumerate(all_permutations(4))})
    product = x * x.star()
    assert len(product.items()) == 24
    for key, c in product.items():
        checked = Permutation(tuple(key.images))
        assert type(key) is Permutation and type(key.images) is tuple
        assert key == checked and hash(key) == hash(checked)
        assert product.coefficient(checked) == c
    assert set(dict(product.items())) == set(all_permutations(4))


def test_group_algebra_star_trace_inner():
    ctx = Context(1, 2)
    u = Permutation((2, 1, 3))
    d = GroupAlgebraElement.delta(ctx, u)
    assert d.star() == GroupAlgebraElement.delta(ctx, u.inverse())
    # the trace is the coefficient of the identity
    one = Permutation.identity(3)
    assert d.coefficient(one) == 0
    assert GroupAlgebraElement.delta(ctx, one).coefficient(one) == 1


def test_context_mixing_is_rejected():
    x = GroupAlgebraElement.delta(Context(1, 1), Permutation.identity(2))
    y = GroupAlgebraElement.delta(Context(1, 2), Permutation.identity(3))
    with pytest.raises(ContextError):
        x * y
    with pytest.raises(ContextError):
        GroupAlgebraElement.delta(Context(1, 2), Permutation.identity(2))


def test_k_average_is_idempotent():
    ctx = Context(2, 2)
    avg = k_average(ctx)
    assert avg * avg == avg
    assert avg.augmentation() == 1
    assert len(avg.items()) == 2


def test_projection_spreads_over_the_double_coset():
    ctx = Context(1, 2)
    d = GroupAlgebraElement.delta(ctx, Permutation((2, 1, 3)))
    p = project_biinvariant(d)
    support = sorted(g.images for g in dict(p.items()))
    assert support == [(2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert all(c == Fraction(1, 4) for _, c in p.items())
    assert project_biinvariant(p) == p


def fraction_convolution(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Reference product: the double sum accumulated in Fractions."""
    acc: dict[Permutation, Fraction] = defaultdict(Fraction)
    for g, cg in x.items():
        for h, ch in y.items():
            acc[g * h] += cg * ch
    return GroupAlgebraElement(x.ctx, acc)


S3_CTX = Context(1, 2)
S3 = tuple(all_permutations(3))
E, S, C = Permutation.identity(3), Permutation((2, 1, 3)), Permutation((2, 3, 1))


def s3_element(coeffs) -> GroupAlgebraElement:
    return GroupAlgebraElement(S3_CTX, coeffs)


s3_elements = st.dictionaries(
    st.sampled_from(S3),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    max_size=len(S3),
).map(s3_element)


@given(s3_elements, s3_elements)
# mixed denominators
@example(
    s3_element({E: Fraction(1, 2), S: Fraction(2, 3), C: Fraction(-5, 7)}),
    s3_element({S: Fraction(-5, 7), C: Fraction(2, 3)}),
)
# (e + s)(e - s) = e - s^2 = 0: every term cancels
@example(s3_element({E: 1, S: 1}), s3_element({E: 1, S: -1}))
# e + s - c times e + c: the c terms cancel, the rest stay
@example(s3_element({E: 1, S: 1, C: -1}), s3_element({E: 1, C: 1}))
# an empty operand, on either side
@example(s3_element({E: Fraction(1, 2)}), s3_element({}))
@example(s3_element({}), s3_element({C: Fraction(-5, 7)}))
def test_convolution_matches_fraction_accumulation(x, y):
    product = x * y
    assert product == fraction_convolution(x, y)
    assert all(c != 0 for _, c in product.items())


S5_CTX = Context(2, 3)
S5 = tuple(all_permutations(5))

# up to 20 terms whose coefficients are mostly distinct, so that the product
# runs over many pairs of coefficient classes, not one
s5_elements = st.dictionaries(
    st.sampled_from(S5),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=20,
).map(lambda coeffs: GroupAlgebraElement(S5_CTX, coeffs))


@settings(deadline=None)
@given(s5_elements, s5_elements)
def test_convolution_matches_fraction_accumulation_on_s5(x, y):
    assert x * y == fraction_convolution(x, y)


def test_convolution_refuses_more_than_255_points():
    # 255 points still fit in a byte; the 256th does not
    ctx = Context(1, 254)
    s = Permutation.transposition(255, 1, 255)
    assert GroupAlgebraElement.delta(ctx, s) * GroupAlgebraElement.delta(ctx, s) == (
        GroupAlgebraElement.delta(ctx, Permutation.identity(255))
    )
    ctx = Context(1, 255)
    e = GroupAlgebraElement.delta(ctx, Permutation.identity(256))
    with pytest.raises(CapacityError, match="degree <= 255"):
        e * e


# -------------------------------------------------------------------- cosets


def test_coset_corank():
    assert coset_corank(PartialInjection.identity(2)) == 0
    assert coset_corank(idempotent(2, (1,))) == 1
    assert coset_corank(idempotent(2, (1, 2))) == 2


@pytest.mark.parametrize("alpha,n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_coset_sizes_match_enumeration(alpha, n):
    ctx = Context(alpha, n)
    total = 0
    seen = set()
    for sigma in rook_enumerate(alpha):
        r = coset_corank(sigma)
        if r > n:
            with pytest.raises(EmptyCosetError):
                coset_size(ctx, sigma)
            continue
        members = coset_enumerate(sigma, ctx)
        expected = math.factorial(n) ** 2 // math.factorial(n - r)
        assert coset_size(ctx, sigma) == len(members) == expected
        for u in members:
            assert corner_map(u, alpha) == sigma
        seen.update(members)
        total += len(members)
    # the cosets partition the whole group
    assert total == len(seen) == math.factorial(alpha + n)


def test_canonical_completion():
    ctx = Context(2, 2)
    assert canonical_completion(idempotent(2, (1,)), ctx).images == (3, 2, 1, 4)
    for sigma in rook_enumerate(2):
        u = canonical_completion(sigma, ctx)
        assert corner_map(u, 2) == sigma


def test_cosets_and_completions_match_their_definition():
    # every coset in increasing order, read straight off the whole group
    for alpha in range(7):
        for n in range(7 - alpha):
            ctx = Context(alpha, n)
            cosets = defaultdict(list)
            for u in all_permutations(alpha + n):
                cosets[corner_map(u, alpha)].append(u)
            for sigma in rook_enumerate(alpha):
                r = coset_corank(sigma)
                if r > n:
                    continue
                members = tuple(cosets[sigma])
                assert coset_enumerate(sigma, ctx) == members, (alpha, n, sigma)
                fixed = range(alpha + r + 1, alpha + n + 1)
                first = next(u for u in members if all(u(t) == t for t in fixed))
                assert canonical_completion(sigma, ctx) == first, (alpha, n, sigma)


# ------------------------------------------------------- biinvariant elements


def test_embed_from_group_roundtrip():
    ctx = Context(2, 2)
    for sigma in rook_enumerate(2):
        e = BiinvariantElement.basis(ctx, sigma)
        assert BiinvariantElement.from_group(e.embed()) == e


def test_from_group_rejects_non_biinvariant_input():
    ctx = Context(1, 2)
    d = GroupAlgebraElement.delta(ctx, Permutation((2, 1, 3)))
    with pytest.raises(ConsistencyError):
        BiinvariantElement.from_group(d)


def test_from_group_rejects_a_full_coset_with_one_value_off():
    ctx = Context(2, 2)
    sigma = idempotent(2, (1,))
    coeffs = dict(BiinvariantElement.basis(ctx, sigma).embed().items())
    u = coset_enumerate(sigma, ctx)[1]
    coeffs[u] += 1
    with pytest.raises(ConsistencyError) as err:
        BiinvariantElement.from_group(GroupAlgebraElement(ctx, coeffs))
    # every member of the coset is present; only the value of u differs
    assert err.value.payload["seen"] == err.value.payload["coset_size"] == coset_size(ctx, sigma)


@pytest.mark.parametrize("fn", [canonical_completion, coset_enumerate], ids=lambda f: f.__name__)
def test_coset_functions_refuse_a_key_that_indexes_no_coset(fn):
    ctx = Context(2, 1)
    with pytest.raises(ContextError):
        fn(PartialInjection.identity(3), ctx)
    # corank 2 indexes no coset with one tail point
    with pytest.raises(EmptyCosetError):
        fn(idempotent(2, (1, 2)), ctx)


def test_identity_coset_is_the_unit():
    ctx = Context(2, 2)
    one = BiinvariantElement.basis(ctx, PartialInjection.identity(2))
    for sigma in rook_enumerate(2):
        e = BiinvariantElement.basis(ctx, sigma)
        assert dc_multiply(one, e) == e
        assert dc_multiply(e, one) == e


def test_identity_coefficient_is_the_trace_form_of_the_coset_basis():
    # e_sigma e_tau has identity coefficient (n)_{r_sigma} when tau = sigma^-1 and 0
    # otherwise; the closed-form determinant of verify.semisimplicity_probe rests on it
    pairs = 0
    for alpha in range(4):
        one = PartialInjection.identity(alpha)
        for n in range(7 - alpha):
            ctx = Context(alpha, n)
            keys = [s for s in rook_enumerate(alpha) if coset_corank(s) <= n]
            for sigma in keys:
                x = BiinvariantElement.basis(ctx, sigma)
                for tau in keys:
                    got = dc_multiply(x, BiinvariantElement.basis(ctx, tau), via="fast").coefficient(one)
                    want = math.perm(n, coset_corank(sigma)) if tau == sigma.inverse() else 0
                    assert got == want, (alpha, n, sigma, tau)
                    pairs += 1
    assert pairs == 3072


def test_fast_product_matches_full_convolution():
    for alpha, n in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        ctx = Context(alpha, n)
        basis = [BiinvariantElement.basis(ctx, s) for s in rook_enumerate(alpha)]
        for x in basis:
            for y in basis:
                assert dc_multiply(x, y, via="fast") == dc_multiply(
                    x, y, via="convolve"
                )


def test_convolve_product_matches_fast_product_at_degree_8():
    ctx = Context(3, 5)
    # the images of permutation and one-hole monomials: at most 600 group
    # elements each, so a pair is at most 360,000 products
    images = [
        x
        for x in monomial_images(basis_enumerate(3), ctx)
        if sum(coset_size(ctx, s) for s, _ in x.items()) <= 600
    ]
    rng = random.Random(35)
    for _ in range(4):
        x, y = rng.choice(images), rng.choice(images)
        assert dc_multiply(x, y, via="convolve") == dc_multiply(x, y, via="fast")


def full_sum_product(x: BiinvariantElement, y: BiinvariantElement) -> BiinvariantElement:
    """Reference product: the single sum over every element k of the tail subgroup.

    e_sigma * e_tau expands as (|c_sigma| |c_tau| / (n!)^3) times the sum
    over k in the tail subgroup of (n! / |c_rho(k)|) e_rho(k), where rho(k)
    is the corner of U_sigma k U_tau.
    """
    ctx = x.ctx
    nf = factorial(ctx.n)
    nf3 = Fraction(1, nf**3)
    acc: dict[PartialInjection, Fraction] = defaultdict(Fraction)
    for sigma, cx in x.items():
        u = canonical_completion(sigma, ctx)
        size_sigma = coset_size(ctx, sigma)
        for tau, cy in y.items():
            v = canonical_completion(tau, ctx)
            scale = cx * cy * size_sigma * coset_size(ctx, tau) * nf3
            for k in subgroup_elements(ctx):
                rho = corner_map(u * k * v, ctx.alpha)
                acc[rho] += scale * Fraction(nf, coset_size(ctx, rho))
    return BiinvariantElement(ctx, acc)


@pytest.mark.parametrize("alpha,n", [(1, 3), (2, 3), (2, 4), (3, 3)])
def test_fast_product_matches_full_sum_on_the_coset_basis(alpha, n):
    ctx = Context(alpha, n)
    basis = [BiinvariantElement.basis(ctx, s) for s in rook_enumerate(alpha)]
    for x in basis:
        for y in basis:
            assert dc_multiply(x, y, via="fast") == full_sum_product(x, y)


def test_fast_product_matches_full_sum_at_every_small_tail_degree():
    # the falling-factorial weights (n)_{r_sigma} / (n)_{r_rho} also where
    # n < alpha, so some keys index no coset, and at n = 0
    pairs = 0
    for alpha in range(4):
        for n in range(7 - alpha):
            ctx = Context(alpha, n)
            basis = [BiinvariantElement.basis(ctx, s) for s in rook_enumerate(alpha) if coset_corank(s) <= n]
            for x in basis:
                for y in basis:
                    assert dc_multiply(x, y, via="fast") == full_sum_product(x, y), (alpha, n, x, y)
                    pairs += 1
    assert pairs == 3072


@pytest.mark.parametrize("alpha,n", [(3, 5), (4, 4)])
def test_fast_product_matches_full_sum_on_monomial_images(alpha, n):
    ctx = Context(alpha, n)
    images = monomial_images(basis_enumerate(alpha), ctx)
    rng = random.Random(1000 * alpha + n)
    for _ in range(100):
        x, y = rng.choice(images), rng.choice(images)
        assert dc_multiply(x, y, via="fast") == full_sum_product(x, y)


@pytest.mark.parametrize("alpha,n", [(2, 3), (3, 3)])
def test_fast_product_matches_full_sum_with_rational_coefficients(alpha, n):
    # non-unit coefficients with unlike denominators on both operands, so the
    # integer tallies must carry each operand's lcm scale and divide it out
    ctx = Context(alpha, n)
    keys = list(rook_enumerate(alpha))
    rng = random.Random(10 * alpha + n)
    coeffs = [Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2), Fraction(9, 4), Fraction(-3), Fraction(7, 6)]
    for _ in range(10):
        x = BiinvariantElement(ctx, {s: rng.choice(coeffs) for s in rng.sample(keys, 4)})
        y = BiinvariantElement(ctx, {s: rng.choice(coeffs) for s in rng.sample(keys, 3)})
        assert dc_multiply(x, y, via="fast") == full_sum_product(x, y)


@settings(deadline=None)
@given(st.data())
def test_fast_product_corners_hash_like_checked_partial_injections(data):
    alpha = data.draw(st.integers(min_value=1, max_value=3))
    ctx = Context(alpha, data.draw(st.integers(min_value=0, max_value=6 - alpha)))
    keys = st.sampled_from([s for s in rook_enumerate(alpha) if coset_corank(s) <= ctx.n])
    x = BiinvariantElement.basis(ctx, data.draw(keys))
    y = BiinvariantElement.basis(ctx, data.draw(keys))
    for rho, _ in dc_multiply(x, y).items():
        checked = PartialInjection(rho.target)
        assert rho == checked
        assert hash(rho) == hash(checked)
        assert {checked: "found"}[rho] == "found"


def test_hole_generator_products():
    ctx = Context(2, 2)
    th1 = gen_hole(1, ctx)
    th2 = gen_hole(2, ctx)
    # theta_1 theta_2 lands on the empty corner map and on 2 -> 1
    assert dict(dc_multiply(th1, th2).to_pairs()) == {
        (0, 1): "1/1",
        (0, 0): "1/1",
    }
    # theta_1^2 = (n - 1) theta_1 + n at n = 2
    sq = dc_multiply(th1, th1)
    assert sq.coefficient(PartialInjection.identity(2)) == 2
    assert sq.coefficient(idempotent(2, (1,))) == 1


def test_perm_generator_absorbs_into_holes():
    ctx = Context(2, 2)
    g = Permutation((2, 1))
    lhs = dc_multiply(gen_perm(g, ctx), gen_hole(1, ctx))
    target = PartialInjection.from_permutation(g) * idempotent(2, (1,))
    assert lhs == BiinvariantElement.basis(ctx, target)


def test_perm_generators_multiply_like_the_group():
    ctx = Context(2, 2)
    for g in all_permutations(2):
        for h in all_permutations(2):
            assert dc_multiply(gen_perm(g, ctx), gen_perm(h, ctx)) == gen_perm(
                g * h, ctx
            )


def test_augmentation():
    ctx = Context(2, 3)
    assert gen_perm(Permutation((2, 1)), ctx).augmentation() == 1
    assert gen_hole(1, ctx).augmentation() == 3
    x = dc_multiply(gen_hole(1, ctx), gen_hole(2, ctx))
    assert x.augmentation() == 9


def test_augmentation_is_multiplicative():
    ctx = Context(2, 2)
    basis = [BiinvariantElement.basis(ctx, s) for s in rook_enumerate(2)]
    for x in basis:
        for y in basis:
            assert dc_multiply(x, y).augmentation() == x.augmentation() * y.augmentation()


def test_star_is_an_antihomomorphism():
    ctx = Context(2, 2)
    sig = PartialInjection((None, 1))
    assert BiinvariantElement.basis(ctx, sig).star() == BiinvariantElement.basis(
        ctx, sig.inverse()
    )
    basis = [BiinvariantElement.basis(ctx, s) for s in rook_enumerate(2)]
    for x in basis:
        assert x.star().star() == x
        for y in basis:
            assert dc_multiply(x, y).star() == dc_multiply(y.star(), x.star())


def test_trace_is_symmetric():
    # n! times the trace is the coefficient of the identity coset
    ctx = Context(2, 2)
    one = PartialInjection.identity(2)
    basis = [BiinvariantElement.basis(ctx, s) for s in rook_enumerate(2)]
    for x in basis:
        for y in basis:
            assert dc_multiply(x, y).coefficient(one) == dc_multiply(y, x).coefficient(one)


def test_degenerate_tail_subgroup():
    # with no tail strand the subgroup is trivial: every singleton is a
    # coset, perm generators survive, hole generators cannot exist
    ctx = Context(2, 0)
    g = Permutation((2, 1))
    a = gen_perm(g, ctx)
    assert dc_multiply(a, a) == gen_perm(Permutation.identity(2), ctx)
    with pytest.raises(EmptyCosetError):
        gen_hole(1, ctx)


def test_scaling_and_linearity():
    ctx = Context(1, 2)
    e = BiinvariantElement.basis(ctx, idempotent(1, (1,)))
    two = e.scale(Fraction(2))
    assert (two - e) == e
    assert (e + e) == two
    assert BiinvariantElement.zero(ctx) + e == e
