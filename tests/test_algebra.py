"""Normal-form rewriting in the interpolated algebra.

Pinned normal forms below were derived by hand from the defining relations
and double-checked against the exact coset oracle at integer parameter
values (the crosscheck suites exercise that agreement systematically).
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rookalg import algebra, tables
from rookalg.algebra import (
    Monomial,
    Normalizer,
    OElement,
    basis_enumerate,
    default_normalizer,
    element_from_word,
    format_element,
    format_monomial,
    fuse,
    gen_hole_element,
    gen_perm_element,
    monomial_sort_key,
    multiply,
    word_to_state,
)
from rookalg.cli import parse_word
from rookalg.combinatorics import (
    PartialInjection,
    Permutation,
    all_permutations,
    rook_count,
    rook_enumerate,
)
from rookalg.errors import ConsistencyError, ContextError
from rookalg.nupoly import NuPoly
from rookalg.sparse import combine


def mono(images, holes=()):
    return Monomial(Permutation(tuple(images)), tuple(holes))


def state_of(m: Monomial):
    """The state (images, js) of a monomial, as `fuse` takes it."""
    return m.perm.images, m.holes


# ------------------------------------------------------------------ monomials


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(Permutation((1, 2)), (2, 1))
    with pytest.raises(ValueError):
        # images of the hole positions must increase as well
        Monomial(Permutation((2, 1)), (1, 2))
    m = mono((2, 1), (1,))
    assert m.alpha == 2
    assert m.hole_degree == 1
    assert Monomial.one(3) == mono((1, 2, 3))


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_rook_bijection(alpha):
    basis = basis_enumerate(alpha)
    assert len(basis) == rook_count(alpha)
    images = {m.to_rook() for m in basis}
    assert images == set(rook_enumerate(alpha))
    for m in basis:
        assert Monomial.from_rook(m.to_rook()) == m
    for sigma in rook_enumerate(alpha):
        assert Monomial.from_rook(sigma).to_rook() == sigma


def test_basis_order_alpha2():
    got = [(m.perm.images, m.holes) for m in basis_enumerate(2)]
    assert got == [
        ((1, 2), ()),
        ((2, 1), ()),
        ((1, 2), (1,)),
        ((2, 1), (1,)),
        ((1, 2), (2,)),
        ((2, 1), (2,)),
        ((1, 2), (1, 2)),
    ]
    keys = [monomial_sort_key(m) for m in basis_enumerate(2)]
    assert keys == sorted(keys)


def test_format_monomial():
    assert format_monomial(Monomial.one(2)) == "1"
    assert format_monomial(mono((2, 1))) == "A(12)"
    assert format_monomial(mono((2, 1), (1,))) == "A(12) T1"
    assert format_monomial(mono((1, 2), (1, 2))) == "T1 T2"


# ------------------------------------------------------------------ rewriting


def test_word_to_state():
    tau = Permutation((2, 1))
    assert word_to_state(2, [("perm", tau)]) == ((2, 1), ())
    assert word_to_state(2, [("hole", 2)]) == ((1, 2), (2,))
    # a hole written left of a permutation letter is carried through it
    assert word_to_state(2, [("hole", 1), ("perm", tau)]) == ((2, 1), (2,))
    # a 3-cycle, unlike a transposition, tells h^{-1} from h
    tau3 = Permutation((2, 3, 1))
    assert word_to_state(3, [("perm", tau3), ("hole", 1), ("perm", tau3)]) == ((tau3 * tau3).images, (3,))


@pytest.mark.parametrize(
    "token, error, message",
    [
        (("perm", Permutation((2, 1, 3))), ContextError, "permutation token of wrong degree in alpha=2 word"),
        (("hole", 3), ValueError, "hole index 3 outside 1..2"),
        (("star", 1), ValueError, "unknown token kind 'star'"),
    ],
)
def test_word_to_state_refuses_a_bad_token(token, error, message):
    with pytest.raises(error) as excinfo:
        word_to_state(2, [("hole", 1), token, ("perm", Permutation((2, 1)))])
    assert str(excinfo.value) == message


def basis_word(m: Monomial) -> list:
    """The word A(g) T_{j_1} ... T_{j_k} of a basis monomial, as word_to_state's tokens."""
    return [("perm", m.perm), *(("hole", j) for j in m.holes)]


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_fuse_of_two_basis_states_is_the_state_of_the_two_words(alpha):
    basis = basis_enumerate(alpha)
    for p in basis:
        for q in basis:
            assert fuse(state_of(p), state_of(q)) == word_to_state(alpha, basis_word(p) + basis_word(q))


@st.composite
def two_words(draw):
    alpha = draw(st.integers(0, 6))
    letter = st.permutations(range(1, alpha + 1)).map(lambda g: ("perm", Permutation(tuple(g))))
    if alpha:
        letter = letter | st.integers(1, alpha).map(lambda i: ("hole", i))
    return alpha, draw(st.lists(letter, max_size=8)), draw(st.lists(letter, max_size=8))


@settings(max_examples=200, deadline=None)
@given(two_words())
def test_the_state_of_a_word_is_fuse_of_the_states_of_its_halves(words):
    alpha, u, v = words
    assert word_to_state(alpha, u + v) == fuse(word_to_state(alpha, u), word_to_state(alpha, v))


@pytest.mark.parametrize(
    "word,expected",
    [
        ("T2 T1", "-A(12) T1 + A(12) T2 + T1 T2"),
        ("A(12) T1 T2", "T1 - A(12) T1 + T1 T2"),
        ("T1 T1", "nu + (nu - 1) T1"),
    ],
)
def test_normal_form_examples(word, expected):
    x = element_from_word(2, parse_word(2, word))
    assert format_element(x) == expected


def test_square_relation_exactly():
    x = element_from_word(2, parse_word(2, "T1 T1"))
    assert dict(x.items()) == {
        Monomial.one(2): NuPoly.nu(),
        mono((1, 2), (1,)): NuPoly((-1, 1)),
    }


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_normalize_fixes_basis_monomials(alpha):
    nz = Normalizer()
    for m in basis_enumerate(alpha):
        assert nz.to_monomials(nz.reduce(m.perm.images, m.holes)) == {m: NuPoly.one()}


def test_leaf_ids_are_positions_in_monomials():
    nz = Normalizer()
    basis = basis_enumerate(2)
    for m in reversed(basis):
        nz.reduce(m.perm.images, m.holes)
    # each admissible state gets the next id the first time it is reached
    assert nz.monomials == list(reversed(basis))
    assert nz.reduce(basis[0].perm.images, basis[0].holes) == {len(basis) - 1: NuPoly.one()}


def test_clear_empties_the_memo_the_intern_table_and_the_leaves():
    nz = Normalizer()
    state = word_to_state(3, parse_word(3, "A(123) T2 T1 T3"))
    before = nz.to_monomials(nz.reduce(*state))
    assert nz._erased and nz._slides and nz._composers and nz._polys and nz.monomials
    nz.clear()
    assert not nz._erased and not nz._slides and not nz._composers and not nz._polys and not nz.monomials
    # the rerun fills both memos again
    assert nz.to_monomials(nz.reduce(*state)) == before
    assert nz._erased and nz._slides


def test_normalizer_memo_holds_one_object_per_distinct_polynomial():
    nz = Normalizer()
    basis = basis_enumerate(3)
    nfs = [nz.reduce(*fuse(state_of(p), state_of(q))) for p in basis[-6:] for q in basis[-6:]]
    # both memos hold packed coefficients, one int object per value ...
    packed = [c for memo in nz._erased.values() for _, cs, *_ in memo.values() for c in cs]
    packed += [c for _, _, cs, _ in nz._slides.values() for c in cs]
    assert len(set(packed)) > 1 and max(map(abs, packed)) >= 2**64
    assert len({id(c) for c in packed}) == len(set(packed))
    # ... and reduce decodes them to one NuPoly object per value
    polys = [c for nf in nfs for c in nf.values()]
    assert len(set(polys)) > 1
    assert len({id(c) for c in polys}) == len(set(polys))


def random_word_state(alpha: int, holes: int, seed: int):
    """The state of a seeded random word: `holes` hole letters, each after a random permutation letter."""
    rng = random.Random(seed)
    perms = list(all_permutations(alpha))
    tokens = []
    for _ in range(holes):
        tokens += [("perm", rng.choice(perms)), ("hole", rng.randint(1, alpha))]
    return word_to_state(alpha, tokens)


@pytest.mark.parametrize(
    "alpha, holes, seed, width",
    [(1, 80, 0, 128), (2, 80, 0, 256), (2, 80, 1, 256), (3, 30, 0, 64), (3, 50, 0, 128)],
)
def test_packed_engine_matches_the_reference_engine_on_random_words(alpha, holes, seed, width, reference_reduce):
    # the coefficient bounds of long words pass 2^63 and 2^127, so the digits widen
    state = random_word_state(alpha, holes, seed)
    nz = Normalizer()
    assert nz.to_monomials(nz.reduce(*state)) == reference_reduce(*state)
    assert nz._width == width
    assert nz.stats["widenings"] == {64: 0, 128: 1, 256: 2}[width]


@pytest.mark.parametrize("k, widenings", [(30, 0), (60, 1), (200, 2)])
def test_packed_engine_matches_the_reference_engine_on_powers_of_t1(k, widenings, reference_reduce):
    # every true coefficient of T1^k at alpha=1 is 0, 1 or -1, but the bound grows like 2.4^k
    nz = Normalizer()
    out = nz.to_monomials(nz.reduce((1,), (1,) * k))
    assert out == reference_reduce((1,), (1,) * k)
    assert {abs(c) for poly in out.values() for c in poly.coeffs} == {0, 1}
    assert nz.stats["widenings"] == widenings


def fused_table_states(alpha: int) -> list:
    """The distinct fused states (images, js) of the alpha table's pairs, in (p, q) order."""
    basis = [state_of(m) for m in basis_enumerate(alpha)]
    return list(dict.fromkeys(fuse(p, q) for p in basis for q in basis))


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_engine_matches_the_reference_engine_on_every_fused_table_state(alpha, reference_reduce):
    nz = Normalizer()
    for state in fused_table_states(alpha):
        assert nz.to_monomials(nz.reduce(*state)) == reference_reduce(*state), state


def test_engine_matches_the_reference_engine_on_alpha4_slide_states_with_images(reference_reduce):
    # each state rewrites through the slide memo of its js, kept for the identity,
    # so its own images k enter only as the composite k∘y of each end
    one = tuple(range(1, 5))
    sliding = [
        (images, js) for images, js in fused_table_states(4)
        if images != one and any(rule != "erase" for rule, _ in algebra._sites(images, js))
    ]
    nz = Normalizer()
    for state in random.Random(0).sample(sliding, 150):
        assert nz.to_monomials(nz.reduce(*state)) == reference_reduce(*state), state


@pytest.mark.parametrize("alpha, holes, seeds", [(5, 6, range(8)), (6, 5, range(4))])
def test_engine_matches_the_reference_engine_on_short_words(alpha, holes, seeds, reference_reduce):
    nz = Normalizer()
    for seed in seeds:
        state = random_word_state(alpha, holes, seed)
        assert nz.to_monomials(nz.reduce(*state)) == reference_reduce(*state), seed


def test_a_normal_form_reduced_before_a_widening_is_the_same_after_it():
    nz = Normalizer()
    state = word_to_state(2, parse_word(2, "A(12) T2 T1 T1 T2 T2"))
    before = nz.reduce(*state)
    assert any(poly.degree >= 2 for poly in before.values())
    leaves = list(nz.monomials)
    nz.reduce((1, 2), (1,) * 200)
    assert nz.stats["widenings"] == 2
    # the memo entries were re-encoded: the rerun only hits them, and decodes to the same leaf ids and NuPoly objects
    states = nz.stats["states"]
    after = nz.reduce(*state)
    assert nz.stats["states"] == states
    assert after == before and all(after[i] is before[i] for i in before)
    assert nz.monomials[: len(leaves)] == leaves
    nz.clear()
    assert nz._width == 64


def check_every_site(states) -> int:
    """Fire every site of every (images, js) state reachable from `states`; return how many states that is.

    Each site's children, normalized, must sum to the normal form of their
    parent.  The children are checked in turn, so the set checked is closed
    under rewriting in any order, and on it the normal form is unique.
    """
    nz = Normalizer()
    seen = set(states)
    work = list(seen)
    while work:
        images, js = work.pop()
        nf = nz.reduce(images, js)
        for rule, t in algebra._sites(images, js):
            children = algebra._emit(rule, t, images, js)
            assert combine((w, nz.reduce(*child).items()) for w, *child in children) == nf, (rule, t, images, js)
            for _, *child in children:
                child = tuple(child)
                if child not in seen:
                    seen.add(child)
                    work.append(child)
    return len(seen)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_every_site_agrees_on_every_state_of_the_table(alpha):
    basis = basis_enumerate(alpha)
    check_every_site({fuse(state_of(p), state_of(q)) for p in basis for q in basis})


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_every_site_agrees_on_every_state_with_at_most_four_holes(alpha):
    holes = [js for k in range(5) for js in product(range(1, alpha + 1), repeat=k)]
    states = [(g.images, js) for g in all_permutations(alpha) for js in holes]
    # no rule lengthens a state, so these states are closed under rewriting
    assert check_every_site(states) == len(states) == len(set(states))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_sites_are_empty_exactly_on_admissible_states(alpha):
    states = [js for k in range(4) for js in product(range(1, alpha + 1), repeat=k)]
    admissible = 0
    for g in all_permutations(alpha):
        for js in states:
            try:
                Monomial(g, js)
            except ValueError:
                constructs = False
            else:
                constructs = True
            admissible += constructs
            assert (algebra._sites(g.images, js) == []) == constructs, (g, js)
    # every admissible monomial has at most alpha <= 3 holes, so all were seen
    assert admissible == rook_count(alpha)


def test_sites_list_erase_sites_only_once_holes_increase():
    images = (3, 2, 1)
    # (3, 1) swaps; (1, 3) would erase but waits for the swap to clear
    assert algebra._sites(images, (3, 1, 3)) == [("swap", 0)]
    assert algebra._sites(images, (2, 2, 1)) == [("square", 0), ("swap", 1)]
    assert algebra._sites(images, (1, 2, 3)) == [("erase", 0), ("erase", 1)]


def test_normal_forms_commute_with_relabelling_the_hole_images():
    # the rules read g only at the hole positions, where they compare and exchange
    # its values, so an h increasing on g(set(js)) carries the normal form of
    # (g, js) to that of (h g, js), monomial by monomial
    rng = random.Random(28)
    nz = Normalizer()
    for _ in range(300):
        alpha = rng.randint(1, 5)
        g = tuple(rng.sample(range(1, alpha + 1), alpha))
        js = tuple(rng.randint(1, alpha) for _ in range(rng.randint(0, 6)))
        hit = sorted({g[j - 1] for j in js})
        h = rng.sample(range(1, alpha + 1), alpha)
        for y, v in zip(hit, sorted(h[y - 1] for y in hit)):
            h[y - 1] = v
        def relabel(images):
            return tuple(h[y - 1] for y in images)

        nf = nz.to_monomials(nz.reduce(g, js))
        relabelled = {Monomial(Permutation(relabel(m.perm.images)), m.holes): c for m, c in nf.items()}
        assert nz.to_monomials(nz.reduce(relabel(g), js)) == relabelled, (g, js, h)


def test_normalizer_stats_and_cache():
    nz = Normalizer()
    state = word_to_state(2, parse_word(2, "T1 T1"))
    nz.reduce(*state)
    assert nz.stats["square"] >= 1
    before = nz.stats["cache_hits"]
    nz.reduce(*state)
    assert nz.stats["cache_hits"] > before


def test_a_same_length_child_that_does_not_decrease_is_refused(monkeypatch):
    # every rule emits the state it was given, so its measure stays (2, 1, 4)
    monkeypatch.setattr(algebra, "_emit", lambda rule, t, images, js: ((1, images, js),))
    with pytest.raises(ConsistencyError, match="termination measure failed to decrease") as exc:
        Normalizer().reduce((1, 2), (2, 1))
    assert exc.value.payload == {"rule": "swap", "g": [1, 2], "parent": (2, 1, 4), "child": (2, 1, 4), "js": (2, 1)}


def test_a_refused_slide_step_reports_the_identity_state_that_reproduces_it(monkeypatch):
    # the square and swap steps of (k, js) are those of (1, js), composed with k
    monkeypatch.setattr(algebra, "_emit", lambda rule, t, images, js: ((1, images, js),))
    with pytest.raises(ConsistencyError) as exc:
        Normalizer().reduce((3, 1, 2), (3, 1))
    with pytest.raises(ConsistencyError) as again:
        Normalizer().reduce(tuple(exc.value.payload["g"]), exc.value.payload["js"])
    assert exc.value.payload["g"] == [1, 2, 3]
    assert again.value.payload == exc.value.payload


def test_shorter_children_are_not_measured(monkeypatch):
    calls = []
    measure = algebra._measure
    monkeypatch.setattr(algebra, "_measure", lambda images, js: calls.append(js) or measure(images, js))
    out = Normalizer().reduce((1, 2), (1,) * 30)
    assert out and not calls
    # a swap's first child has the parent's length, so both are measured
    Normalizer().reduce((1, 2), (2, 1))
    assert calls == [(2, 1), (1, 2)]


def test_measure_counts_inversions_as_the_quadratic_definition(monkeypatch, reference_normalizer):
    # on every state the alpha=4 table build reduces: (length, pairs s < t with
    # js[s] >= js[t], and when there are none, pairs whose hole images invert);
    # the reference engine's memo of whole states lists all 10,295 of them
    def quadratic(images, js):
        m = len(js)
        weak = sum(1 for s in range(m) for t in range(s + 1, m) if js[s] >= js[t])
        if weak:
            return (m, weak, m * m)
        hit = [images[j - 1] for j in js]
        return (m, 0, sum(1 for s in range(m) for t in range(s + 1, m) if hit[s] > hit[t]))

    monkeypatch.setattr(tables, "Normalizer", lambda: reference_normalizer)
    tables.structure_table(4, use_cache=False)
    nz = reference_normalizer
    assert len(nz._cache) == 10295
    for images, js in nz._cache:
        assert algebra._measure(images, js) == quadratic(images, js)


# a partial injection of degree 0..6: a permutation with some points undefined
rooks = st.integers(min_value=0, max_value=6).flatmap(
    lambda d: st.tuples(st.permutations(range(1, d + 1)), st.lists(st.booleans(), min_size=d, max_size=d))
).map(lambda drawn: PartialInjection(tuple(None if hole else y for y, hole in zip(*drawn))))


@given(rooks)
def test_monomials_on_trusted_permutations_hash_like_from_rook(sigma):
    checked = Monomial.from_rook(sigma)
    # the same permutation, rebuilt by the unchecked inverse and product
    for perm in (checked.perm.inverse().inverse(), Permutation.identity(sigma.alpha) * checked.perm):
        made = Monomial(perm, checked.holes)
        assert made == checked
        assert hash(made) == hash(checked)
        assert {checked: "found"}[made] == "found"


def test_normalizer_takes_no_arguments():
    # one rewriting order, so there is nothing to choose
    with pytest.raises(TypeError):
        Normalizer("middle")


# ------------------------------------------------------------------- elements


def test_element_construction_and_unit():
    one = OElement.one(2)
    th = gen_hole_element(1, 2)
    assert multiply(one, th) == th
    assert multiply(th, one) == th
    assert th.coefficient(mono((1, 2), (1,))) == NuPoly.one()
    assert OElement.zero(2) + th == th
    assert th - th == OElement.zero(2)


def test_perm_elements_compose():
    tau = Permutation((2, 1, 3))
    rho = Permutation((1, 3, 2))
    lhs = multiply(gen_perm_element(tau), gen_perm_element(rho))
    assert lhs == gen_perm_element(tau * rho)


def test_slide_relation():
    # A(g) T_j = T_{g(j)} A(g)
    tau = Permutation((2, 1))
    lhs = multiply(gen_perm_element(tau), gen_hole_element(1, 2))
    rhs = multiply(gen_hole_element(2, 2), gen_perm_element(tau))
    assert lhs == rhs


def test_word_equals_generator_product():
    for word in ("T2 T1", "A(12) T1 T2", "T1 T2 T1", "A(12) T2 A(12)"):
        tokens = parse_word(2, word)
        via_word = element_from_word(2, tokens)
        acc = OElement.one(2)
        for kind, value in tokens:
            gen = (
                gen_perm_element(value)
                if kind == "perm"
                else gen_hole_element(value, 2)
            )
            acc = multiply(acc, gen)
        assert acc == via_word


def test_multiply_is_associative_on_words():
    words = ["T1", "T2", "A(12)", "T1 T2", "T2 T1"]
    elems = [element_from_word(2, parse_word(2, w)) for w in words]
    for x in elems:
        for y in elems:
            for z in elems:
                assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_star_is_an_involution_and_antihomomorphism():
    basis = basis_enumerate(3)
    elems = [OElement.from_monomial(m) for m in basis]
    for e in elems:
        assert e.star().star() == e
    small = elems[:8]
    for x in small:
        for y in small:
            assert multiply(x, y).star() == multiply(y.star(), x.star())


def test_trace_and_symmetry():
    # the trace is the coefficient of the identity monomial
    ident = Monomial.one(2)
    one = OElement.one(2)
    assert one.coefficient(ident) == NuPoly.one()
    th = gen_hole_element(1, 2)
    assert th.coefficient(ident) == NuPoly.zero()
    assert multiply(th, th).coefficient(ident) == NuPoly.nu()
    elems = [OElement.from_monomial(m) for m in basis_enumerate(2)]
    for x in elems:
        for y in elems:
            assert multiply(x, y).coefficient(ident) == multiply(y, x).coefficient(ident)


def test_augmentation_counts_holes():
    th = gen_hole_element(1, 2)
    assert th.augmentation() == NuPoly.nu()
    assert gen_perm_element(Permutation((2, 1))).augmentation() == NuPoly.one()
    x = element_from_word(2, parse_word(2, "T1 T2"))
    assert x.augmentation() == NuPoly.monomial(2)


def test_augmentation_is_multiplicative():
    elems = [OElement.from_monomial(m) for m in basis_enumerate(2)]
    for x in elems:
        for y in elems:
            assert multiply(x, y).augmentation() == x.augmentation() * y.augmentation()


def test_evaluate_specializes_coefficients():
    x = element_from_word(2, parse_word(2, "T1 T1"))
    vals = x.evaluate(3)
    assert vals == {
        Monomial.one(2): Fraction(3),
        mono((1, 2), (1,)): Fraction(2),
    }
    # evaluation commutes with multiplication at a sample point
    y = gen_hole_element(2, 2)
    prod_then_eval = multiply(x, y).evaluate(5)
    for m, c in [*prod_then_eval.items(), *x.evaluate(Fraction(1, 2)).items()]:
        # smallest form: an int when integral, a Fraction otherwise
        assert type(c) is (int if c.denominator == 1 else Fraction)


def test_format_element_signs():
    x = element_from_word(2, parse_word(2, "T2 T1"))
    assert format_element(x) == "-A(12) T1 + A(12) T2 + T1 T2"
    assert format_element(OElement.zero(2)) == "0"
    assert format_element(OElement.one(2)) == "1"


def test_default_normalizer_is_shared():
    assert default_normalizer() is default_normalizer()


words = st.lists(
    st.one_of(
        st.sampled_from([("hole", 1), ("hole", 2)]),
        st.sampled_from(
            [("perm", Permutation((2, 1))), ("perm", Permutation((1, 2)))]
        ),
    ),
    min_size=0,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(words)
def test_random_words_normalize_consistently(tokens):
    x = element_from_word(2, tokens)
    check_every_site([word_to_state(2, tokens)])
    # the result is already in normal form: renormalizing is the identity
    again = OElement.zero(2)
    nz = Normalizer()
    for m, c in x.items():
        state = nz.to_monomials(nz.reduce(m.perm.images, m.holes))
        assert state == {m: NuPoly.one()}
        again = again + OElement(2, {m: c})
    assert again == x
