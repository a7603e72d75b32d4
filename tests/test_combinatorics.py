"""Permutations, partial injections, and the counting routes.

The frozen counts below were derived independently: the partial injection
counts by direct enumeration cross-checked against the closed form
sum_r (alpha choose r)^2 r!, and the block dimensions via hook lengths.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import rookalg
from rookalg.capacity import DEFAULT_ROOK_LIMIT, DEFAULT_TABLE_LIMIT, override, rook_limit, table_limit
from rookalg.combinatorics import (
    PartialInjection,
    Permutation,
    YoungDiagram,
    all_permutations,
    corner_map,
    embed_pair,
    fixed_space_dimensions,
    idempotent,
    irrep_dim,
    partitions,
    rook_count,
    rook_enumerate,
    rook_sort_key,
)
from rookalg.errors import CapacityError

ROOK_COUNTS = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546, 6: 13327}


# ---------------------------------------------------------------- permutations


def test_permutation_identity_and_inverse():
    p = Permutation((3, 1, 2))
    assert p * p.inverse() == Permutation.identity(3)
    assert p.inverse() * p == Permutation.identity(3)
    assert Permutation.identity(3).is_identity


def test_composition_is_right_to_left():
    # (p * q)(x) = p(q(x)): the left factor acts last.
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    assert (p * q).images == (2, 3, 1)
    assert (q * p).images == (3, 1, 2)


def test_transposition_and_cycles():
    t = Permutation.transposition(4, 2, 4)
    assert t.images == (1, 4, 3, 2)
    c = Permutation.from_cycles(4, ((1, 2), (3, 4)))
    assert c.images == (2, 1, 4, 3)
    assert c.cycles() == ((1, 2), (3, 4))
    assert Permutation.identity(3).cycles() == ()


def test_all_permutations_sizes():
    assert len(list(all_permutations(1))) == 1
    perms = list(all_permutations(4))
    assert len(perms) == 24
    assert len(set(perms)) == 24


def test_embed_pair():
    g = Permutation((2, 1))
    s = Permutation((3, 1, 2))
    e = embed_pair(g, s)
    assert e.images == (2, 1, 5, 3, 4)
    assert e.degree == 5


def test_embed_pair_is_a_homomorphism():
    perms = tuple(all_permutations(2))
    for g1 in perms:
        for g2 in perms:
            for s1 in perms:
                for s2 in perms:
                    lhs = embed_pair(g1, s1) * embed_pair(g2, s2)
                    assert lhs == embed_pair(g1 * g2, s1 * s2)


@given(st.permutations(range(1, 6)), st.permutations(range(1, 6)))
def test_permutation_group_laws(a, b):
    p = Permutation(tuple(a))
    q = Permutation(tuple(b))
    assert (p * q).inverse() == q.inverse() * p.inverse()
    for x in range(1, 6):
        assert (p * q)(x) == p(q(x))


# ------------------------------------------------------- trusted constructors

# two permutations of one degree in 0..6
perm_pairs = st.integers(min_value=0, max_value=6).flatmap(
    lambda d: st.tuples(st.permutations(range(1, d + 1)), st.permutations(range(1, d + 1)))
)


@given(perm_pairs)
def test_trusted_products_and_inverses_hash_like_checked_permutations(pair):
    p, q = (Permutation(tuple(images)) for images in pair)
    points = range(1, p.degree + 1)
    for made, checked in (
        (p * q, Permutation(tuple(p(q(x)) for x in points))),
        (p.inverse(), Permutation(tuple(p.images.index(y) + 1 for y in points))),
    ):
        assert made == checked
        assert hash(made) == hash(checked)
        assert {checked: "found"}[made] == "found"


@given(perm_pairs, st.data())
def test_trusted_corners_hash_like_checked_partial_injections(pair, data):
    u = Permutation(tuple(pair[0]))
    alpha = data.draw(st.integers(min_value=0, max_value=u.degree))
    made = corner_map(u, alpha)
    checked = PartialInjection(tuple(y if y <= alpha else None for y in u.images[:alpha]))
    assert made == checked
    assert hash(made) == hash(checked)
    assert {checked: "found"}[made] == "found"


def test_public_constructors_still_check():
    with pytest.raises(ValueError, match="not one-line notation"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match="must be distinct"):
        PartialInjection((2, 2))
    with pytest.raises(ValueError, match="must lie in 1..2"):
        PartialInjection((3, None))


# ------------------------------------------------------------ partial injections


def test_partial_injection_basics():
    pi = PartialInjection((None, 1, 3))
    assert pi.alpha == 3
    assert pi.rank == 2
    assert pi.domain() == (2, 3)
    assert pi.image_set() == frozenset({1, 3})
    assert pi(1) is None
    assert pi(2) == 1
    assert pi.inverse().serialize() == (2, 0, 3)


def test_serialization_roundtrip():
    for pi in rook_enumerate(3):
        assert PartialInjection.deserialize(pi.serialize()) == pi


def test_from_permutation_roundtrip():
    p = Permutation((2, 3, 1))
    pi = PartialInjection.from_permutation(p)
    assert pi.rank == 3
    assert pi.to_permutation() == p
    with pytest.raises(ValueError):
        PartialInjection((None, 1)).to_permutation()


def test_rook_compose_acts_right_to_left():
    # Composing the corner transposition after the rank-one idempotent
    # kills source 1 and sends 2 to 1.
    a = PartialInjection.from_permutation(Permutation((2, 1)))
    t1 = idempotent(2, (1,))
    assert (a * t1).serialize() == (0, 1)
    assert (t1 * a).serialize() == (2, 0)


def test_rook_compose_identity_and_associativity():
    rooks = rook_enumerate(2)
    ident = PartialInjection.identity(2)
    for a in rooks:
        assert a * ident == a
        assert ident * a == a
    for a in rooks[:5]:
        for b in rooks:
            for c in rooks[::3]:
                assert (a * b) * c == a * (b * c)


def test_idempotent_is_idempotent():
    t = idempotent(3, (1, 3))
    assert t * t == t
    assert t.serialize() == (0, 2, 0)


def test_corner_map():
    u = Permutation((3, 2, 1, 4))
    assert corner_map(u, 2).serialize() == (0, 2)
    # entries landing outside the corner are forgotten
    e = embed_pair(Permutation((2, 1)), Permutation((3, 1, 2)))
    assert corner_map(e, 2) == PartialInjection.from_permutation(Permutation((2, 1)))


def test_corner_map_definition():
    alpha = 2
    for u in all_permutations(4):
        pi = corner_map(u, alpha)
        for x in range(1, alpha + 1):
            expected = u(x) if u(x) <= alpha else None
            assert pi(x) == expected


# ----------------------------------------------------------------- enumeration


@pytest.mark.parametrize("alpha,count", sorted(ROOK_COUNTS.items())[:4])
def test_rook_counts(alpha, count):
    assert rook_count(alpha) == count
    rooks = rook_enumerate(alpha)
    assert len(rooks) == count
    assert len(set(rooks)) == count


def test_rook_count_closed_form_large():
    assert rook_count(5) == 1546
    assert rook_count(6) == 13327
    assert rook_count(7) == 130922


def test_rook_enumerate_is_sorted():
    rooks = rook_enumerate(3)
    keys = [rook_sort_key(pi) for pi in rooks]
    assert keys == sorted(keys)


def test_rook_enumerate_capacity():
    with pytest.raises(CapacityError):
        rook_enumerate(7)
    with override(4):
        assert len(rook_enumerate(4)) == 209


def test_rook_enumerate_refuses_a_negative_alpha():
    with pytest.raises(ValueError, match="alpha must be non-negative"):
        rook_enumerate(-1)
    assert len(rook_enumerate(0)) == 1


def test_a_negative_capacity_is_refused_from_either_source(monkeypatch):
    with pytest.raises(ValueError, match="capacity must be non-negative, got -1"):
        with override(-1):
            rook_enumerate(1)
    monkeypatch.setenv("ROOKALG_CAPACITY", "-1")
    with pytest.raises(ValueError, match="ROOKALG_CAPACITY must be non-negative"):
        rook_enumerate(1)
    # an explicit override still wins over the environment
    with override(1):
        assert len(rook_enumerate(1)) == 2


@pytest.mark.parametrize("env, outside", [(None, (DEFAULT_ROOK_LIMIT, DEFAULT_TABLE_LIMIT)), ("1", (1, 1))])
def test_override_scopes_nests_and_restores(monkeypatch, env, outside):
    if env is None:
        monkeypatch.delenv("ROOKALG_CAPACITY", raising=False)
    else:
        monkeypatch.setenv("ROOKALG_CAPACITY", env)
    assert (rook_limit(), table_limit()) == outside
    with override(None):
        assert (rook_limit(), table_limit()) == outside
    # the innermost block wins, over the environment too
    with override(2):
        assert (rook_limit(), table_limit()) == (2, 2)
        with override(5):
            assert (rook_limit(), table_limit()) == (5, 5)
        assert (rook_limit(), table_limit()) == (2, 2)
        with override(None):
            assert (rook_limit(), table_limit()) == (2, 2)
        # a refused limit leaves the enclosing one in force
        with pytest.raises(ValueError):
            with override(-1):
                pass
        assert (rook_limit(), table_limit()) == (2, 2)
    assert (rook_limit(), table_limit()) == outside
    with pytest.raises(CapacityError):
        with override(0):
            rook_enumerate(1)
    assert (rook_limit(), table_limit()) == outside


def test_the_rook_limit_covers_every_table_basis():
    # structure_table enumerates its basis under the rook limit
    assert DEFAULT_ROOK_LIMIT >= DEFAULT_TABLE_LIMIT


def test_no_public_function_takes_max_alpha():
    for name in rookalg.__all__:
        obj = getattr(rookalg, name)
        if callable(obj) and not inspect.isclass(obj):
            assert "max_alpha" not in inspect.signature(obj).parameters, name
    assert not inspect.signature(rook_limit).parameters
    assert not inspect.signature(table_limit).parameters


# -------------------------------------------------------------- block dimensions


def test_partitions():
    assert [d.rows for d in partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert partitions(0) == (YoungDiagram(()),)


@pytest.mark.parametrize(
    "rows,dim",
    [((1,), 1), ((3,), 1), ((1, 1, 1), 1), ((2, 1), 2), ((2, 2), 2), ((3, 2), 5)],
)
def test_irrep_dim_hook_lengths(rows, dim):
    assert irrep_dim(YoungDiagram(rows)) == dim


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_squared_dims_sum_to_factorial(n):
    total = sum(irrep_dim(d) ** 2 for d in partitions(n))
    assert total == len(list(all_permutations(n)))


@pytest.mark.parametrize(
    "alpha,dims",
    [(1, (1, 1)), (2, (1, 1, 2, 1)), (3, (1, 2, 1, 3, 3, 3, 1))],
)
def test_fixed_space_dimensions(alpha, dims):
    assert fixed_space_dimensions(alpha) == dims
    assert sum(d * d for d in dims) == rook_count(alpha)
