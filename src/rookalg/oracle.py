"""Ground-truth arithmetic in the group algebra of S_{alpha+n}.

Everything here is brute force on purpose: explicit permutations, exact
rational coefficients, and convolution straight from the definition.  The
symmetric group of the tail block {alpha+1, ..., alpha+n} plays the role
of the subgroup K; its double cosets are indexed by partial injections of
{1, ..., alpha} through the corner map.  One generator, _coset_members,
lists a coset's members in increasing order: coset_enumerate keeps them
all, canonical_completion the first.

Bi-invariant elements multiply by two routes that must agree.  The "fast"
route sums over a quotient of K: the corner of U_sigma k U_tau depends on
k only through its restriction to the r_tau = alpha - rank(tau) tail
points that U_tau sends the corner into, so it sums over the injections
of those points into the tail, each adding the falling-factorial weight
(n)_{r_sigma} / (n)_{r_rho} to the corner rho it gives.  It reads U_sigma
and U_tau off the two rooks and builds no permutation.  The
"convolve" route sums in the group algebra of S_{alpha+n} over the left
quotient G/K: a permutation's head, its images of 1 .. alpha, fixes its
left coset g K, so _left_quotient keeps one checked member per head,
weighted n!, and convolves.  The convolution, GroupAlgebraElement's
product, is the full double sum over both supports, which the route is
tested against: each product g h is one bytes.translate call, tallied in
integers per pair of coefficient classes, so it needs degree at most 255.

Every coefficient is made in smallest form, an int when integral and a
Fraction otherwise, by rational.smallest where it is made: the checked
constructors coerce through it, and each product, embed and augmentation
applies it to the values it computes; no element stores a zero.  The
convolution makes one coefficient per distinct integer tally, and
from_group reads the corner of each distinct head once, through _by_head.

Bi-invariant elements are stored in the scaled coset basis: e_sigma is the
sum of the delta functions over the coset of sigma, divided by n factorial.
Under this normalization the structure constants are polynomial in n, and
the generator images have augmentation 1 (permutation generators) and n
(hole generators).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations
from math import factorial, perm
from operator import attrgetter
from typing import Iterator

from .combinatorics import (
    Frozen,
    PartialInjection,
    Permutation,
    all_permutations,
    corner_map,
    embed_pair,
    idempotent,
    rook_sort_key,
)
from .errors import CapacityError, ConsistencyError, ContextError, EmptyCosetError
from .rational import Rational, format_rational, smallest
from .sparse import SparseVector, integral


class Context(Frozen):
    """The ambient pair: corner size alpha, tail subgroup degree n."""

    __slots__ = ("alpha", "n")
    alpha: int
    n: int

    def __init__(self, alpha: int, n: int) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", n)
        if type(alpha) is not int or type(n) is not int or alpha < 0 or n < 0:
            raise ValueError(f"alpha and n must be non-negative ints: {self}")

    def _key(self) -> tuple:
        return (self.alpha, self.n)

    @property
    def degree(self) -> int:
        return self.alpha + self.n


@lru_cache(maxsize=None)
def subgroup_elements(ctx: Context) -> tuple[Permutation, ...]:
    """The embedded tail subgroup, fixing 1..alpha pointwise."""
    ident = Permutation.identity(ctx.alpha)
    return tuple(embed_pair(ident, s) for s in all_permutations(ctx.n))


class GroupAlgebraElement(SparseVector):
    """A finitely supported rational function on S_{alpha+n} under convolution."""

    __slots__ = ("ctx",)
    _context = "ctx"
    _zero = 0
    _coerce = staticmethod(smallest)
    _sort_key = staticmethod(attrgetter("images"))

    @staticmethod
    def _check_key(ctx: Context, g: Permutation) -> None:
        if g.degree != ctx.degree:
            raise ContextError(f"element of degree {g.degree} in a degree-{ctx.degree} context")

    @classmethod
    def delta(cls, ctx: Context, g: Permutation) -> "GroupAlgebraElement":
        return cls(ctx, {g: 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check(other)
        if self.ctx.degree > 255:
            raise CapacityError(
                f"convolution composes points as bytes, so it needs degree <= 255, got {self.ctx.degree}"
            )
        # the full double sum over both supports, in integers: each operand is
        # scaled by the lcm of its denominators, its terms are grouped by that
        # integer coefficient, and the result is divided once.  Every product
        # g * h is formed: h is written as bytes and g as a translate table
        # sending byte p to g(p), so h.translate(g) is g * h in one-line
        # notation, and a Counter tallies the products of one pair of classes.
        dx, xs = integral(self.items())
        dy, ys = integral(other.items())
        gs: dict[int, list[bytes]] = defaultdict(list)
        for g, c in xs:
            gs[c].append(bytes((0, *g.images)).ljust(256, b"\0"))
        hs: dict[int, list[bytes]] = defaultdict(list)
        for h, c in ys:
            hs[c].append(bytes(h.images))
        acc: dict[bytes, int] = defaultdict(int)
        for cg, g_tables in gs.items():
            for ch, h_words in hs.items():
                counts: Counter[bytes] = Counter()
                for h in h_words:
                    counts.update(map(h.translate, g_tables))
                w = cg * ch
                for gh, count in counts.items():
                    acc[gh] += w * count
        d = dx * dy
        # one coefficient per distinct tally, shared by every key with that tally
        coeff = {c: smallest(c, d) for c in set(acc.values()) if c}
        # each key is a product of two permutations, so valid by construction
        return GroupAlgebraElement._trusted(
            self.ctx, {Permutation._trusted(tuple(gh)): coeff[c] for gh, c in acc.items() if c}
        )

    def augmentation(self) -> Rational:
        """Sum of all coefficients; multiplicative under convolution."""
        return smallest(sum(self._coeffs.values()))

    def star(self) -> "GroupAlgebraElement":
        """The involution sending each group element to its inverse."""
        return GroupAlgebraElement._trusted(self.ctx, {g.inverse(): c for g, c in self._coeffs.items()})


def k_average(ctx: Context) -> GroupAlgebraElement:
    """The uniform average over the embedded tail subgroup."""
    w = Fraction(1, factorial(ctx.n))
    return GroupAlgebraElement(ctx, {k: w for k in subgroup_elements(ctx)})


def project_biinvariant(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Two-sided averaging over the tail subgroup; idempotent."""
    avg = k_average(x.ctx)
    return avg * x * avg


def coset_corank(sigma: PartialInjection) -> int:
    return sigma.target.count(None)


def coset_size(ctx: Context, sigma: PartialInjection) -> int:
    """Number of permutations whose corner equals sigma: (n!)^2 / (n-r)! = n! (n)_r."""
    _require_coset(ctx, sigma)
    return factorial(ctx.n) * perm(ctx.n, coset_corank(sigma))


def _require_coset(ctx: Context, sigma: PartialInjection) -> None:
    """Refuse a key that indexes no double coset in ctx."""
    if sigma.alpha != ctx.alpha:
        raise ContextError(f"key of size {sigma.alpha} in an alpha={ctx.alpha} context")
    if coset_corank(sigma) > ctx.n:
        raise EmptyCosetError(f"key {sigma.serialize()} indexes no coset at n={ctx.n}")


def _coset_members(sigma: PartialInjection, ctx: Context) -> Iterator[Permutation]:
    """The permutations of S_{alpha+n} whose corner equals sigma, in increasing order.

    Each injection outs of the undefined sources into the tail gives a
    prefix, sigma's target row with its holes filled from outs in order;
    the tail then goes bijectively onto the missing corner targets and the
    tail points outs left unused.  Both the injections and the bijections
    come from sorted inputs, so the members come out in increasing order.
    """
    _require_coset(ctx, sigma)
    missing = sigma.missing()
    tails = range(ctx.alpha + 1, ctx.degree + 1)
    for outs in _permutations(tails, len(missing)):
        fills = iter(outs)
        prefix = tuple(next(fills) if v is None else v for v in sigma.target)
        rest = tuple(t for t in tails if t not in outs)
        for fill in _permutations(missing + rest):
            yield Permutation(prefix + fill)


@lru_cache(maxsize=None)
def canonical_completion(sigma: PartialInjection, ctx: Context) -> Permutation:
    """The least member of the coset of sigma, its deterministic representative.

    The points 1 .. alpha go where sigma sends them, its r undefined
    sources to alpha+1, alpha+2, ... in order; the tail points alpha+1 ..
    alpha+r go to the r corner targets without a preimage, in increasing
    order; the rest of the tail, alpha+r+1 .. alpha+n, is fixed.
    """
    return next(_coset_members(sigma, ctx))


@lru_cache(maxsize=None)
def coset_enumerate(sigma: PartialInjection, ctx: Context) -> tuple[Permutation, ...]:
    """All permutations of S_{alpha+n} whose corner equals sigma, in increasing order."""
    return tuple(_coset_members(sigma, ctx))


def _by_head(x: GroupAlgebraElement) -> dict[tuple[int, ...], tuple[Permutation, list]]:
    """x's terms by head, a permutation's images of 1 .. alpha: head -> (first member, coefficients).

    K fixes 1 .. alpha, so the permutations with one head are one left coset g K.
    """
    alpha = x.ctx.alpha
    heads: dict[tuple[int, ...], tuple[Permutation, list]] = {}
    for g, c in x.items():
        head = g.images[:alpha]
        if head in heads:
            heads[head][1].append(c)
        else:
            heads[head] = (g, [c])
    return heads


def _left_quotient(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """One member g of each left coset g K in x's support, weighted n! x(g); loud unless x is right-K-invariant.

    Then x y = n! sum over g K of x(g) g y for left-K-invariant y.
    """
    nf = factorial(x.ctx.n)
    acc = {}
    for head, (g, values) in _by_head(x).items():
        if len(values) != nf or values.count(values[0]) != nf:
            raise ConsistencyError(
                "element is not right-invariant under the tail subgroup",
                {"head": head, "seen": len(values), "coset_size": nf},
            )
        acc[g] = smallest(values[0] * nf)
    return GroupAlgebraElement._trusted(x.ctx, acc)


class BiinvariantElement(SparseVector):
    """A rational combination of the scaled double-coset sums e_sigma."""

    __slots__ = ("ctx",)
    _context = "ctx"
    _zero = 0
    _coerce = staticmethod(smallest)
    _sort_key = staticmethod(rook_sort_key)
    _check_key = staticmethod(_require_coset)

    @classmethod
    def basis(cls, ctx: Context, sigma: PartialInjection) -> "BiinvariantElement":
        return cls(ctx, {sigma: 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BiinvariantElement):
            return NotImplemented
        return dc_multiply(self, other, via="fast")

    def embed(self) -> GroupAlgebraElement:
        """Expand into the group algebra: each coset uniformly, scaled by 1/n!."""
        nf = factorial(self.ctx.n)
        acc: dict[Permutation, Rational] = {}
        for sigma, c in self._coeffs.items():
            cw = smallest(c, nf)
            for u in coset_enumerate(sigma, self.ctx):
                acc[u] = cw
        return GroupAlgebraElement._trusted(self.ctx, acc)

    @classmethod
    def from_group(cls, x: GroupAlgebraElement) -> "BiinvariantElement":
        """Collapse a coset-constant group-algebra element; loud otherwise.

        A permutation's corner depends only on its head, so the corner map
        is evaluated once per distinct head.
        """
        ctx = x.ctx
        buckets: dict[PartialInjection, list] = defaultdict(list)
        for g, values in _by_head(x).values():
            buckets[corner_map(g, ctx.alpha)] += values
        nf = factorial(ctx.n)
        acc = {}
        for sigma, values in buckets.items():
            size = coset_size(ctx, sigma)
            # list.count tries identity first, so equal values that are one object count fast
            if len(values) != size or values.count(values[0]) != size:
                raise ConsistencyError(
                    "element is not constant on double cosets",
                    {"sigma": sigma.serialize(), "seen": len(values), "coset_size": size},
                )
            acc[sigma] = smallest(values[0] * nf)
        return cls._trusted(ctx, acc)

    def augmentation(self) -> Rational:
        """Sum of c (n)_{r_sigma}: e_sigma sums |c_sigma| / n! = (n)_{r_sigma} deltas."""
        return smallest(sum(c * perm(self.ctx.n, coset_corank(s)) for s, c in self._coeffs.items()))

    def star(self) -> "BiinvariantElement":
        """Coset-basis involution: invert every index."""
        return BiinvariantElement._trusted(self.ctx, {s.inverse(): c for s, c in self._coeffs.items()})

    def to_pairs(self) -> list[tuple[tuple[int, ...], str]]:
        """Canonical dump: (serialized index, "p/q") sorted by canonical order."""
        return [(sigma.serialize(), format_rational(c)) for sigma, c in self.sorted_items()]


def gen_perm(g: Permutation, ctx: Context) -> BiinvariantElement:
    """Scaled coset sum of the block-diagonal embedding of g; augmentation 1."""
    if g.degree != ctx.alpha:
        raise ContextError(f"generator permutation has degree {g.degree}, expected {ctx.alpha}")
    return BiinvariantElement(ctx, {PartialInjection.from_permutation(g): 1})


def gen_hole(i: int, ctx: Context) -> BiinvariantElement:
    """Scaled coset sum for the corank-one idempotent at i; augmentation n."""
    if not 1 <= i <= ctx.alpha:
        raise ValueError(f"hole index {i} outside 1..{ctx.alpha}")
    if ctx.n < 1:
        raise EmptyCosetError("hole generators need n >= 1")
    return BiinvariantElement(ctx, {idempotent(ctx.alpha, (i,)): 1})


def _dc_multiply_fast(x: BiinvariantElement, y: BiinvariantElement) -> BiinvariantElement:
    """Single-sum product over a quotient of the tail subgroup, read off the two rooks.

    U_tau, the canonical completion of tau, sends its r_tau = alpha - rank(tau)
    undefined sources to the tail points L = alpha+1 .. alpha+r_tau in order,
    and k in the tail subgroup fixes the corner, so the corner rho of
    U_sigma k U_tau depends on k only through its restriction to L.  Each k
    adds |c_sigma| |c_tau| / ((n!)^2 |c_rho|) to e_rho, and an injection of L
    into the tail stands for n! / (n)_{r_tau} of them; as |c_sigma| =
    n! (n)_{r_sigma}, an injection adds (n)_{r_sigma} / (n)_{r_rho}.  The
    corner entry U_sigma sends each point to is read off sigma: its target
    row on 1 .. alpha, its missing targets on the next r_sigma points, and
    none on the rest of the tail.  Each operand is scaled by the lcm of its
    denominators, so the tallies are integers; each corner's coefficient is
    one value in smallest form, built at the end.
    """
    ctx = x.ctx
    alpha, n = ctx.alpha, ctx.n
    tails = range(alpha + 1, ctx.degree + 1)
    dx, xs = integral(x.items())
    dy, y_ints = integral(y.items())
    ys = []
    for tau, cy in y_ints:
        head = tau.serialize()  # 0 at each undefined source, where u_corner holds None
        slots = [i for i, p in enumerate(head) if not p]  # the corner points sent into L
        ys.append((head, slots, cy))
    acc: dict[tuple[int | None, ...], int] = defaultdict(int)
    for sigma, cx in xs:
        r = coset_corank(sigma)
        # the corner entry U_sigma sends each point p to, indexed by p
        u_corner = (None, *sigma.target, *sigma.missing(), *(None,) * (n - r))
        weight_x = cx * perm(n, r)
        for head, slots, cy in ys:
            # k fixes the other corner points; the slots are overwritten per injection
            row = [u_corner[p] for p in head]
            weight = weight_x * cy
            for images in _permutations(tails, len(slots)):
                for i, p in zip(slots, images):
                    row[i] = u_corner[p]
                acc[tuple(row)] += weight
    d = dx * dy
    # distinct points of U_sigma's one-line images, read through its injective corner;
    # a corner whose tally cancels is dropped here, as nothing downstream filters zeros
    out = {PartialInjection._trusted(c): smallest(t, d * perm(n, c.count(None))) for c, t in acc.items() if t}
    return BiinvariantElement._trusted(ctx, out)


def dc_multiply(x: BiinvariantElement, y: BiinvariantElement, *, via: str = "fast") -> BiinvariantElement:
    """Product of bi-invariant elements.

    via="fast" uses the single-sum form over the tail subgroup;
    via="convolve" embeds both factors and convolves in the full group
    algebra, the left factor summed over the left quotient G/K, so with n!
    times fewer products than the full double sum.  The two routes must
    agree exactly and both are kept.
    """
    x._check(y)
    if via == "fast":
        return _dc_multiply_fast(x, y)
    if via == "convolve":
        return BiinvariantElement.from_group(_left_quotient(x.embed()) * y.embed())
    raise ValueError(f"unknown multiplication route {via!r}")
