"""Normal-form arithmetic for the interpolated corner algebra.

The algebra is presented by permutation generators A(g), g in S_alpha, and
hole generators T_1, ..., T_alpha, with coefficients polynomial in a formal
parameter nu.  Defining relations:

    A(g) A(h)   = A(gh)
    T_i A(g)    = A(g) T_{g^{-1}(i)}
    T_j T_j     = (nu - 1) T_j + nu A(1)
    T_u T_v     = T_v T_u + A((uv)) T_u - A((uv)) T_v          (u != v)
    A((uv)) T_u T_v = T_u T_v + T_u - A((uv)) T_u              (u < v)

Every element is a unique combination of admissible monomials
A(g) T_{j_1} ... T_{j_m} with j_1 < ... < j_m and g(j_1) < ... < g(j_m).
The rewriting engine reduces arbitrary words to that basis and refuses to
run forever: each rule application must strictly decrease a termination
measure, and a violation raises ConsistencyError instead of looping.

It rewrites in one order: the leftmost square or swap site fires first,
and an erase site fires only when there is none.  That the normal form does
not depend on the order is checked, not assumed: the tests fire every site
`_sites` lists, for every state reached from the alpha <= 3 tables and every
state with at most four holes at alpha <= 4, and require each to leave the
normal form unchanged.  With termination, that makes the normal form unique
on those states (Newman's lemma).

The engine works on plain tuples of ints.  A state A(g) T_{js} is
(images, js), the one-line images of g and the hole indices, and the swap
and erase rules form g (uv) by exchanging two entries of images.  The
square and swap rules read only js, so the engine rewrites each js once,
from the identity, and composes the result with the images; only the
erase rule's states are kept whole (see `Normalizer`).  Words, stars,
products and the table build all reach their states through `fuse`, the
one copy of the slide relation.  The recursion makes no Permutation and
no Monomial, except one Monomial for each admissible state the first time
it reaches it: that Monomial's position in `Normalizer.monomials` is the
leaf id that normal forms are keyed by.  Callers map ids back once, after
summing (`Normalizer.to_monomials`), and the table build maps them to
basis indices.  Nothing enumerates the basis, so a word normalizes at any
alpha.

Nor does the recursion make a NuPoly.  Every rule weight is 1, -1, nu or
nu - 1, so every normal form lies in Z[nu], and the recursion holds each
coefficient p as the packed int p(2^B) (Kronecker substitution; Harvey,
J. Symb. Comp. 2009), with a bound on the size of its coefficients that
tells when the digit width B must grow.  `Normalizer.reduce` decodes each
distinct value once, into an interned NuPoly; the Normalizer docstring has
the details.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, starmap
from operator import ge, gt, itemgetter
from typing import Sequence

from .combinatorics import Frozen, PartialInjection, Permutation, rook_enumerate
from .errors import ConsistencyError, ContextError
from .nupoly import NuPoly
from .rational import Rational
from .sparse import SparseVector, combine

_ONE = NuPoly.one()
_MINUS_ONE = -_ONE
_NU = NuPoly.nu()
_NU_MINUS_ONE = _NU - _ONE
# the digit width, in bits, of a new Normalizer's packed coefficients
_FIRST_WIDTH = 64


class Monomial(Frozen):
    """Admissible normal-form monomial A(perm) T_{holes}."""

    __slots__ = ("perm", "holes")
    perm: Permutation
    holes: tuple[int, ...]

    def __init__(self, perm: Permutation, holes: Sequence[int]) -> None:
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "holes", tuple(holes))
        alpha = self.perm.degree
        for j in self.holes:
            if type(j) is not int or not 1 <= j <= alpha:
                raise ValueError(f"hole index {j!r} outside 1..{alpha}")
        if any(a >= b for a, b in zip(self.holes, self.holes[1:])):
            raise ValueError(f"hole indices must be strictly increasing: {self.holes}")
        images = tuple(self.perm(j) for j in self.holes)
        if any(a >= b for a, b in zip(images, images[1:])):
            raise ValueError(f"hole images must be strictly increasing: {self.holes} -> {images}")

    def _key(self) -> tuple:
        return (self.perm, self.holes)

    @classmethod
    def one(cls, alpha: int) -> "Monomial":
        return cls(Permutation.identity(alpha), ())

    @property
    def alpha(self) -> int:
        return self.perm.degree

    @property
    def hole_degree(self) -> int:
        return len(self.holes)

    def to_rook(self) -> PartialInjection:
        """Forget the permutation on the holes; a bijection onto partial injections."""
        holes = set(self.holes)
        target = tuple(None if x in holes else self.perm(x) for x in range(1, self.alpha + 1))
        return PartialInjection(target)

    @classmethod
    def from_rook(cls, sigma: PartialInjection) -> "Monomial":
        """Inverse of to_rook: fill the holes order-preservingly."""
        missing = iter(sigma.missing())
        images = tuple(next(missing) if v is None else v for v in sigma.target)
        holes = tuple(x for x, v in enumerate(sigma.target, start=1) if v is None)
        return cls(Permutation(images), holes)


def monomial_sort_key(m: Monomial) -> tuple:
    return (len(m.holes), m.holes, m.perm.images)


def basis_enumerate(alpha: int) -> tuple[Monomial, ...]:
    """All admissible monomials, sorted by (hole count, holes, permutation)."""
    out = [Monomial.from_rook(s) for s in rook_enumerate(alpha)]
    out.sort(key=monomial_sort_key)
    return tuple(out)


State = tuple[tuple[int, ...], tuple[int, ...]]


def _measure(images: tuple[int, ...], js: tuple[int, ...]) -> tuple[int, int, int]:
    """Strictly decreasing along every rewrite: (length, weak inversions, image inversions)."""
    m = len(js)
    weak = sum(starmap(ge, combinations(js, 2)))
    if weak:
        return (m, weak, m * m)
    return (m, 0, sum(starmap(gt, combinations([images[j - 1] for j in js], 2))))


def fuse(left: State, right: State) -> State:
    """The state of the product of two states, before normalization: the one slide rule.

    A(g) T_I A(h) T_J = A(gh) T_{h^{-1}(I)} T_J, since each T_i slides
    through A(h) by T_i A(h) = A(h) T_{h^{-1}(i)}.
    """
    (g, holes), (h, js) = left, right
    # h^{-1}(i) is the position of i in h's one-line images
    return tuple([g[y - 1] for y in h]), tuple([h.index(i) + 1 for i in holes]) + js


def star_state(m: Monomial) -> State:
    """The state of the word m* = T_{j_k} ... T_{j_1} A(g^{-1}), before normalization."""
    return word_to_state(m.alpha, [*(("hole", j) for j in reversed(m.holes)), ("perm", m.perm.inverse())])


def word_to_state(alpha: int, tokens: Sequence[tuple[str, object]]) -> State:
    """Collect all permutation letters on the left.

    Tokens are ("perm", Permutation) or ("hole", index).  Each token is a
    one-letter state, A(g) or T_i, and the word is their product, folded
    from the right through `fuse`.
    """
    one = tuple(range(1, alpha + 1))
    state: State = (one, ())
    for kind, payload in reversed(list(tokens)):
        if kind == "perm":
            g = payload
            if not isinstance(g, Permutation) or g.degree != alpha:
                raise ContextError(f"permutation token of wrong degree in alpha={alpha} word")
            letter: State = (g.images, ())
        elif kind == "hole":
            i = int(payload)  # type: ignore[call-overload]
            if not 1 <= i <= alpha:
                raise ValueError(f"hole index {i} outside 1..{alpha}")
            letter = (one, (i,))
        else:
            raise ValueError(f"unknown token kind {kind!r}")
        state = fuse(letter, state)
    return state


def _sites(images: tuple[int, ...], js: tuple[int, ...]) -> list[tuple[str, int]]:
    """Every (rule, t) that may fire on A(g) T_{js}, in the order reduce tries them.

    Square and swap sites come first, left to right.  Erase sites are listed
    only when there is none: `_emit`'s erase rule assumes the other holes
    avoid u and v, which holds once js strictly increases.  An empty list
    means the state is admissible.
    """
    pairs = range(len(js) - 1)
    sites = [("square" if js[t] == js[t + 1] else "swap", t) for t in pairs if js[t] >= js[t + 1]]
    return sites or [("erase", t) for t in pairs if images[js[t] - 1] > images[js[t + 1] - 1]]


class _Widen(Exception):
    """A bound reached half the digit base; `Normalizer.reduce` widens the digits and runs again."""


def _pack(coeffs, width: int) -> int:
    """p(2^width) for the p in Z[nu] with these coefficients, constant term first."""
    return sum(c << (width * k) for k, c in enumerate(coeffs))


def _unpack(x: int, width: int) -> tuple[int, ...]:
    """The coefficients, constant term first, of the p with p(2^width) = x.

    They are the balanced base-2^width digits of x, each in
    [-2^(width-1), 2^(width-1)), so this inverts `_pack` on every p whose
    coefficients lie in that range.  The last digit is nonzero.
    """
    base, half = 1 << width, 1 << (width - 1)
    mask = base - 1
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= base
        out.append(d)
        x = (x - d) >> width
    return tuple(out)


def _children(rule: str, t: int, images: tuple[int, ...], js: tuple[int, ...]):
    """`_emit`'s terms, each child of the parent's length checked to decrease `_measure` first."""
    parent = None
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
        yield w, images2, js2


class Normalizer:
    """Rewrites states A(g) T_{js} to admissible normal form, with memoization.

    A state is (images, js): the one-line images of g and the hole indices,
    two tuples of ints.  The first site `_sites` lists fires.  The tests
    check that every other listed site gives the same normal form (see the
    module docstring).

    A normal form maps leaf ids to coefficients in Z[nu].  The first time
    the recursion reaches an admissible state it appends that state's
    Monomial to `monomials`, and the state's leaf id is its position there;
    `to_monomials` maps a normal form back.

    Rewriting runs in two phases, each with its own memo.  While `_sites`
    lists a square or swap site, the rule, its weights and its children's js
    depend on js alone, and each child of (k, js) is (k∘t, js') for t the
    identity or the transposition (u v) of the swapped holes.  So if the
    identity state (1, js) rewrites to sum c·(y, J) over its ends, the
    states with no square or swap site (J strictly increases there), then
    (k, js) rewrites to sum c·(k∘y, J), and NF(k, js) = sum c·NF(k∘y, J).
    `_slide` builds that expansion by its own recursion on identity states,
    and the slide memo `_slides` keeps it once per js, its ends grouped by
    y and each y held as its one composer k -> k∘y.  The erase rule keeps J
    strictly increasing, so the erase phase never re-enters the first;
    `_erase` rewrites it, and the erase memo `_erased` keeps the normal form
    of each (g, J) it meets, keyed by g and then J.  The alpha=4 table build
    visits 755 slide and 384 erase states, where a memo of whole states
    visited 10,295.  The measure check of a slide step reads only js, so a
    refused step reports the identity images and its js, and
    `reduce(identity, js)` reproduces it.

    The recursion works on packed coefficients (Kronecker substitution): p
    in Z[nu] is the int p(2^B), for the digit width B that the Normalizer
    holds, 64 at first.  A sum is then one int addition, a product by a
    rule weight w is one product by the cached int w(2^B), and a zero test
    is `== 0`.  An erase memo entry holds leaf ids, packed coefficients and
    a bound with |c| <= bound for every coefficient c of every polynomial
    in it.  A leaf's bound is 1, and a parent's is the sum over its children
    of |w|_1 * bound(child), where |w|_1 sums the absolute coefficients of
    the weight.  A slide memo entry holds one bound b per end, built by the
    same rule from the ends' bound 1, so that the bound of (k, js) is
    sum b·bound(k∘y, J).  An end whose coefficient cancels is dropped, with
    its bound, once the sum of every end's bound shows that its packed 0 is
    a zero polynomial: it adds nothing to the normal form, and each kept
    end's b still bounds |c|_1, so no digit is decoded wrong.  While every
    bound is below 2^(B-1), the balanced base-2^B digits of a packed value
    are its coefficients, so packing is exact and invertible.  A state whose bound, or identity
    state whose sum of bounds, reaches 2^(B-1) is not stored: B doubles,
    every memo entry is re-encoded at the new width (exactly, as each is
    decodable at the old one), and the top-level call runs again.  Leaf
    ids, memo states and `monomials` stay as they were, so no input is
    refused for the size of its coefficients and none is decoded wrong.
    `stats["widenings"]` counts the doublings; the rerun repeats the state
    and rule counts of the states that the aborted call had entered but not
    finished, and finds the ones it finished in the memos.
    `stats["states"]` counts the entries both memos store.
    `stats["cache_hits"]` counts every lookup that finds its entry,
    including one for each end of a slide expansion that the sum finds in
    the erase memo, so it is not comparable with a count of memoised states
    hit.

    `_ints` interns the packed values, so the memos hold one int object per
    value.  `reduce` decodes each distinct value once, into the NuPoly that
    `_polys` keeps for it, so the normal forms it returns share one NuPoly
    object per value.  `clear` empties all seven tables (both memos,
    `_composers`, `_ints`, `_polys`, `_weights` and `monomials`) and returns
    to the first width.
    """

    def __init__(self):
        # erase memo: images -> J -> (leaf ids, packed coefficients, bound)
        self._erased: dict[tuple[int, ...], dict[tuple[int, ...], tuple]] = {}
        # slide memo: identity state (1, js) -> (composers k -> k∘y, holes J, packed coefficients, bounds)
        self._slides: dict[State, tuple[tuple, tuple, tuple[int, ...], tuple[int, ...]]] = {}
        # y's images -> k -> k∘y: `tuple` for the identity (it returns a tuple as it is), else an itemgetter
        self._composers: dict[tuple[int, ...], object] = {}
        self._ints: dict[int, int] = {}
        self._polys: dict[int, NuPoly] = {}
        # each rule weight w as (w(2^B), |w|_1), at the current width
        self._weights: dict[object, tuple[int, int]] = {}
        self._width = _FIRST_WIDTH
        self.monomials: list[Monomial] = []
        self.stats = {"square": 0, "swap": 0, "erase": 0, "states": 0, "cache_hits": 0, "widenings": 0}

    def clear(self) -> None:
        """Empty both memos, the intern tables and the leaves; no normal form changes."""
        self._erased.clear()
        self._slides.clear()
        self._composers.clear()
        self._ints.clear()
        self._polys.clear()
        self._weights.clear()
        self._width = _FIRST_WIDTH
        self.monomials.clear()

    def to_monomials(self, nf: dict[int, NuPoly]) -> dict[Monomial, NuPoly]:
        """A normal form, or a combination of them, keyed by Monomial instead of leaf id."""
        leaves = self.monomials
        return {leaves[i]: c for i, c in nf.items()}

    def reduce(self, images: tuple[int, ...], js: tuple[int, ...]) -> dict[int, NuPoly]:
        """Normal form of the single state A(g) T_{js}, as leaf id -> coefficient."""
        while True:
            try:
                ids, packed = self._normal_form(images, js)
                break
            except _Widen:
                self._widen()
        polys = self._polys
        for c in set(packed).difference(polys):
            polys[c] = NuPoly(_unpack(c, self._width))
        return dict(zip(ids, map(polys.__getitem__, packed)))

    def _normal_form(self, images: tuple[int, ...], js: tuple[int, ...]):
        """(leaf ids, packed coefficients) of the state: sum c·NF(k∘y, J) over the ends of its slide phase."""
        sites = _sites(images, js)
        if not sites or sites[0][0] == "erase":
            return self._erase(images, js)[:2]
        erased = self._erased
        acc: dict[int, int] = {}
        get = acc.get
        bound = hits = 0
        last = None
        try:
            # the ends come grouped by y, so k∘y and its erase memo are looked up once per group
            for compose, holes, c, b in zip(*self._slide(tuple(range(1, len(images) + 1)), js)):
                if compose is not last:
                    last = compose
                    k = compose(images)
                    memo = erased.get(k)
                    if memo is None:
                        memo = erased[k] = {}
                hit = memo.get(holes)
                if hit is None:
                    hit = self._erase(k, holes)
                else:
                    hits += 1
                ids, packed, b2 = hit
                bound += b * b2
                for i, x in zip(ids, packed):
                    acc[i] = get(i, 0) + c * x
        finally:
            self.stats["cache_hits"] += hits
        if bound >> (self._width - 1):
            raise _Widen
        if 0 in acc.values():
            acc = {i: c for i, c in acc.items() if c}
        return tuple(acc), acc.values()

    def _slide(self, one: tuple[int, ...], js: tuple[int, ...]):
        """The slide memo entry (composers, holes J, packed coefficients, bounds) of the identity state (one, js)."""
        key = (one, js)
        hit = self._slides.get(key)
        if hit is not None:
            self.stats["cache_hits"] += 1
            return hit
        self.stats["states"] += 1
        # the identity inverts no pair, so it has no site exactly when js strictly increases
        sites = _sites(one, js)
        if not sites:
            out = ((self._composer(one, one),), (js,), (self._ints.setdefault(1, 1),), (1,))
        else:
            rule, t = sites[0]
            self.stats[rule] += 1
            # composer of y -> J -> [packed coefficient, bound]
            groups: dict[object, dict[tuple[int, ...], list[int]]] = {}
            weights = self._weights
            for w, images2, js2 in _children(rule, t, one, js):
                pw, norm = weights.get(w) or self._weight(w)
                composers, hole_sets, cs, bs = self._slide(one, js2)
                if pw != 1:
                    cs = [pw * c for c in cs]
                if norm != 1:
                    bs = [norm * b for b in bs]
                last = None
                for compose, holes, c, b in zip(composers, hole_sets, cs, bs):
                    if compose is not last:
                        last = compose
                        # the child is (t, js2) for t the identity or a transposition, so its ends are (t∘y, J)
                        if images2 != one:
                            compose = self._composer(one, compose(images2))
                        group = groups.setdefault(compose, {})
                    end = group.get(holes)
                    if end is None:
                        group[holes] = [c, b]
                    else:
                        end[0] += c
                        end[1] += b
            ends = [(f, J, c, b) for f, group in groups.items() for J, (c, b) in group.items()]
            if sum(b for _, _, _, b in ends) >> (self._width - 1):
                raise _Widen
            # below that bound a packed 0 is a zero polynomial, so the end adds nothing and is
            # dropped; T_js is nonzero, so some end remains
            composers, holes, cs, bs = zip(*[(f, J, c, b) for f, J, c, b in ends if c])
            out = (composers, holes, tuple(map(self._ints.setdefault, cs, cs)), bs)
        self._slides[key] = out
        return out

    def _composer(self, one: tuple[int, ...], images: tuple[int, ...]):
        compose = self._composers.get(images)
        if compose is None:
            compose = self._composers[images] = tuple if images == one else itemgetter(*[y - 1 for y in images])
        return compose

    def _erase(self, images: tuple[int, ...], js: tuple[int, ...]):
        """The erase memo entry (leaf ids, packed coefficients, bound) of a state with no square or swap site."""
        memo = self._erased.get(images)
        if memo is None:
            memo = self._erased[images] = {}
        hit = memo.get(js)
        if hit is not None:
            self.stats["cache_hits"] += 1
            return hit
        self.stats["states"] += 1
        sites = _sites(images, js)
        if not sites:
            self.monomials.append(Monomial(Permutation(images), js))
            out = ((len(self.monomials) - 1,), (self._ints.setdefault(1, 1),), 1)
        else:
            rule, t = sites[0]
            self.stats[rule] += 1
            acc: dict[int, int] = {}
            get = acc.get
            weights = self._weights
            bound = 0
            for w, images2, js2 in _children(rule, t, images, js):
                ids, packed, b = self._erase(images2, js2)
                pw, norm = weights.get(w) or self._weight(w)
                bound += norm * b
                if pw != 1:
                    packed = map(pw.__mul__, packed)
                if acc:
                    for k, c in zip(ids, packed):
                        acc[k] = get(k, 0) + c
                else:
                    acc.update(zip(ids, packed))
            if bound >> (self._width - 1):
                raise _Widen
            if 0 in acc.values():
                acc = {k: c for k, c in acc.items() if c}
            cs = acc.values()
            out = (tuple(acc), tuple(map(self._ints.setdefault, cs, cs)), bound)
        memo[js] = out
        return out

    def _weight(self, w) -> tuple[int, int]:
        """(w(2^B), |w|_1) for a rule weight w, an int or a NuPoly over Z, cached for this width."""
        coeffs = w.coeffs if isinstance(w, NuPoly) else (w,)
        out = self._weights[w] = (_pack(coeffs, self._width), sum(map(abs, coeffs)))
        return out

    def _widen(self) -> None:
        """Double the digit width and re-encode both memos; every leaf id, state and end stays."""
        old, new = self._width, 2 * self._width
        # the memos' values are in _ints, and the normal forms reduce has returned are in _polys
        recode = {c: _pack(_unpack(c, old), new) for c in self._ints.keys() | self._polys.keys()}
        self._ints = {recode[c]: recode[c] for c in self._ints}
        self._polys = {recode[c]: poly for c, poly in self._polys.items()}
        for memo in self._erased.values():
            for js, (ids, packed, bound) in memo.items():
                memo[js] = (ids, tuple([recode[c] for c in packed]), bound)
        slides = self._slides
        for key, (composers, holes, packed, bounds) in slides.items():
            slides[key] = (composers, holes, tuple([recode[c] for c in packed]), bounds)
        self._weights.clear()
        self._width = new
        self.stats["widenings"] += 1


def _emit(rule: str, t: int, images: tuple[int, ...], js: tuple[int, ...]):
    """Replacement terms (weight, images, js) for one rule application at site t.

    Each weight is 1, -1, nu or nu - 1, the units as plain ints; the
    recursion adds a child of weight 1 as it is and multiplies any other by
    the weight's packed value.
    """
    if rule == "square":
        one_copy = js[: t + 1] + js[t + 2 :]
        no_copy = js[:t] + js[t + 2 :]
        return ((_NU_MINUS_ONE, images, one_copy), (_NU, images, no_copy))
    u, v = js[t], js[t + 1]
    # g (uv): the images of g with those of u and v exchanged
    swapped = list(images)
    swapped[u - 1], swapped[v - 1] = images[v - 1], images[u - 1]
    swapped = tuple(swapped)
    tail = js[t + 2 :]
    if rule == "swap":
        # u > v here; prefix indices slide through A((uv))
        mapped = tuple([v if p == u else u if p == v else p for p in js[:t]])
        return (
            (1, images, js[:t] + (v, u) + tail),
            (1, swapped, mapped + (u,) + tail),
            (-1, swapped, mapped + (v,) + tail),
        )
    if rule == "erase":
        # u < v but g(u) > g(v); prefix and tail avoid u, v, so they pass through untouched
        shorter = js[: t + 1] + js[t + 2 :]
        return ((1, swapped, js), (1, swapped, shorter), (-1, images, shorter))
    raise ValueError(f"unknown rule {rule!r}")


_DEFAULT_NORMALIZER = Normalizer()


def default_normalizer() -> Normalizer:
    """The Normalizer that element arithmetic shares; public because the bench/ tracer reads its stats."""
    return _DEFAULT_NORMALIZER


def _as_poly(c) -> NuPoly:
    if isinstance(c, NuPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return NuPoly.constant(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class OElement(SparseVector):
    """A polynomial-in-nu combination of admissible monomials."""

    __slots__ = ("alpha",)
    _context = "alpha"
    _zero = NuPoly.zero()
    _coerce = staticmethod(_as_poly)
    _sort_key = staticmethod(monomial_sort_key)

    @staticmethod
    def _check_key(alpha: int, m: Monomial) -> None:
        if m.alpha != alpha:
            raise ContextError(f"monomial of size {m.alpha} in an alpha={alpha} element")

    @classmethod
    def one(cls, alpha: int) -> "OElement":
        return cls(alpha, {Monomial.one(alpha): _ONE})

    @classmethod
    def from_monomial(cls, m: Monomial) -> "OElement":
        return cls(m.alpha, {m: _ONE})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NuPoly)):
            return self.scale(other)
        if not isinstance(other, OElement):
            return NotImplemented
        return multiply(self, other)

    def augmentation(self) -> NuPoly:
        """Algebra map with A(g) -> 1 and T_i -> nu."""
        acc = NuPoly.zero()
        for m, c in self._coeffs.items():
            acc = acc + c * NuPoly.monomial(m.hole_degree)
        return acc

    def star(self) -> "OElement":
        """Antiautomorphism with A(g)* = A(g^{-1}) and T_i* = T_i."""
        nz = default_normalizer()
        terms = ((c, nz.reduce(*star_state(m)).items()) for m, c in self._coeffs.items())
        return OElement._trusted(self.alpha, nz.to_monomials(combine(terms)))

    def evaluate(self, value) -> dict[Monomial, Rational]:
        """Specialize nu to an exact rational; each value in smallest form, the zeros dropped."""
        out: dict[Monomial, Rational] = {}
        for m, c in self._coeffs.items():
            v = c.evaluate(value)
            if v:
                out[m] = v
        return out


def gen_perm_element(g: Permutation) -> OElement:
    return OElement.from_monomial(Monomial(g, ()))


def gen_hole_element(i: int, alpha: int) -> OElement:
    return OElement.from_monomial(Monomial(Permutation.identity(alpha), (i,)))


def element_from_word(alpha: int, tokens: Sequence[tuple[str, object]]) -> OElement:
    nz = default_normalizer()
    return OElement._trusted(alpha, nz.to_monomials(nz.reduce(*word_to_state(alpha, tokens))))


def multiply(x: OElement, y: OElement) -> OElement:
    """Product via monomial fusion followed by normalization."""
    x._check(y)
    nz = default_normalizer()
    xs, ys = ([((m.perm.images, m.holes), c) for m, c in e.items()] for e in (x, y))
    terms = ((c1 * c2, nz.reduce(*fuse(s1, s2)).items()) for s1, c1 in xs for s2, c2 in ys)
    return OElement._trusted(x.alpha, nz.to_monomials(combine(terms)))


def format_monomial(m: Monomial) -> str:
    parts = []
    if not m.perm.is_identity():
        cycles = "".join("(" + "".join(str(x) for x in cyc) + ")" for cyc in m.perm.cycles())
        parts.append("A" + cycles)
    parts.extend(f"T{j}" for j in m.holes)
    if not parts:
        return "1"
    return " ".join(parts)


def _format_term(c: NuPoly, ms: str) -> str:
    if ms == "1":
        p = c.pretty()
        return "(" + p + ")" if " " in p else p
    if c == _ONE:
        return ms
    if c == _MINUS_ONE:
        return "-" + ms
    p = c.pretty()
    if " " in p or p.startswith("-"):
        p = "(" + p + ")"
    return p + " " + ms


def format_element(x: OElement) -> str:
    if not x:
        return "0"
    terms = [_format_term(c, format_monomial(m)) for m, c in x.sorted_items()]
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out
