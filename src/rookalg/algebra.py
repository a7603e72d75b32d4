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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .combinatorics import PartialInjection, Permutation, rook_enumerate
from .errors import ConsistencyError, ContextError
from .nupoly import NuPoly
from .sparse import SparseVector, combine

_ONE = NuPoly.one()
_MINUS_ONE = -_ONE
_NU = NuPoly.nu()
_NU_MINUS_ONE = _NU - _ONE


@dataclass(frozen=True)
class Monomial:
    """Admissible normal-form monomial A(perm) T_{holes}."""

    perm: Permutation
    holes: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = self.perm.degree
        for j in self.holes:
            if not 1 <= j <= alpha:
                raise ValueError(f"hole index {j} outside 1..{alpha}")
        if any(a >= b for a, b in zip(self.holes, self.holes[1:])):
            raise ValueError(f"hole indices must be strictly increasing: {self.holes}")
        images = tuple(self.perm(j) for j in self.holes)
        if any(a >= b for a, b in zip(images, images[1:])):
            raise ValueError(f"hole images must be strictly increasing: {self.holes} -> {images}")
        # a dict key on every rewriting step; hashed once, as the dataclass would
        object.__setattr__(self, "_hash", hash((self.perm, self.holes)))

    def __hash__(self) -> int:
        return self._hash

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
        alpha = sigma.alpha
        holes = tuple(x for x in range(1, alpha + 1) if sigma(x) is None)
        hit = sigma.image_set()
        missing = [y for y in range(1, alpha + 1) if y not in hit]
        fill = dict(zip(holes, missing))
        images = tuple(fill[x] if x in fill else sigma(x) for x in range(1, alpha + 1))
        return cls(Permutation(images), holes)  # type: ignore[arg-type]


def monomial_sort_key(m: Monomial) -> tuple:
    return (len(m.holes), m.holes, m.perm.images)


def basis_enumerate(alpha: int) -> tuple[Monomial, ...]:
    """All admissible monomials, sorted by (hole count, holes, permutation)."""
    out = [Monomial.from_rook(s) for s in rook_enumerate(alpha)]
    out.sort(key=monomial_sort_key)
    return tuple(out)


def _measure(g: Permutation, js: tuple[int, ...]) -> tuple[int, int, int]:
    """Strictly decreasing along every rewrite: (length, weak inversions, image inversions)."""
    m = len(js)
    weak = sum(1 for s in range(m) for t in range(s + 1, m) if js[s] >= js[t])
    if weak:
        return (m, weak, m * m)
    images = tuple(g(j) for j in js)
    img_inv = sum(1 for s in range(m) for t in range(s + 1, m) if images[s] > images[t])
    return (m, 0, img_inv)


def fuse(p: Monomial, q: Monomial) -> tuple[Permutation, tuple[int, ...]]:
    """The state A(g) T_{js} equal to the word p q, before normalization.

    A(g) T_I A(h) T_J = A(gh) T_{h^{-1}(I)} T_J, since each T_i slides
    through A(h) by T_i A(h) = A(h) T_{h^{-1}(i)}.
    """
    # h^{-1}(i) is the position of i in h's one-line images
    images = q.perm.images
    return p.perm * q.perm, tuple([images.index(i) + 1 for i in p.holes]) + q.holes


def star_state(m: Monomial) -> tuple[Permutation, tuple[int, ...]]:
    """The state equal to m* = T_{j_k} ... T_{j_1} A(g^{-1}), before normalization."""
    return m.perm.inverse(), tuple(m.perm(i) for i in reversed(m.holes))


def word_to_state(alpha: int, tokens: Sequence[tuple[str, object]]) -> tuple[Permutation, tuple[int, ...]]:
    """Collect all permutation letters on the left.

    Tokens are ("perm", Permutation) or ("hole", index).  Sliding a hole
    letter through A(h) from the left turns its index into h^{-1}(index),
    so a right-to-left sweep with the running right-hand product does it.
    """
    h = Permutation.identity(alpha)
    js_rev: list[int] = []
    for kind, payload in reversed(list(tokens)):
        if kind == "perm":
            g = payload
            if not isinstance(g, Permutation) or g.degree != alpha:
                raise ContextError(f"permutation token of wrong degree in alpha={alpha} word")
            h = g * h
        elif kind == "hole":
            i = int(payload)  # type: ignore[call-overload]
            if not 1 <= i <= alpha:
                raise ValueError(f"hole index {i} outside 1..{alpha}")
            js_rev.append(h.inverse()(i))
        else:
            raise ValueError(f"unknown token kind {kind!r}")
    return h, tuple(reversed(js_rev))


def _sites(g: Permutation, js: tuple[int, ...]) -> list[tuple[str, int]]:
    """Every (rule, t) that may fire on A(g) T_{js}, in the order reduce tries them.

    Square and swap sites come first, left to right.  Erase sites are listed
    only when there is none: `_emit`'s erase rule assumes the other holes
    avoid u and v, which holds once js strictly increases.  An empty list
    means the state is admissible.
    """
    pairs = range(len(js) - 1)
    sites = [("square" if js[t] == js[t + 1] else "swap", t) for t in pairs if js[t] >= js[t + 1]]
    return sites or [("erase", t) for t in pairs if g(js[t]) > g(js[t + 1])]


class Normalizer:
    """Rewrites states A(g) T_{js} to admissible normal form, with memoization.

    The first site `_sites` lists fires.  The tests check that every other
    listed site gives the same normal form (see the module docstring).

    Beside the memo `_cache` sits the intern table `_polys`, which maps each
    coefficient value to the one NuPoly object that every normal form in the
    memo uses for it: the memo of the alpha=4 table build holds 238,114
    coefficients of only 377 distinct values.  `clear` empties both.
    """

    def __init__(self):
        self._cache: dict[tuple[Permutation, tuple[int, ...]], dict[Monomial, NuPoly]] = {}
        self._polys: dict[NuPoly, NuPoly] = {}
        self.stats = {"square": 0, "swap": 0, "erase": 0, "states": 0, "cache_hits": 0}

    def clear(self) -> None:
        """Empty the memo and the intern table; no result changes."""
        self._cache.clear()
        self._polys.clear()

    def reduce(self, g: Permutation, js: tuple[int, ...]) -> dict[Monomial, NuPoly]:
        """Normal form of the single state A(g) T_{js}, as monomial -> coefficient."""
        key = (g, js)
        hit = self._cache.get(key)
        if hit is not None:
            self.stats["cache_hits"] += 1
            return hit
        self.stats["states"] += 1
        intern = self._polys.setdefault
        sites = _sites(g, js)
        if not sites:
            out = {Monomial(g, js): intern(_ONE, _ONE)}
        else:
            rule, t = sites[0]
            self.stats[rule] += 1
            parent = None
            terms = []
            for w, g2, js2 in _emit(rule, t, g, js):
                # a shorter child decreases the measure by its length alone
                if len(js2) >= len(js):
                    if parent is None:
                        parent = _measure(g, js)
                    child = _measure(g2, js2)
                    if not child < parent:
                        raise ConsistencyError(
                            "termination measure failed to decrease",
                            {"rule": rule, "g": list(g.images), "parent": parent, "child": child, "js": js},
                        )
                terms.append((w, self.reduce(g2, js2).items()))
            out = {m: intern(c, c) for m, c in combine(terms).items()}
        self._cache[key] = out
        return out


def _emit(rule: str, t: int, g: Permutation, js: tuple[int, ...]):
    """Replacement terms (weight, g, js) for one rule application at site t.

    The unit weights are plain 1 and -1, which `combine` applies as signs.
    """
    if rule == "square":
        one_copy = js[: t + 1] + js[t + 2 :]
        no_copy = js[:t] + js[t + 2 :]
        return ((_NU_MINUS_ONE, g, one_copy), (_NU, g, no_copy))
    u, v = js[t], js[t + 1]
    tau = Permutation.transposition(g.degree, u, v)
    g2 = g * tau
    tail = js[t + 2 :]
    if rule == "swap":
        # u > v here; prefix indices slide through A((uv))
        mapped = tuple(tau(p) for p in js[:t])
        return (
            (1, g, js[:t] + (v, u) + tail),
            (1, g2, mapped + (u,) + tail),
            (-1, g2, mapped + (v,) + tail),
        )
    if rule == "erase":
        # u < v but g(u) > g(v); prefix and tail avoid u, v, so they pass through untouched
        shorter = js[: t + 1] + js[t + 2 :]
        return ((1, g2, js), (1, g2, shorter), (-1, g, shorter))
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

    def trace(self) -> NuPoly:
        """Coefficient of the identity monomial."""
        return self.coefficient(Monomial.one(self.alpha))

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
        return OElement._trusted(self.alpha, combine(terms))

    def evaluate(self, value) -> dict[Monomial, Fraction]:
        """Specialize nu to an exact rational; zero coefficients are dropped."""
        out: dict[Monomial, Fraction] = {}
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
    return OElement._trusted(alpha, default_normalizer().reduce(*word_to_state(alpha, tokens)))


def multiply(x: OElement, y: OElement) -> OElement:
    """Product via monomial fusion followed by normalization."""
    x._check(y)
    nz = default_normalizer()
    terms = ((c1 * c2, nz.reduce(*fuse(m1, m2)).items()) for m1, c1 in x.items() for m2, c2 in y.items())
    return OElement._trusted(x.alpha, combine(terms))


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
