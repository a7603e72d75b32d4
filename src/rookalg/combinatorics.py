"""Permutations, partial injections (the rook monoid), and Young diagrams.

Conventions used consistently across the package:

- A permutation of degree m acts on {1, ..., m}; ``images[x - 1]`` is the
  image of x (one-line notation).
- Products compose right to left: ``(p * q)(x) == p(q(x))``.
- A partial injection of {1, ..., alpha} stores ``target[x - 1]``, the
  image of x, or ``None`` where x is undefined.  Viewed as a 0/1 matrix it
  has a unit in row x, column ``target[x - 1]``.  The serialized form
  writes 0 for None.

`Permutation` and `PartialInjection` check their input in the public
constructor, which stores each sequence as a tuple.  Each also has one
unchecked `_trusted` constructor, which sets the same field; only values
valid by construction go through it (products and inverses of
permutations, corners read off a permutation), and outside input always
goes through the checked one.

Every value class of the package (these three, `oracle.Context`,
`algebra.Monomial`, `nupoly.NuPoly`, the `sparse.SparseVector` element
classes, `tables.StructureTable` and `verify.VerificationReport`) is a
plain slotted class on `Frozen`, which defines its equality, hashing and
repr once, over the class's `_key`, and refuses every assignment, so a
value that many tables, rows or caches share cannot be changed in place.
Nothing is generated at import, so importing the package never loads the
standard library's `inspect` machinery.
"""
from __future__ import annotations

import math
from itertools import combinations, permutations as _permutations
from typing import Iterable, Iterator, Sequence

from .capacity import rook_limit
from .errors import CapacityError, ConsistencyError, ContextError


class Frozen:
    """Base of the immutable value classes: assigning or deleting an attribute raises.

    A subclass names its fields in `__slots__` and returns them in that order from `_key`;
    equality (same class only), hash and repr read `_key`.  Constructors and `__setstate__`
    store fields with `object.__setattr__`.  No subclass has an instance dict.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # (None, slots): pickle and copy pass no instance dict, as there is none
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Permutation(Frozen):
    """A permutation in one-line notation acting on {1, ..., degree}."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]) -> None:
        object.__setattr__(self, "images", tuple(images))
        self.__post_init__()

    def __post_init__(self) -> None:
        # the check, looked up by name so bench/tracing.py can count checked constructions
        images = self.images
        if any(type(y) is not int for y in images) or sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not one-line notation for a permutation: {self.images!r}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images that are a permutation by construction; no check."""
        out = object.__new__(cls)
        object.__setattr__(out, "images", images)
        return out

    def _key(self) -> tuple:
        return (self.images,)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def transposition(cls, degree: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= degree and 1 <= j <= degree and i != j):
            raise ValueError(f"transposition needs two distinct points in 1..{degree}")
        images = list(range(1, degree + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not 1 <= x <= degree:
                    raise ValueError(f"cycle entry {x} outside 1..{degree}")
                if x in seen:
                    raise ValueError(f"cycles are not disjoint at {x}")
                seen.add(x)
            for pos, x in enumerate(cycle):
                images[x - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ContextError(f"degree mismatch: {self.degree} vs {other.degree}")
        images = self.images
        return Permutation._trusted(tuple([images[y - 1] for y in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return tuple(out)


def all_permutations(degree: int) -> Iterator[Permutation]:
    """All permutations of the given degree in lexicographic order."""
    for images in _permutations(range(1, degree + 1)):
        yield Permutation(images)


def embed_pair(g: Permutation, sigma: Permutation) -> Permutation:
    """Block-diagonal embedding: g on 1..a, sigma shifted to a+1..a+n."""
    a = g.degree
    return Permutation(g.images + tuple(x + a for x in sigma.images))


class PartialInjection(Frozen):
    """A partial injection of {1, ..., alpha}, stored as its target row."""

    __slots__ = ("target",)
    target: tuple[int | None, ...]

    def __init__(self, target: Iterable[int | None]) -> None:
        object.__setattr__(self, "target", tuple(target))
        alpha = len(self.target)
        defined = [v for v in self.target if v is not None]
        if any(type(v) is not int or not 1 <= v <= alpha for v in defined):
            raise ValueError(f"target values must lie in 1..{alpha}, as ints: {self.target!r}")
        if len(set(defined)) != len(defined):
            raise ValueError(f"target values must be distinct: {self.target!r}")

    @classmethod
    def _trusted(cls, target: tuple[int | None, ...]) -> "PartialInjection":
        """Wrap a target row that is a partial injection by construction; no check."""
        out = object.__new__(cls)
        object.__setattr__(out, "target", target)
        return out

    def _key(self) -> tuple:
        return (self.target,)

    @classmethod
    def identity(cls, alpha: int) -> "PartialInjection":
        return cls(tuple(range(1, alpha + 1)))

    @classmethod
    def from_permutation(cls, p: Permutation) -> "PartialInjection":
        return cls(p.images)

    @property
    def alpha(self) -> int:
        return len(self.target)

    @property
    def rank(self) -> int:
        return sum(1 for v in self.target if v is not None)

    def __call__(self, x: int) -> int | None:
        return self.target[x - 1]

    def missing(self) -> tuple[int, ...]:
        """The targets in 1..alpha with no preimage, in increasing order."""
        return tuple(y for y in range(1, self.alpha + 1) if y not in self.target)

    def __mul__(self, other: "PartialInjection") -> "PartialInjection":
        """Composition as partial maps: (self * other)(x) = self(other(x))."""
        if not isinstance(other, PartialInjection):
            return NotImplemented
        if self.alpha != other.alpha:
            raise ContextError(f"alpha mismatch: {self.alpha} vs {other.alpha}")
        out: list[int | None] = []
        for y in other.target:
            out.append(None if y is None else self.target[y - 1])
        return PartialInjection(tuple(out))

    def inverse(self) -> "PartialInjection":
        inv: list[int | None] = [None] * self.alpha
        for x, y in enumerate(self.target, start=1):
            if y is not None:
                inv[y - 1] = x
        return PartialInjection(tuple(inv))

    def serialize(self) -> tuple[int, ...]:
        return tuple(0 if v is None else v for v in self.target)


def idempotent(alpha: int, holes: Sequence[int]) -> PartialInjection:
    """The diagonal idempotent undefined exactly on the given hole set."""
    holes = tuple(holes)
    if any(not (1 <= i <= alpha) for i in holes):
        raise ValueError(f"hole indices must lie in 1..{alpha}: {holes!r}")
    if any(a >= b for a, b in zip(holes, holes[1:])):
        raise ValueError(f"hole indices must be strictly increasing: {holes!r}")
    hole_set = set(holes)
    return PartialInjection(tuple(None if x in hole_set else x for x in range(1, alpha + 1)))


def corner_map(u: Permutation, alpha: int) -> PartialInjection:
    """The upper-left alpha-corner of a permutation, as a partial injection.

    Keeps x -> u(x) for x <= alpha whenever u(x) <= alpha; everything
    leaving the corner becomes undefined.
    """
    if not 0 <= alpha <= u.degree:
        raise ValueError(f"alpha must lie in 0..{u.degree}, got {alpha}")
    # a permutation's corner is injective with values in 1..alpha
    return PartialInjection._trusted(tuple([y if y <= alpha else None for y in u.images[:alpha]]))


def rook_sort_key(pi: PartialInjection) -> tuple:
    """Canonical order: rank descending, then target lex, undefined last."""
    a = pi.alpha
    return (a - pi.rank, tuple(a + 1 if v is None else v for v in pi.target))


def rook_enumerate(alpha: int) -> tuple[PartialInjection, ...]:
    """All partial injections of {1, ..., alpha} in canonical order."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if alpha > rook_limit():
        raise CapacityError(f"alpha={alpha} exceeds the rook enumeration limit {rook_limit()}")
    points = range(1, alpha + 1)
    out: list[PartialInjection] = []
    for k in range(alpha + 1):
        for domain in combinations(points, k):
            for images in _permutations(points, k):
                target: list[int | None] = [None] * alpha
                for x, y in zip(domain, images):
                    target[x - 1] = y
                out.append(PartialInjection(tuple(target)))
    out.sort(key=rook_sort_key)
    return tuple(out)


def rook_count(alpha: int) -> int:
    """Closed-form size of the rook monoid.

    Sums (alpha!)^2 / ((alpha-r)! r!^2) over corank r; every division is
    exact by construction.
    """
    total = 0
    fa = math.factorial(alpha)
    for r in range(alpha + 1):
        num = fa * fa
        den = math.factorial(alpha - r) * math.factorial(r) ** 2
        q, rem = divmod(num, den)
        if rem:
            raise ConsistencyError("rook count summand is not integral", {"alpha": alpha, "r": r})
        total += q
    return total


class YoungDiagram(Frozen):
    """A partition drawn as a Young diagram: weakly decreasing positive rows."""

    __slots__ = ("rows",)
    rows: tuple[int, ...]

    def __init__(self, rows: Iterable[int]) -> None:
        object.__setattr__(self, "rows", tuple(rows))
        if any(type(r) is not int or r <= 0 for r in self.rows):
            raise ValueError(f"rows must be positive ints: {self.rows!r}")
        if any(a < b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(f"rows must be weakly decreasing: {self.rows!r}")

    def _key(self) -> tuple:
        return (self.rows,)

    @property
    def size(self) -> int:
        return sum(self.rows)


def partitions(n: int) -> tuple[YoungDiagram, ...]:
    """All partitions of n, largest first part first."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return tuple(YoungDiagram(rows) for rows in gen(n, n))


def irrep_dim(diagram: YoungDiagram) -> int:
    """Dimension of the symmetric-group irreducible for this diagram.

    Hook-length formula in exact integer arithmetic; the division is
    checked to be exact.
    """
    rows = diagram.rows
    if not rows:
        return 1
    cols = [0] * rows[0]
    for row in rows:
        for j in range(row):
            cols[j] += 1
    hooks = 1
    for i, row in enumerate(rows):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    dim, rem = divmod(math.factorial(diagram.size), hooks)
    if rem:
        raise ConsistencyError("hook product does not divide the factorial", {"rows": rows})
    return dim


def fixed_space_dimensions(alpha: int) -> tuple[int, ...]:
    """Multiset of subgroup-fixed-subspace dimensions, one per block.

    Each block is labelled by a hole count t in 0..alpha together with a
    partition of alpha - t, and contributes C(alpha, t) times the
    irreducible dimension of the partition.  The sum of squares equals the
    rook-monoid size.
    """
    if alpha > rook_limit():
        raise CapacityError(f"alpha={alpha} exceeds the enumeration limit {rook_limit()}")
    out: list[int] = []
    for t in range(alpha + 1):
        for lam in partitions(alpha - t):
            out.append(math.comb(alpha, t) * irrep_dim(lam))
    return tuple(out)
