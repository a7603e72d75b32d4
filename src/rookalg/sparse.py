"""Sparse vectors over a basis: the arithmetic every element class shares.

An element is a dict from basis keys to nonzero coefficients, tied to one
context.  A subclass names what differs as class attributes: the slot that
holds its context (`_context`, "ctx" or "alpha"), its zero coefficient
(`_zero`), how a scalar becomes a coefficient (`_coerce`), how a key is
checked against the context (`_check_key`) and how its keys sort
(`_sort_key`).  The one constructor checks outside input, and each class's
`__mul__` is its own.

Linear combinations of elements are summed by `combine` alone: element
sums and products, stars, and the right-hand sides of the crosscheck.  The
rewriting steps inside `Normalizer.reduce` are not: they sum packed-integer
coefficients in the engine's own loop (see `algebra.Normalizer`).
`integral` puts rational coefficients over one common denominator, for
products that accumulate in integers.
"""
from __future__ import annotations

from math import lcm

from .errors import ContextError


def combine(terms):
    """The sum of w * v over (w, v) pairs, as a dict with the zero sums dropped.

    Each v yields (key, coefficient) items.
    """
    acc = {}
    get = acc.get
    for w, v in terms:
        for k, c in v:
            c = w * c
            prev = get(k)
            acc[k] = c if prev is None else prev + c
    return {k: c for k, c in acc.items() if c}


def integral(items):
    """(d, [(key, integer numerator)]) for Fraction items, with d the lcm of the denominators."""
    items = list(items)
    d = lcm(*(c.denominator for _, c in items))
    return d, [(k, c.numerator * (d // c.denominator)) for k, c in items]


class SparseVector:
    """Nonzero coefficients by basis key, in one context; see the module docstring."""

    __slots__ = ("_coeffs",)

    def __init__(self, context, coeffs=None):
        """Check outside input: each coefficient is coerced, zeros are dropped,
        and then each remaining key is checked against the context."""
        setattr(self, self._context, context)
        clean = {}
        for k, c in (coeffs or {}).items():
            c = self._coerce(c)
            if c:
                self._check_key(context, k)
                clean[k] = c
        self._coeffs = clean

    @classmethod
    def _trusted(cls, context, coeffs):
        """Wrap coefficients on keys this class's own arithmetic made.

        Those keys and coefficients are already valid in the context, so only
        the zeros are dropped; outside input goes through __init__, which
        checks every key.
        """
        out = object.__new__(cls)
        setattr(out, cls._context, context)
        out._coeffs = {k: c for k, c in coeffs.items() if c}
        return out

    @classmethod
    def zero(cls, context):
        return cls._trusted(context, {})

    def _own_context(self):
        return getattr(self, self._context)

    def coefficient(self, key):
        return self._coeffs.get(key, self._zero)

    def items(self):
        return self._coeffs.items()

    def sorted_items(self):
        sort_key = self._sort_key
        return sorted(self._coeffs.items(), key=lambda kv: sort_key(kv[0]))

    def _check(self, other) -> None:
        mine, theirs = self._own_context(), other._own_context()
        if mine != theirs:
            raise ContextError(f"{self._context} mismatch: {mine} vs {theirs}")

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._trusted(self._own_context(), combine(((1, self.items()), (sign, other.items()))))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def scale(self, c):
        c = self._coerce(c)
        return self._trusted(self._own_context(), {k: c * v for k, v in self._coeffs.items()})

    def __rmul__(self, other):
        # scalars commute; a product of two elements is taken by the left
        # operand's __mul__, so only scalars and foreign types get here
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._own_context() == other._own_context() and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._context}={self._own_context()}, {len(self._coeffs)} terms)"
