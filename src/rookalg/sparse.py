"""Sparse vectors over a basis: the arithmetic every element class shares.

An element is a dict from basis keys to nonzero coefficients, tied to one
context.  A subclass names what differs as class attributes: the slot that
holds its context (`_context`, "ctx" or "alpha"), its zero coefficient
(`_zero`), how a scalar becomes a coefficient (`_coerce`) and how its keys
sort (`_sort_key`).  Its public constructor checks outside input, and its
`__mul__` is its own.
"""
from __future__ import annotations

from .errors import ContextError


class SparseVector:
    """Nonzero coefficients by basis key, in one context; see the module docstring."""

    __slots__ = ("_coeffs",)

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

    def support_size(self) -> int:
        return len(self._coeffs)

    def _check(self, other) -> None:
        mine, theirs = self._own_context(), other._own_context()
        if mine != theirs:
            raise ContextError(f"{self._context} mismatch: {mine} vs {theirs}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        acc = dict(self._coeffs)
        for k, c in other._coeffs.items():
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return self._trusted(self._own_context(), acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

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
