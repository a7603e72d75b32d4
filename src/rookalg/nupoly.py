"""Exact univariate polynomials in the deformation parameter nu.

Coefficients are exact rationals kept in their smallest form: a plain
int when the value is integral and a Fraction only otherwise.  Structure
constants lie in Z[nu], so theirs are ints; Fractions appear where
interpolation, rational evaluation or parsed "p/q" text brings them in.
The rewriting engine makes no NuPoly while it recurses: it sums packed
ints and decodes each distinct value once (see `algebra.Normalizer`).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .rational import Rational, format_rational, parse_rational


def _smallest(c) -> Rational:
    """c as an exact rational: an int when integral, a Fraction otherwise."""
    if type(c) is int:
        return c
    f = c if type(c) is Fraction else Fraction(c)
    return f.numerator if f.denominator == 1 else f


class NuPoly:
    """Immutable polynomial in nu with exact coefficients.

    Coefficients are stored constant term first: integer coefficients in
    Z[nu] as ints, and Fractions only where a value is non-integral (after
    interpolation, evaluation at a rational nu, or parsing "p/q").  Trailing
    zeros are stripped on construction, so equal polynomials compare equal
    structurally, and since ints and Fractions of equal value are equal and
    hash alike, so do polynomials built either way.  The zero polynomial has
    degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_smallest(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "NuPoly":
        return cls()

    @classmethod
    def one(cls) -> "NuPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c: Rational) -> "NuPoly":
        return cls((c,))

    @classmethod
    def nu(cls) -> "NuPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int) -> "NuPoly":
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls((0,) * power + (1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def leading(self) -> Fraction:
        return Fraction(self.coeffs[-1]) if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, NuPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "NuPoly") -> "NuPoly":
        if not isinstance(other, NuPoly):
            return NotImplemented
        return NuPoly(map(sum, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other: "NuPoly") -> "NuPoly":
        if not isinstance(other, NuPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "NuPoly":
        return NuPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NuPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, NuPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return NuPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return NuPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def evaluate(self, x: Rational) -> Fraction:
        """Exact evaluation by Horner's rule.

        At an integer x with integer coefficients every step stays in int
        arithmetic; the value is returned as a Fraction either way.
        """
        x = _smallest(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return Fraction(acc)

    def to_strings(self) -> list[str]:
        """Coefficients as "p/q" strings, constant term first."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "NuPoly":
        return cls(tuple(parse_rational(s) for s in items))

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = _frac_str(abs(c))
            else:
                power = "nu" if k == 1 else f"nu^{k}"
                body = power if abs(c) == 1 else f"{_frac_str(abs(c))}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NuPoly({self.pretty()})"


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
