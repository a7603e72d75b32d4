"""Exact rationals as "p/q" text.

Every "p/q" the package writes goes through `format_rational`, and every
one it reads through `parse_rational`.  This module imports nothing from
the package, so the oracle uses it and still imports nothing from
`nupoly` or the rewriting code.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def format_rational(x: Rational) -> str:
    """Render a rational as "p/q" with q > 0 and gcd(p, q) = 1."""
    if type(x) is int:
        return f"{x}/1"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
