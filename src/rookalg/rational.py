"""Exact rationals as "p/q" text.

Every "p/q" the package writes goes through `format_rational`, and every
one it reads through `parse_rational`; every coefficient kept in smallest
form, an int when integral, goes through `smallest`.  This module imports
nothing from the package, so the oracle uses it and still imports nothing
from `nupoly` or the rewriting code.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def smallest(c, d: int = 1) -> Rational:
    """c / d as an exact rational: an int when integral, a Fraction otherwise.

    c is an int, a Fraction or any value Fraction accepts, and d a nonzero
    int.  An int c is divided in integers, so an integral quotient makes no
    Fraction.
    """
    if type(c) is int:
        if d == 1:
            return c
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    f = c if type(c) is Fraction else Fraction(c)
    if d != 1:
        f /= d
    return f.numerator if f.denominator == 1 else f


def format_rational(x: Rational) -> str:
    """Render a rational as "p/q" with q > 0 and gcd(p, q) = 1."""
    if type(x) is int:
        return f"{x}/1"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string: ASCII digits, a minus sign only in front.

    Any other text (a decimal point, an exponent, an underscore, a space, a
    plus sign) is a ValueError, and so is a zero denominator.
    """
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
