"""Exact complex numbers over the rationals.

The scalar type at the package's boundary: the coefficients a symbol is
built from and the values of its `terms` view (symbols themselves store
integer numerators over one denominator, see `moyal_lab.polysym`).  Both
parts are `fractions.Fraction`, so denominators stay normalized (positive,
coprime with the numerator) and equality is decidable, never a matter of
rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

ScalarLike = Union[int, Fraction, "CRational"]


class CRational:
    """re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> "CRational":
        if isinstance(value, CRational):
            return value
        return CRational(value)

    # -- ring operations --------------------------------------------------
    # (real operands, the common case, pass their zero imaginary part through)

    def __add__(self, other: ScalarLike) -> "CRational":
        o = CRational.coerce(other)
        return CRational(self.re + o.re, self.im + o.im if self.im or o.im else self.im)

    __radd__ = __add__

    def __neg__(self) -> "CRational":
        return CRational(-self.re, -self.im if self.im else self.im)

    def __mul__(self, other: ScalarLike) -> "CRational":
        o = CRational.coerce(other)
        if not (self.im or o.im):
            return CRational(self.re * o.re, self.im)
        return CRational(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "CRational":
        o = CRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero CRational")
        return CRational((self.re * o.re + self.im * o.im) / n,
                         (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, n: int) -> "CRational":
        if n < 0:
            return CRational(1) / self ** (-n)
        out, base = CRational(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CRational":
        return CRational(self.re, -self.im)

    # -- predicates, conversions -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, CRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = CRational(0)
ONE = CRational(1)
I = CRational(0, 1)


def i_power(n: int) -> CRational:
    """i**n, exactly."""
    return (ONE, I, -ONE, -I)[n % 4]


def neg_i_power(n: int) -> CRational:
    """(-i)**n, exactly."""
    return (ONE, -I, -ONE, I)[n % 4]
