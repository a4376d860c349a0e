"""The terminating Moyal product on polynomial symbols, exact in (X, hbar).

The product is the formal series A*B = sum_j hbar^j C_j(A,B) with

    C_j = 2^-j sum_{|a|+|b|=j} (-1)^|b| / (a! b!) (D_x^b d_xi^a A)(D_x^a d_xi^b B)

where D = -i grad and a, b run over multi-indices of length d.  On
polynomials the series terminates at j = min(deg A, deg B), so the product
is exact; the calibration anchor x * xi = x xi + i hbar/2 pins the sign
stack (see conventions.py).

Series are represented by `HbarSeries`: a finite map {j: PolySymbol} of
hbar-power to coefficient symbol (coefficients carry no hbar block).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from .crational import CRational, I, ScalarLike, neg_i_power
from .polysym import PolySymbol, Shape, ShapeError, poisson_bracket, _check_same_shape


class ConventionError(AssertionError):
    """An identity that calibrates the sign conventions failed."""


class HbarSeries:
    """A finite polynomial in hbar with PolySymbol coefficients."""

    __slots__ = ("shape", "coeffs")

    def __init__(self, shape: Shape, coeffs: Mapping[int, PolySymbol] | None = None):
        if shape.has_hbar:
            raise ShapeError("series coefficients must not carry an hbar block")
        self.shape = shape
        clean: dict[int, PolySymbol] = {}
        if coeffs:
            for j, p in coeffs.items():
                if j < 0:
                    raise ValueError("negative hbar order")
                if p.shape != shape:
                    raise ShapeError("coefficient shape mismatch in series")
                if not p.is_zero:
                    clean[j] = p
        self.coeffs = clean

    @classmethod
    def zero(cls, shape: Shape) -> "HbarSeries":
        return cls(shape, {})

    @classmethod
    def of(cls, p: PolySymbol, order: int = 0) -> "HbarSeries":
        return cls(p.shape, {order: p})

    def coeff(self, j: int) -> PolySymbol:
        return self.coeffs.get(j, PolySymbol.zero(self.shape))

    def orders(self) -> list[int]:
        return sorted(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        if self.shape != other.shape:
            raise ShapeError("series shape mismatch")
        out = dict(self.coeffs)
        for j, p in other.coeffs.items():
            out[j] = out[j] + p if j in out else p
        return HbarSeries(self.shape, out)

    def __sub__(self, other: "HbarSeries") -> "HbarSeries":
        return self + other.scaled(-1)

    def __neg__(self) -> "HbarSeries":
        return self.scaled(-1)

    def scaled(self, scalar: ScalarLike) -> "HbarSeries":
        return HbarSeries(self.shape, {j: p.scaled(scalar) for j, p in self.coeffs.items()})

    def shifted(self, k: int) -> "HbarSeries":
        """Multiply by hbar^k."""
        return HbarSeries(self.shape, {j + k: p for j, p in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("HbarSeries is not hashable")

    def at_hbar(self, value: ScalarLike) -> PolySymbol:
        """Collapse to a PolySymbol at an exact numeric hbar."""
        v = CRational.coerce(value)
        out = PolySymbol.zero(self.shape)
        for j, p in self.coeffs.items():
            out = out + p.scaled(v ** j)
        return out

    def as_polysymbol(self) -> PolySymbol:
        """The same object as a single PolySymbol with an hbar block."""
        target = Shape(self.shape.d, self.shape.has_y, True)
        out = PolySymbol.zero(target)
        for j, p in self.coeffs.items():
            out = out + p.hbar_shifted(j).promoted(target)
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"hbar^{j}*[{self.coeff(j)!r}]" for j in self.orders())


def _index_pairs(d: int, j: int) -> Iterator[tuple[tuple, tuple]]:
    """All multi-index pairs (a, b), each of length d, with |a| + |b| = j."""
    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest
    for comp in compositions(j, 2 * d):
        yield comp[:d], comp[d:]


def _bidifferential_sum(A, B, d: int, j: int, acc):
    """C_j(A, B) by the index-pair sum of the module docstring, added onto `acc`.

    Serves every operand type with `partial_multi`, `is_zero`, `*`, `+` and
    `scaled`: polynomial symbols here, exponential test symbols in exppoly.
    """
    for a, b in _index_pairs(d, j):
        dA = A.partial_multi(x=b, xi=a)
        if dA.is_zero:
            continue
        dB = B.partial_multi(x=a, xi=b)
        if dB.is_zero:
            continue
        sign = -1 if sum(b) % 2 else 1
        fac = 1
        for t in a:
            fac *= factorial(t)
        for t in b:
            fac *= factorial(t)
        acc = acc + (dA * dB).scaled(Fraction(sign, fac))
    return acc.scaled(neg_i_power(j) * Fraction(1, 2 ** j))


def cj_coefficient(A: PolySymbol, B: PolySymbol, j: int) -> PolySymbol:
    """The j-th bidifferential coefficient C_j(A, B) of the product series."""
    _check_same_shape(A, B)
    if j < 0:
        raise ValueError("order must be >= 0")
    if j == 0:
        return A * B
    if j > min(A.degree(), B.degree()):
        return PolySymbol.zero(A.shape)
    return _bidifferential_sum(A, B, A.shape.d, j, PolySymbol.zero(A.shape))


def moyal_product(A: PolySymbol, B: PolySymbol) -> HbarSeries:
    """A * B as an exact finite hbar-series (terminates on polynomials)."""
    _check_same_shape(A, B)
    jmax = min(A.degree(), B.degree())
    coeffs = {}
    for j in range(max(jmax, 0) + 1):
        c = cj_coefficient(A, B, j)
        if not c.is_zero:
            coeffs[j] = c
    return HbarSeries(A.shape, coeffs)


def star(A, B) -> HbarSeries:
    """Bilinear extension of the product to HbarSeries operands."""
    SA = A if isinstance(A, HbarSeries) else HbarSeries.of(A)
    SB = B if isinstance(B, HbarSeries) else HbarSeries.of(B)
    out = HbarSeries.zero(SA.shape)
    for a, P in SA.coeffs.items():
        for b, Q in SB.coeffs.items():
            out = out + moyal_product(P, Q).shifted(a + b)
    return out


def bracket_term(A: PolySymbol, B: PolySymbol, j: int) -> PolySymbol:
    """{A,B}_j = i (C_j(A,B) - C_j(B,A)); identically zero for even j.

    Even orders are still computed and asserted to vanish, guarding the
    convention stack against sign drift.
    """
    term = (cj_coefficient(A, B, j) - cj_coefficient(B, A, j)).scaled(I)
    if j % 2 == 0:
        if not term.is_zero:
            raise ConventionError(f"even-order bracket term j={j} did not cancel")
        return PolySymbol.zero(A.shape)
    return term


def moyal_bracket(A: PolySymbol, B: PolySymbol) -> HbarSeries:
    """{A,B}_star = (i/hbar)(A*B - B*A) = sum over odd j of hbar^(j-1) {A,B}_j.

    The hbar^0 coefficient equals the Poisson bracket exactly; for real
    inputs every coefficient is real.
    """
    _check_same_shape(A, B)
    jmax = min(A.degree(), B.degree())
    coeffs = {}
    for j in range(1, max(jmax, 0) + 1, 2):
        t = bracket_term(A, B, j)
        if not t.is_zero:
            coeffs[j - 1] = t
    return HbarSeries(A.shape, coeffs)


def moyal_bracket_series(A, B) -> HbarSeries:
    """Bilinear extension of the Moyal bracket to HbarSeries operands."""
    SA = A if isinstance(A, HbarSeries) else HbarSeries.of(A)
    SB = B if isinstance(B, HbarSeries) else HbarSeries.of(B)
    out = HbarSeries.zero(SA.shape)
    for a, P in SA.coeffs.items():
        for b, Q in SB.coeffs.items():
            out = out + moyal_bracket(P, Q).shifted(a + b)
    return out


def truncated_bracket(A: PolySymbol, B: PolySymbol, m: int) -> HbarSeries:
    """The partial sum {A,B} + hbar^2 {A,B}_3 + ... + hbar^(2m) {A,B}_(2m+1)."""
    if m < 0:
        raise ValueError("truncation order must be >= 0")
    full = moyal_bracket(A, B)
    return HbarSeries(full.shape, {j: p for j, p in full.coeffs.items() if j <= 2 * m})


def bracket_discrepancy(A: PolySymbol, H: PolySymbol, m: int) -> HbarSeries:
    """{A,H}_star - {A,H}_(star,m): the tail beyond the order-m truncation."""
    if m < 0:
        raise ValueError("truncation order must be >= 0")
    full = moyal_bracket(A, H)
    return HbarSeries(full.shape, {j: p for j, p in full.coeffs.items() if j > 2 * m})


def calibration_check(d: int = 1) -> None:
    """Verify the anchor identities x * xi = x xi + i hbar/2 and {x,xi} = -1.

    Raises ConventionError on any failure; cheap enough to run at import
    time of the CLI.
    """
    shape = Shape(d)
    x = PolySymbol.var(shape, "x", 0)
    xi = PolySymbol.var(shape, "xi", 0)
    prod = moyal_product(x, xi)
    expected = HbarSeries(shape, {0: x * xi, 1: PolySymbol.const(shape, CRational(0, Fraction(1, 2)))})
    if prod != expected:
        raise ConventionError("calibration failed: x * xi != x xi + i hbar/2")
    pb = poisson_bracket(x, xi)
    if pb != PolySymbol.const(shape, -1):
        raise ConventionError("calibration failed: {x, xi} != -1")
    mb = moyal_bracket(x, xi)
    if mb != HbarSeries.of(PolySymbol.const(shape, -1)):
        raise ConventionError("calibration failed: {x, xi}_star != -1")
