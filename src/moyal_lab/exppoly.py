"""Exponential test symbols P(X,Y,hbar) * exp(i s L_Y(X)) and their products.

The family T_Y = exp(-i L_Y) (phase sign s = -1, unit prefactor) is the
test family on which bracket equalities are decided: every derivative of
the phase only multiplies the prefactor by +/- i times a linear monomial
in Y, so the class is closed under differentiation, and the bidifferential
product coefficients against a polynomial terminate.

Star products with a *pure* exponential factor collapse to a closed form
(conventions.py, collapse_left/right):

    F * e^{i s L_Y} = F(X + s hbar Y/2) e^{i s L_Y}
    e^{i s L_Y} * F = e^{i s L_Y} F(X - s hbar Y/2)

The shift sign is not copied from anywhere: it is fixed by agreement with
the terminating series on polynomial x exponential products, and the
regression tests re-derive it through order hbar^3.
"""

from __future__ import annotations

from fractions import Fraction

from .crational import I, ScalarLike
from .polysym import PolySymbol, Shape, ShapeError
from .star import _bidifferential


class ExpPolySymbol:
    """prefactor(X, Y, hbar) * exp(i s L_Y(X)) with s in {-1, 0, +1}."""

    __slots__ = ("prefactor", "sign")

    def __init__(self, prefactor: PolySymbol, sign: int):
        if sign not in (-1, 0, 1):
            raise ValueError("phase sign must be -1, 0 or +1")
        full = Shape(prefactor.shape.d, True, True)
        self.prefactor = prefactor.promoted(full)
        self.sign = sign if not self.prefactor.is_zero else 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def test_symbol(cls, d: int) -> "ExpPolySymbol":
        """T_Y = exp(-i L_Y), the exponential test observable."""
        return cls(PolySymbol.const(Shape(d, True, True), 1), -1)

    @classmethod
    def from_poly(cls, p: PolySymbol) -> "ExpPolySymbol":
        return cls(p, 0)

    @property
    def d(self) -> int:
        return self.prefactor.shape.d

    @property
    def is_zero(self) -> bool:
        return self.prefactor.is_zero

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "ExpPolySymbol") -> "ExpPolySymbol":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.sign != other.sign:
            raise ValueError("cannot add exponential symbols with different phase signs")
        return ExpPolySymbol(self.prefactor + other.prefactor, self.sign)

    def __sub__(self, other: "ExpPolySymbol") -> "ExpPolySymbol":
        return self + other.scaled(-1)

    def scaled(self, scalar: ScalarLike) -> "ExpPolySymbol":
        return ExpPolySymbol(self.prefactor.scaled(scalar), self.sign)

    def __mul__(self, other) -> "ExpPolySymbol":
        """Pointwise product; phase signs add and must stay within {-1,0,1}."""
        s = self.sign + other.sign
        if s not in (-1, 0, 1):
            raise ValueError("product would leave the phase-sign range {-1,0,+1}")
        return ExpPolySymbol(self.prefactor * other.prefactor, s)

    def conjugated(self) -> "ExpPolySymbol":
        return ExpPolySymbol(self.prefactor.conjugate(), -self.sign)

    def as_poly(self) -> PolySymbol:
        if self.sign != 0:
            raise ValueError("symbol still carries a phase factor")
        return self.prefactor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPolySymbol):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.sign == other.sign and self.prefactor == other.prefactor

    def __repr__(self) -> str:
        if self.sign == 0:
            return repr(self.prefactor)
        tag = {1: "exp(+iL_Y)", -1: "exp(-iL_Y)"}[self.sign]
        return f"[{self.prefactor!r}] * {tag}"

    # -- calculus -----------------------------------------------------------------

    def partial(self, block: str, axis: int = 0) -> "ExpPolySymbol":
        """Exact partial derivative in an X variable (or any prefactor variable).

        d_x_k e^{isL_Y} = i s eta_k e^{isL_Y} and
        d_xi_k e^{isL_Y} = -i s y_k e^{isL_Y}.
        """
        p = self.prefactor.partial(block, axis)
        if self.sign and block in ("x", "xi"):
            full = self.prefactor.shape
            if block == "x":
                phase = PolySymbol.var(full, "eta", axis).scaled(I * self.sign)
            else:
                phase = PolySymbol.var(full, "y", axis).scaled(-I * self.sign)
            p = p + self.prefactor * phase
        return ExpPolySymbol(p, self.sign)


def cj_exp(A: "ExpPolySymbol | PolySymbol", B: "ExpPolySymbol | PolySymbol",
           j: int) -> ExpPolySymbol:
    """C_j(A, B) where at most one factor carries a nonvanishing phase, or
    the two phases cancel (signs summing to zero).

    Like-sign exponential pairs are rejected: their series does not
    terminate and the closed collapse form must be used instead.
    """
    if isinstance(A, PolySymbol):
        A = ExpPolySymbol.from_poly(A)
    if isinstance(B, PolySymbol):
        B = ExpPolySymbol.from_poly(B)
    if A.d != B.d:
        raise ShapeError("dimension mismatch")
    if A.sign and B.sign and A.sign + B.sign != 0:
        raise ValueError("like-sign exponential pair: series does not terminate, "
                         "use the pure-exponential collapse")
    if j < 0:
        raise ValueError("order must be >= 0")
    return ExpPolySymbol(_bidifferential(A.prefactor, B.prefactor, (j,), (A.sign, B.sign))[j],
                         A.sign + B.sign)


def pure_exp_collapse(F: ExpPolySymbol, side: str, pure_sign: int) -> ExpPolySymbol:
    """Star product of F with the pure exponential e^{i s' L_Y}.

    side='right' computes F * e^{i s' L_Y}; side='left' computes
    e^{i s' L_Y} * F.  The collapse is exact:

        F * e^{i s' L_Y} = F(X + s' hbar Y/2) e^{i s' L_Y}
        e^{i s' L_Y} * F = e^{i s' L_Y} F(X - s' hbar Y/2)

    and phase signs add (a same-Y pure pair carries no extra scalar phase
    because sigma(Y, Y) = 0).
    """
    if pure_sign not in (-1, 1):
        raise ValueError("the pure factor must have phase sign -1 or +1")
    if F.sign + pure_sign not in (-1, 0, 1):
        raise ValueError("collapse would leave the phase-sign range {-1,0,+1}")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    coeff = Fraction(pure_sign if side == "right" else -pure_sign, 2)
    # the phase is invariant under shifts along Y, since L_Y(Y) = sigma(Y, Y) = 0
    full = F.prefactor.shape
    shifts = [PolySymbol.var(full, block, k).scaled(coeff).hbar_shifted(1)
              for block in ("y", "eta") for k in range(full.d)]
    return ExpPolySymbol(F.prefactor.translated(shifts), F.sign + pure_sign)


def star_with_pure(A: ExpPolySymbol, B: ExpPolySymbol) -> ExpPolySymbol:
    """A * B when at least one factor is a pure exponential (unit prefactor)."""
    one_b = B.sign and B.prefactor == PolySymbol.const(B.prefactor.shape, 1)
    if one_b:
        return pure_exp_collapse(A, "right", B.sign)
    one_a = A.sign and A.prefactor == PolySymbol.const(A.prefactor.shape, 1)
    if one_a:
        return pure_exp_collapse(B, "left", A.sign)
    raise ValueError("neither factor is a pure exponential with unit prefactor")
