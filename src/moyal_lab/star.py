"""The terminating Moyal product on polynomial symbols, exact in (X, hbar).

The product is the formal series A*B = sum_j hbar^j C_j(A,B) with

    C_j = 2^-j sum_{|a|+|b|=j} (-1)^|b| / (a! b!) (D_x^b d_xi^a A)(D_x^a d_xi^b B)

where D = -i grad and a, b run over multi-indices of length d.  On
polynomials the series terminates at j = min(deg A, deg B), so the product
is exact; the calibration anchor x * xi = x xi + i hbar/2 pins the sign
stack (see conventions.py).

The sum factorizes over the d axes.  On one axis, the monomials
x^al xi^be (left) and x^ga xi^de (right) contribute x^(al+ga-s) xi^(be+de-s)
at order s with the integer table entry

    T[s] = sum_{a+b=s} (-1)^b C(be,a) [ga]_a C(al,b) [de]_b,   [g]_a = g(g-1)...(g-a+1),

so a monomial pair gives its whole series at once as a product of d tables:
order j = s_1 + ... + s_d, coefficient (-i/2)^j prod_k T_k[s_k].  Both
operands are first put on a common denominator, every pair is accumulated
in Python ints, and (-i/2)^j / (D_A D_B) is applied once per output term.
A phase factor e^{i s L_Y} (exppoly) enters the same tables through the
Leibniz terms of (d_x + i s eta)^b (d_xi - i s y)^a.

Series are represented by `HbarSeries`: a finite map {j: PolySymbol} of
hbar-power to coefficient symbol (coefficients carry no hbar block).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from operator import add
from typing import Mapping

from .crational import CRational, I, ScalarLike
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


def _leibniz(n: int, e: int, sign: int, memo: dict) -> list:
    """(d_t + i sign c)^n t^e = sum_k C(n,k) [e]_k (i sign c)^(n-k) t^(e-k), as
    [(k, C(n,k) [e]_k sign^(n-k))]; without a phase only k = n survives."""
    if (n, e, sign) not in memo:
        memo[n, e, sign] = [(k, comb(n, k) * perm(e, k) * sign ** (n - k))
                            for k in range(0 if sign else n, min(n, e) + 1)]
    return memo[n, e, sign]


def _axis_table(ea: tuple, eb: tuple, sa: int, sb: int, smax: int, memo: dict) -> list:
    """[(s, output exponents, s! T[s])] on one axis for exponents ea, eb: (x, xi[, y, eta]).

    With phase signs sa, sb the derivatives expand by Leibniz, each phase
    factor counted without its i (restored from the output Y degree).
    """
    al, be, ga, de = ea[0], ea[1], eb[0], eb[1]
    top = min(smax, al + be + ga + de)     # every term of the series differentiates
    # order a: d_xi^a on the left, d_x^a on the right; order b: d_x^b left, d_xi^b right
    on_a = [[(q, r, u * v) for q, u in _leibniz(a, be, -sa, memo) for r, v in _leibniz(a, ga, sb, memo)]
            for a in range(min(top, top if sa else be, top if sb else ga) + 1)]
    on_b = [[(p, t, u * v) for p, u in _leibniz(b, al, sa, memo) for t, v in _leibniz(b, de, -sb, memo)]
            for b in range(min(top, top if sa else al, top if sb else de) + 1)]
    sums: dict = defaultdict(int)
    for a, terms_a in enumerate(on_a):
        for b in range(min(len(on_b), top - a + 1)):
            w = comb(a + b, a) * (-1) ** b            # s!/(a! b!)
            for q, r, u in terms_a:
                for p, t, v in on_b[b]:
                    sums[a + b, p + r, q + t] += w * u * v
    table = []
    for (s, P, Q), v in sums.items():
        out = (al + ga - P, be + de - Q)
        if len(ea) == 4:                   # each phase factor raises the Y degree by one
            out += (ea[2] + eb[2] + s - Q, ea[3] + eb[3] + s - P)
        if v:
            table.append((s, out, v))
    return table


def _on_common_denominator(p: PolySymbol, w: int) -> tuple[int, list]:
    """(D, [(per-axis exponents, hbar exponent, re, im)]) with p = sum (re + i im) X^e / D,
    each (re, im) times i^-(Y degree) so that the phases' powers of i can be restored."""
    d = p.shape.d
    D = lcm(*(q.denominator for c in p.terms.values() for q in (c.re, c.im)))
    out = []
    for e, c in p.terms.items():
        re, im = c.re.numerator * (D // c.re.denominator), c.im.numerator * (D // c.im.denominator)
        for _ in range(sum(e[2 * d:w * d]) % 4):
            re, im = im, -re
        out.append((tuple(tuple(e[k + b * d] for b in range(w)) for k in range(d)),
                    e[w * d:], re, im))
    return D, out


def _bidifferential(A: PolySymbol, B: PolySymbol, orders, signs=(0, 0),
                    bracket: bool = False) -> dict[int, PolySymbol]:
    """{j: C_j(A, B)} for j in `orders` by the per-axis tables of the module
    docstring; with `bracket`, {j: i (C_j(A, B) - C_j(B, A))}.

    `signs` are the phase signs s of the factors e^{i s L_Y} on A and B.
    """
    orders, shape, d = set(orders), A.shape, A.shape.d
    w, jmax = (4 if shape.has_y else 2), max(orders, default=-1)
    DA, At = _on_common_denominator(A, w)
    DB, Bt = _on_common_denominator(B, w)
    passes = [(At, Bt, signs, 1)] + ([(Bt, At, signs[::-1], -1)] if bracket else [])
    keys = {(ea, eb, sa, sb) for Lt, Rt, (sa, sb), _ in passes for k in range(d)
            for ea in {t[0][k] for t in Lt} for eb in {t[0][k] for t in Rt}}
    memo: dict = {}         # Leibniz lists, shared by this call's tables and no other call
    tables = {key: _axis_table(*key, jmax, memo) for key in keys}
    fact = [factorial(s) for s in range(jmax + 1)]
    # entries are s! T[s]; T[s] is an integer without phases, and L clears what phases leave
    L = lcm(*(fact[s] // gcd(v, fact[s]) for table in tables.values() for s, _, v in table))
    tables = {key: [(s, out, v * L // fact[s]) for s, out, v in t] for key, t in tables.items()}
    acc: dict = defaultdict(lambda: [0, 0])  # (j, hbar exponent + axis exponents) -> [re, im]
    for Lt, Rt, (sa, sb), sign in passes:
        for axA, tailA, ar, ai in Lt:
            for axB, tailB, br, bi in Rt:
                cr, ci = sign * (ar * br - ai * bi), sign * (ar * bi + ai * br)
                rows = [(0, tuple(map(add, tailA, tailB)), 1)]
                for k in range(d):
                    rows = [(j + s, key + out, v * u) for j, key, v in rows
                            for s, out, u in tables[axA[k], axB[k], sa, sb] if j + s <= jmax]
                for j, key, v in rows:
                    if j in orders:
                        c = acc[j, key]
                        c[0] += v * cr
                        c[1] += v * ci
    nt, base = (1 if shape.has_hbar else 0), L ** d * DA * DB
    terms: dict = {j: {} for j in orders}
    for (j, key), (re, im) in acc.items():
        axes = key[nt:]
        e = tuple(axes[k * w + b] for b in range(w) for k in range(d)) + key[:nt]
        # times (-i)^j = i^3j, the phases' i^(Y degree), and the bracket's i
        for _ in range((3 * j + sum(e[2 * d:w * d]) + bracket) % 4):
            re, im = -im, re
        terms[j][e] = CRational(Fraction(re, base << j), Fraction(im, base << j))
    return {j: PolySymbol(shape, t) for j, t in terms.items()}


def cj_coefficient(A: PolySymbol, B: PolySymbol, j: int) -> PolySymbol:
    """The j-th bidifferential coefficient C_j(A, B) of the product series."""
    _check_same_shape(A, B)
    if j < 0:
        raise ValueError("order must be >= 0")
    if j > min(A.degree(), B.degree()):
        return PolySymbol.zero(A.shape)
    return _bidifferential(A, B, (j,))[j]


def moyal_product(A: PolySymbol, B: PolySymbol) -> HbarSeries:
    """A * B as an exact finite hbar-series (terminates on polynomials)."""
    _check_same_shape(A, B)
    return HbarSeries(A.shape, _bidifferential(A, B, range(min(A.degree(), B.degree()) + 1)))


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

    C_j(A,B) - C_j(B,A) is accumulated at every order; the even orders must
    cancel, guarding the convention stack against sign drift.  The hbar^0
    coefficient equals the Poisson bracket exactly; for real inputs every
    coefficient is real.
    """
    _check_same_shape(A, B)
    terms = _bidifferential(A, B, range(1, min(A.degree(), B.degree()) + 1), bracket=True)
    for j, p in terms.items():
        if j % 2 == 0 and not p.is_zero:
            raise ConventionError(f"even-order bracket term j={j} did not cancel")
    return HbarSeries(A.shape, {j - 1: p for j, p in terms.items() if j % 2})


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
