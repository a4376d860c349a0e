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
order j = s_1 + ... + s_d, coefficient (-i/2)^j prod_k T_k[s_k].  A phase
factor e^{i s L_Y} (exppoly) enters the same tables through the Leibniz
terms of (d_x + i s eta)^b (d_xi - i s y)^a.

The kernel works in Python ints on the operands' numerators over their
denominators D_A, D_B; each order's output is (-i/2)^j / (D_A D_B) times
integer numerators, reduced once.  An output key is one int: exponent slot i
is the digit at bit width*i and the order j sits on top, the width being the
bit length of deg A + deg B + j_max over all blocks (the narrowest width keeps
most keys within one machine digit of a Python int).  Each term is packed
once and each table entry holds its key delta (s in the order digit), so a
row's key is key_A + key_B + the deltas.  Tables are built on first use and
live for one call.  Terms are grouped by their exponents on axes 0..d-2, so
the prefix rows are built once per pair of groups and the last axis runs
inside the accumulation: O(pairs x rows) integer multiply-adds.

Series are represented by `HbarSeries`: a finite map {j: PolySymbol} of
hbar-power to coefficient symbol (coefficients carry no hbar block).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, perm
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
        for j, p in (coeffs or {}).items():
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
        return self.as_polysymbol().at_hbar(value)

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


def _half_table(e1: int, s1: int, e2: int, s2: int, smax: int, memo: dict) -> list:
    """[[(k1, k2, coefficient)] for n = 0, 1, ...]: the Leibniz terms of n derivatives
    of t^e1 (phase sign s1) times those of t^e2 (phase sign s2)."""
    if (e1, s1, e2, s2) not in memo:
        memo[e1, s1, e2, s2] = [[(q, r, u * v) for q, u in _leibniz(n, e1, s1, memo)
                                 for r, v in _leibniz(n, e2, s2, memo)]
                                for n in range(min(smax, smax if s1 else e1, smax if s2 else e2) + 1)]
    return memo[e1, s1, e2, s2]


def _axis_table(al: int, be: int, ga: int, de: int, sa: int, sb: int, smax: int,
                memo: dict) -> list:
    """[(s, P, Q, s! T[s])] on one axis for the left monomial x^al xi^be and the
    right monomial x^ga xi^de: the order-s term is x^(al+ga-P) xi^(be+de-Q).

    With phase signs sa, sb the derivatives expand by Leibniz, each phase
    factor counted without its i (restored from the output Y degree) and
    raising y by s - Q and eta by s - P.
    """
    top = min(smax, al + be + ga + de)     # every term of the series differentiates
    # order a: d_xi^a on the left, d_x^a on the right; order b: d_x^b left, d_xi^b right
    on_a, on_b = _half_table(be, -sa, ga, sb, smax, memo), _half_table(al, sa, de, -sb, smax, memo)
    sums: dict = defaultdict(int)
    for a, terms_a in enumerate(on_a[:top + 1]):
        for b, terms_b in enumerate(on_b[:top + 1 - a]):
            w = comb(a + b, a) * (-1) ** b            # s!/(a! b!)
            for q, r, u in terms_a:
                for p, t, v in terms_b:
                    sums[a + b, p + r, q + t] += w * u * v
    return [(s, P, Q, v) for (s, P, Q), v in sums.items() if v]


def _bidifferential(A: PolySymbol, B: PolySymbol, orders, signs=(0, 0),
                    bracket: bool = False) -> dict[int, PolySymbol]:
    """{j: C_j(A, B)} for j in `orders` by the per-axis tables of the module
    docstring; with `bracket`, {j: i (C_j(A, B) - C_j(B, A))}.

    `signs` are the phase signs s of the factors e^{i s L_Y} on A and B.
    """
    orders, shape, d = set(orders), A.shape, A.shape.d
    jmax, nv, ny = max(orders, default=-1), shape.nvars, (4 if shape.has_y else 2) * d
    width = (sum(max(map(sum, p.num), default=0) for p in (A, B)) + max(jmax, 0)).bit_length()
    top, mask, fact = nv * width, (1 << width) - 1, [factorial(s) for s in range(jmax + 1)]
    # entries s! T[s] F / s! are integers: T[s] is one without phases, and F = jmax! clears the rest
    F = factorial(max(jmax, 0)) if any(signs) else 1
    memo, tables = {}, {}       # Leibniz lists, half tables and packed tables of this call only

    def grouped(p, sign):
        """(D, {exponents on axes 0..d-2: [(last-axis code, key, n, k)]}): sign * p is the sum
        of n i^(k + Y degree) X^e / D over the entries, k being 0 for a real and 1 for an
        imaginary part, less the Y degree, which the output restores as the phases' i."""
        groups: dict = defaultdict(list)
        for e, c in p.num.items():
            key = sum(x << width * i for i, x in enumerate(e))
            for part, q in enumerate(c):
                if q:
                    groups[e[:d - 1] + e[d:2 * d - 1]].append((
                        e[d - 1] << width | e[2 * d - 1], key, sign * q, part - sum(e[2 * d:ny]) & 3))
        return p.den, groups

    def table(k, ea, eb, sa, sb):
        """[(s, key delta, entry)] on axis k for the (x, xi) exponents ea (left) and eb (right)."""
        if (k, ea, eb, sa, sb) not in tables:
            sx, sxi, sy, seta = (width * (k + b * d) for b in range(4))
            has_y = shape.has_y
            tables[k, ea, eb, sa, sb] = [
                (s, (s << top) - (P << sx) - (Q << sxi)
                 + ((s - Q << sy) + (s - P << seta) if has_y else 0), v * F // fact[s])
                for s, P, Q, v in _axis_table(*ea, *eb, sa, sb, jmax, memo)]
        return tables[k, ea, eb, sa, sb]

    (DA, GA), (DB, GB) = grouped(A, 1), grouped(B, 1)
    acc = [defaultdict(int) for _ in range(4)]      # key -> numerator of i^0, i^1, i^2, i^3
    passes = [(GA, GB, signs)] + ([(grouped(B, -1)[1], GA, signs[::-1])] if bracket else [])
    for left, right, (sa, sb) in passes:
        lasts: dict = {}    # last-axis codes -> [[(key delta, entry)] taking order j into orders]
        for pa, Lt in left.items():
            for pb, Rt in right.items():
                rows = [(0, 0, 1)]          # (order, key delta, entry) over axes 0..d-2
                for k in range(d - 1):
                    t = table(k, (pa[k], pa[d - 1 + k]), (pb[k], pb[d - 1 + k]), sa, sb)
                    rows = t if k == 0 else [(j + s, dj + dk, v * u) for j, dj, v in rows
                                             for s, dk, u in t if j + s <= jmax]
                for la, ka, va, ra in Lt:
                    for lb, kb, vb, rb in Rt:
                        if (last := lasts.get(la << top | lb)) is None:
                            t = table(d - 1, (la >> width, la & mask), (lb >> width, lb & mask), sa, sb)
                            last = lasts[la << top | lb] = [
                                [(dk, u) for s, dk, u in t if j + s in orders]
                                for j in range(max(jmax, 0) + 1 if d > 1 else 1)]
                        into, c, kab = acc[ra + rb & 3], va * vb, ka + kb
                        for j, dj, v in rows:
                            key, vc = kab + dj, v * c
                            for dk, u in last[j]:
                                into[key + dk] += u * vc
    base, terms, (a0, a1, a2, a3) = F ** d * DA * DB, {j: {} for j in orders}, acc
    for key in set().union(*acc):
        j, e = key >> top, tuple(key >> width * i & mask for i in range(nv))
        c = a0.get(key, 0), a1.get(key, 0), a2.get(key, 0), a3.get(key, 0)
        # sum_k c[k] i^k times i^n: (-i)^j = i^3j, the phases' i^(Y degree), and the bracket's i
        n = 3 * j + sum(e[2 * d:ny]) + bracket
        re, im = c[-n % 4] - c[(2 - n) % 4], c[(1 - n) % 4] - c[(3 - n) % 4]
        if re or im:
            terms[j][e] = re, im
    return {j: PolySymbol._reduced(shape, base << j, t) for j, t in terms.items()}


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


def _bilinear(op, A, B) -> HbarSeries:
    """The extension of a bilinear series-valued `op` on PolySymbols to HbarSeries operands."""
    SA = A if isinstance(A, HbarSeries) else HbarSeries.of(A)
    SB = B if isinstance(B, HbarSeries) else HbarSeries.of(B)
    out = HbarSeries.zero(SA.shape)
    for a, P in SA.coeffs.items():
        for b, Q in SB.coeffs.items():
            out = out + op(P, Q).shifted(a + b)
    return out


def star(A, B) -> HbarSeries:
    """Bilinear extension of the product to HbarSeries operands."""
    return _bilinear(moyal_product, A, B)


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
    return _bilinear(moyal_bracket, A, B)


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
    x, xi = PolySymbol.var(shape, "x"), PolySymbol.var(shape, "xi")
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
