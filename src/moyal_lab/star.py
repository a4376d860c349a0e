"""The terminating Moyal product on polynomial symbols, exact in (X, hbar).

The product is the formal series A*B = sum_j hbar^j C_j(A,B) with

    C_j = 2^-j sum_{|a|+|b|=j} (-1)^|b| / (a! b!) (D_x^b d_xi^a A)(D_x^a d_xi^b B)

where D = -i grad and a, b run over multi-indices of length d.  On
polynomials the series terminates at j = min(deg A, deg B), so the product
is exact; the calibration anchor x * xi = x xi + i hbar/2 pins the sign
stack (see conventions.py).

The sum factorizes over the d axes.  On one axis the order-s operator is
P^s / s! with P = d_xi^L d_x^R - d_x^L d_xi^R (L, R: the left and right
factor), and the monomials x^al xi^be (left) and x^ga xi^de (right)
contribute x^(al+ga-s) xi^(be+de-s) at order s with the integer entry

    T[s] = sum_{a+b=s} R1[a] R2[b],   R1[a] = C(be,a) [ga]_a,   R2[b] = (-1)^b C(al,b) [de]_b,

[g]_a = g(g-1)...(g-a+1), so a monomial pair gives its whole series at once
as a product of d tables: order j = s_1 + ... + s_d, coefficient
(-i/2)^j prod_k T_k[s_k].

A phase factor e^{i s L_Y} (exppoly) turns the d_x of its factor into
d_x + i s eta and its d_xi into d_xi - i s y.  Counting each phase factor
without its i (restored from the output Y degree), the order-s operator is
O^s / s! with O = P + D_L + D_R, D_L = s_B (y d_x + eta d_xi) on the left
factor and D_R = -s_A (y d_x + eta d_xi) on the right one (the y eta terms
cancel).  The three commute, so O^s / s! is the sum over q + l + r = s of
(P^q / q!)(D_L^l / l!)(D_R^r / r!): each monomial is shifted by D^l / l!,
which has binomial coefficients, and the shifted pair contributes T[q].
Every table entry is an integer.

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
inside the accumulation.

Without phases the last axis's series is packed into one int,
L = sum_s T[s] 2^(W s) = R1(2^W) R2(2^W), a product of two packed rows
(Kronecker substitution on the order axis alone), so each term pair and
prefix row costs one integer multiply-add, into[key] += v c L, whatever the
number of orders.  Each accumulated int is unpacked once into signed W-bit
digits: digit s of the sum at a key of order j is the order-(j + s) term at
that key lowered by s in x_(d-1) and xi_(d-1).  The digits are exact while
every digit sum stays below 2^(W-1) in absolute value.  On one axis
sum_s |T[s]| <= sum_a C(be,a) ga^a sum_b C(al,b) de^b = (1+ga)^be (1+de)^al,
and equally (1+be)^ga (1+al)^de as C(be,a) [ga]_a = C(ga,a) [be]_a; over the
axes the product is at most M = min((1 + deg B)^deg A, (1 + deg A)^deg B),
degrees in X.  A digit sums n_A n_B v T[s] over term pairs and rows, so it
is at most |A| |B| M in absolute value, |A| being the sum of the |numerators|
of A; the bracket's second pass can double that and the sign takes a bit:
W = bit_length(|A| |B| M) + bracket + 1.  A narrower W would corrupt exact
results silently, so W is not a tuning knob.  One pair's series alone is at
most M, so the tables take T from R1 R2 in digits of bit_length(M) + 1 bits.
Every call without phases is packed, whatever its W; with numerators of
thousands of bits one multiply by a series of W-bit digits costs more than
one per order, but no benchmark workload measures where.  With phases the last axis keeps one multiply-add per table entry, as the
test family's tables hold one order per (eta, y) exponent class and packing
them gains nothing.

Series are represented by `HbarSeries`: a finite map {j: PolySymbol} of
hbar-power to coefficient symbol (coefficients carry no hbar block).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import islice
from math import comb, perm
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


def _row(e: int, f: int, sign: int, jmax: int) -> list:
    """[sign^a C(e, a) [f]_a for a = 0..min(e, f, jmax)]: R1 (sign 1) or R2 (sign -1)."""
    return [sign ** a * comb(e, a) * perm(f, a) for a in range(min(e, f, jmax) + 1)]


def _digits(v: int, W: int):
    """The digits t_0, t_1, ... of v = sum_s t_s 2^(W s), each -2^(W-1) <= t_s < 2^(W-1)."""
    half, mask = 1 << W - 1, (1 << W) - 1
    while v:
        yield (v + half & mask) - half
        v = v + half >> W


def _shifts(x: int, xi: int, sign: int, jmax: int, memo: dict) -> list:
    """[(l, i, x - i, xi - l + i, c)]: (sign (y d_x + eta d_xi))^l / l! x^x xi^xi is the sum of
    c y^i eta^(l - i) x^(x - i) xi^(xi - l + i) over the entries; l = 0 only without a phase."""
    if (x, xi, sign) not in memo:
        memo[x, xi, sign] = [(l, i, x - i, xi - l + i, sign ** l * comb(x, i) * comb(xi, l - i))
                             for l in range(min(x + xi, jmax) + 1 if sign else 1)
                             for i in range(max(0, l - xi), min(l, x) + 1)]
    return memo[x, xi, sign]


def _axis_entries(al: int, be: int, ga: int, de: int, sa: int, sb: int, jmax: int,
                  memo: dict, series) -> list:
    """[(s, eta exponent, y exponent, entry)]: the terms of O^s / s! on one axis for the left
    monomial x^al xi^be (phase sign sa) and the right monomial x^ga xi^de (phase sign sb);
    series(al, be, ga, de) is [T[0], T[1], ...] up to order jmax."""
    if (al, be, ga, de, sa, sb) not in memo:
        out, right = [], _shifts(ga, de, -sa, jmax, memo)             # D_R^r / r!
        for l, i, al2, be2, cl in _shifts(al, be, sb, jmax, memo):    # D_L^l / l!
            for r, h, ga2, de2, cr in right:
                if l + r > jmax:
                    break
                # then P^q / q!: T[q] of the shifted monomials, 1 unless a derivative can act
                t = series(al2, be2, ga2, de2) if be2 and ga2 or al2 and de2 else (1,)
                c, m, n = cl * cr, l - i + r - h, i + h
                out += [(s, m, n, c * u) for s, u in enumerate(t[:jmax + 1 - l - r], l + r) if u]
        memo[al, be, ga, de, sa, sb] = out
    return memo[al, be, ga, de, sa, sb]


def _bidifferential(A: PolySymbol, B: PolySymbol, orders, signs=(0, 0),
                    bracket: bool = False) -> dict[int, PolySymbol]:
    """{j: C_j(A, B)} for j in `orders` by the per-axis tables of the module
    docstring; with `bracket`, {j: i (C_j(A, B) - C_j(B, A))}.

    `signs` are the phase signs s of the factors e^{i s L_Y} on A and B.
    """
    orders, shape, d = set(orders), A.shape, A.shape.d
    if not orders:
        return {}
    jmax, nv, ny = max(orders), shape.nvars, (4 if shape.has_y else 2) * d
    width = (sum(max(map(sum, p.num), default=0) for p in (A, B)) + jmax).bit_length()
    top, mask = nv * width, (1 << width) - 1
    # series are packed in signed digits, of Wt bits for one pair's T and of W bits for the sums
    # of the accumulation, both from the bounds of the module docstring
    deg = [max((sum(e[:2 * d]) for e in p.num), default=0) for p in (A, B)]
    size = [sum(abs(q) for c in p.num.values() for q in c) for p in (A, B)]
    M = min((1 + deg[1]) ** deg[0], (1 + deg[0]) ** deg[1])
    Wt, W = M.bit_length() + 1, (size[0] * size[1] * M).bit_length() + bracket + 1
    packing = not any(signs)
    memo, tables, ints = {}, {}, {}     # shifts, entries, tables and packed rows of this call only

    def packed(e, f, sign, w):
        """R1 (sign 1) or R2 (sign -1) of (e, f) in w-bit digits, at 2^(w a) for a = 0, 1, ..."""
        if (e, f, sign, w) not in ints:
            ints[e, f, sign, w] = sum(u << w * a for a, u in enumerate(_row(e, f, sign, jmax)))
        return ints[e, f, sign, w]

    def series(al, be, ga, de):
        """[T[0], T[1], ...] up to order jmax: the digits of R1 R2."""
        return list(islice(_digits(packed(be, ga, 1, Wt) * packed(al, de, -1, Wt), Wt), jmax + 1))

    def grouped(p, sign):
        """(D, {exponents on axes 0..d-2: [(x, xi exponent on axis d-1, key, n, k)]}): sign * p
        is the sum of n i^(k + Y degree) X^e / D over the entries, k being 0 for a real and 1
        for an imaginary part, less the Y degree, which the output restores as the phases' i."""
        groups: dict = defaultdict(list)
        for e, c in p.num.items():
            key = sum(x << width * i for i, x in enumerate(e))
            for part, q in enumerate(c):
                if q:
                    groups[e[:d - 1] + e[d:2 * d - 1]].append((
                        e[d - 1], e[2 * d - 1], key, sign * q, part - sum(e[2 * d:ny]) & 3))
        return p.den, groups

    def table(k, al, be, ga, de, sa, sb):
        """[(s, key delta, entry)] on axis k for x^al xi^be (left) and x^ga xi^de (right)."""
        sx, sxi, sy, seta = (width * (k + b * d) for b in range(4))
        step, on_x = (1 << top) - (1 << sx) - (1 << sxi), (1 << sx) + (1 << seta)
        on_xi = (1 << sxi) + (1 << sy)
        t = tables[k, al, be, ga, de, sa, sb] = [
            (s, s * step + m * on_x + n * on_xi, v)
            for s, m, n, v in _axis_entries(al, be, ga, de, sa, sb, jmax, memo, series)
        ] if sa or sb else [(s, s * step, v) for s, v in enumerate(series(al, be, ga, de)) if v]
        return t

    (DA, GA), (DB, GB) = grouped(A, 1), grouped(B, 1)
    acc = [defaultdict(int) for _ in range(4)]      # key -> numerator of i^0, i^1, i^2, i^3
    passes = [(GA, GB, signs)] + ([(grouped(B, -1)[1], GA, signs[::-1])] if bracket else [])
    for left, right, (sa, sb) in passes:
        lasts: dict = {}    # last-axis exponents -> [[(key delta, entry)] for prefix order j]
        if packing:         # left terms carry their rows R1[xi exponent] and R2[x exponent]
            ends = [t for Rt in right.values() for t in Rt]
            gx, gxi = (max((t[i] for t in ends), default=0) + 1 for i in (0, 1))
            als, bes = ({t[i] for Lt in left.values() for t in Lt} for i in (0, 1))
            R1 = {be: [packed(be, ga, 1, W) for ga in range(gx)] for be in bes}
            R2 = {al: [packed(al, de, -1, W) for de in range(gxi)] for al in als}
            left = {pa: [(R1[be], R2[al], ka, va, ra) for al, be, ka, va, ra in Lt]
                    for pa, Lt in left.items()}
        for pa, Lt in left.items():
            for pb, Rt in right.items():
                rows = [(0, 0, 1)]          # (order, key delta, entry) over axes 0..d-2
                for k in range(d - 1):
                    e = k, pa[k], pa[d - 1 + k], pb[k], pb[d - 1 + k], sa, sb
                    t = tables.get(e) or table(*e)
                    rows = t if k == 0 else [(j + s, dj + dk, v * u) for j, dj, v in rows
                                             for s, dk, u in t if j + s <= jmax]
                if packing:         # one multiply-add per term pair and row: R1 R2 is the series
                    for r1, r2, ka, va, ra in Lt:
                        for ga, de, kb, vb, rb in Rt:
                            into, kab, c = acc[ra + rb & 3], ka + kb, r1[ga] * r2[de] * (va * vb)
                            for j, dj, v in rows:
                                into[kab + dj] += v * c
                    continue
                for al, be, ka, va, ra in Lt:       # otherwise one multiply-add per entry
                    for ga, de, kb, vb, rb in Rt:
                        if (last := lasts.get((al, be, ga, de))) is None:
                            t = table(d - 1, al, be, ga, de, sa, sb)
                            last = lasts[al, be, ga, de] = [
                                [(dk, u) for s, dk, u in t if j + s in orders]
                                for j in range(jmax + 1 if d > 1 else 1)]
                        into, c, kab = acc[ra + rb & 3], va * vb, ka + kb
                        for j, dj, v in rows:
                            key, vc = kab + dj, v * c
                            for dk, u in last[j]:
                                into[key + dk] += u * vc
    if packing:         # digit s of a packed sum at a key of order j is the order j + s term
        step, series_sums = (1 << top) - (1 << width * (d - 1)) - (1 << width * (2 * d - 1)), acc
        acc, wanted = [defaultdict(int) for _ in range(4)], [j in orders for j in range(jmax + 1)]
        for sums, into in zip(series_sums, acc):
            for key, v in sums.items():
                j = key >> top
                for s, t in zip(range(jmax + 1 - j), _digits(v, W)):
                    if t and wanted[j + s]:
                        into[key + s * step] += t
    terms, slots = {j: {} for j in orders}, [width * i for i in range(nv)]
    for k, sums in enumerate(acc):
        for key, c in sums.items():
            j, e = key >> top, tuple([key >> i & mask for i in slots])
            # c i^k times (-i)^j = i^3j, the phases' i^(Y degree) and the bracket's i: i^n
            n, t = k + 3 * j + sum(e[2 * d:ny]) + bracket & 3, terms[j].setdefault(e, [0, 0])
            t[n & 1] += -c if n & 2 else c
    return {j: PolySymbol._reduced(shape, DA * DB << j,
                                   {e: (re, im) for e, (re, im) in t.items() if re or im})
            for j, t in terms.items()}


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


def _bracket_split(A: PolySymbol, B: PolySymbol, m: int) -> tuple[HbarSeries, HbarSeries]:
    """(truncated_bracket(A, B, m), bracket_discrepancy(A, B, m)) from one bracket."""
    if m < 0:
        raise ValueError("truncation order must be >= 0")
    full = moyal_bracket(A, B)
    parts: tuple[dict, dict] = ({}, {})
    for j, p in full.coeffs.items():
        parts[j > 2 * m][j] = p
    return HbarSeries(full.shape, parts[0]), HbarSeries(full.shape, parts[1])


def truncated_bracket(A: PolySymbol, B: PolySymbol, m: int) -> HbarSeries:
    """The partial sum {A,B} + hbar^2 {A,B}_3 + ... + hbar^(2m) {A,B}_(2m+1)."""
    return _bracket_split(A, B, m)[0]


def bracket_discrepancy(A: PolySymbol, H: PolySymbol, m: int) -> HbarSeries:
    """{A,H}_star - {A,H}_(star,m): the tail beyond the order-m truncation."""
    return _bracket_split(A, H, m)[1]


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
