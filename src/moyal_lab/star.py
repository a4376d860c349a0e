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
O^s / s! with O = P + s_B D on the left factor - s_A D on the right one,
D = y d_x + eta d_xi summed over the axes (the y eta terms cancel).  The three
parts commute, so each factor is first expanded once into its shifted operand
sum_l (s D)^l / l! A: on one axis the entry (l, i) takes x^al xi^be to
s^l C(al, i) C(be, l - i) y^i eta^(l - i) x^(al - i) xi^(be - l + i), an integer,
and adds l to the order.  The shifted operands then run through the tables
above like unphased ones.  A pair of entries of orders l and r, of X-degrees
n and n', reaches the orders l + r + q with q <= min(n, n'), so an entry of A
reaches only orders in [l, l + min(n + r_max, deg B)], r_max being deg B if B
is shifted and 0 otherwise; entries that reach no wanted order are dropped, so a
single-order call expands only the entries it needs.

The kernel works in Python ints on the operands' numerators over their
denominators D_A, D_B; each order's output is (-i/2)^j / (D_A D_B) times
integer numerators, reduced once.  An output key is one int: exponent slot i
is the digit at bit width*i and the order j sits on top, the width being the
bit length of deg A + deg B + j_max over all blocks (the narrowest width keeps
most keys within one machine digit of a Python int).  Each term is packed
once and each table entry holds its key delta (s in the order digit), so a
row's key is key_A + key_B + the deltas.  Tables are built on first use and
live for one call.  Terms are grouped by their shift order l and their
exponents on axes 0..d-2, so the prefix rows are built once per pair of
groups, up to the orders the pair can reach, and the last axis runs inside
the accumulation.

The last axis's series is packed into one int,
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
W = bit_length(|A| |B| M) + bracket + 1.  A prefix axis's table T is read
off R1(2^W) R2(2^W) as its signed W-bit digits 0..j_max, exact as |T[s]| <= M
< 2^(W-1).  With phases |A| and |B| are those of the shifted operands, entries
dropped by the reach bound left out: a digit then sums n_A n_B v T[s] over
pairs of shifted entries, and as a shift only lowers X-degrees, M bounds each
such pair's series too.  A narrower W would corrupt exact results silently,
so W is not a tuning knob.  Every call is packed, whatever its W; with
numerators of thousands of bits one multiply by a series of W-bit digits
costs more than one per order, but no benchmark workload measures where.

Series are represented by `HbarSeries`: a finite map {j: PolySymbol} of
hbar-power to coefficient symbol (coefficients carry no hbar block).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
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
    def of(cls, p: PolySymbol) -> "HbarSeries":
        return cls(p.shape, {0: p})

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

    def shifted(self, k: int) -> "HbarSeries":
        """Multiply by hbar^k."""
        return HbarSeries(self.shape, {j + k: p for j, p in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

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


def _bidifferential(A: PolySymbol, B: PolySymbol, orders, signs=(0, 0),
                    bracket: bool = False) -> dict[int, PolySymbol]:
    """{j: C_j(A, B)} for j in `orders` by the per-axis tables of the module docstring, `signs`
    being the phase signs s of the factors e^{i s L_Y} on A and B; with `bracket`,
    {j: i (C_j(A, B) - C_j(B, A))}."""
    orders, shape, d = set(orders), A.shape, A.shape.d
    if not orders:
        return {}
    jmax, nv, ny = max(orders), shape.nvars, (4 if shape.has_y else 2) * d
    width = (sum(max(map(sum, p.num), default=0) for p in (A, B)) + jmax).bit_length()
    top, mask = nv * width, (1 << width) - 1
    deg = [max((sum(e[:2 * d]) for e in p.num), default=0) for p in (A, B)]
    # no prefix tables if either factor has no exponent on axes 0..d-2
    flat = not all(any(any(e[:d - 1] + e[d:2 * d - 1]) for e in p.num) for p in (A, B))
    M = min((1 + deg[1]) ** deg[0], (1 + deg[0]) ** deg[1])
    nxt = [min(o for o in orders if o >= l) for l in range(jmax + 1)]    # next wanted order
    memo, reach, tables, ints = {}, {}, {}, {}     # all for this call only
    lowering = [(1 << top) - (1 << width * k) - (1 << width * (k + d)) for k in range(d)]

    def packed(e, sign, n):
        """[R1 (sign 1) or R2 (sign -1) of (e, f) in W-bit digits, at 2^(W a)] for f = 0..n - 1."""
        if (e, sign, n) not in ints:
            ints[e, sign, n] = [sum(sign ** a * comb(e, a) * perm(f, a) << W * a for a in range(min(e, f, jmax) + 1))
                                for f in range(n)]
        return ints[e, sign, n]

    def shifted(k, x, xi):
        """[[(key delta, x - i, xi - l + i, C(x, i) C(xi, l - i))] for l = 0, 1, ...]: the entries
        (l, i) of D^l / l! x^x xi^xi on axis k (module docstring); a key delta adds l to the order."""
        sx, sxi, sy, seta = (width * (k + b * d) for b in range(4))
        memo[k, x, xi] = [[((l << top) + (i << sy) - (i << sx) + (l - i << seta) - (l - i << sxi),
                            x - i, xi - l + i, comb(x, i) * comb(xi, l - i))
                           for i in range(max(0, l - xi), min(l, x) + 1)]
                          for l in range(min(x + xi, jmax) + 1)]
        return memo[k, x, xi]

    def grouped(t):
        """({(l, exponents on axes 0..d-2): [(x, xi exponent on axis d-1, key, n, k)]}, sum of |n|): the
        shifted operand of p = (A, B)[t] with s = 1 (p if the other factor has no phase) is the sum
        of n i^(k + Y degree) X^e / p.den over the entries, k being 0 for a real and 1 for an
        imaginary part, less the unshifted Y degree, which the output restores as the phases' i;
        entries that reach no wanted order are left out."""
        p, other, shift, groups, size = (A, B)[t], deg[1 - t], signs[1 - t], defaultdict(list), 0
        r_max = other if signs[t] else 0        # the most the other factor's shift adds
        for e, c in p.num.items():
            free = hi = sum(e[:2 * d])      # free: the most the axes still to come can shift
            if (t, hi) not in reach:        # least[l]: the least order >= l an entry may have
                ok = [m for m in range(jmax + 1) if nxt[m] <= min(hi + r_max, m + other)]
                reach[t, hi] = [min((m for m in ok if m >= l), default=jmax + 1) for l in range(jmax + 2)]
            least = reach[t, hi]
            parts = [(part - sum(e[2 * d:ny]) & 3, q) for part, q in enumerate(c) if q]
            rows = [(0, sum(x << width * i for i, x in enumerate(e)), 1, ())]
            for k in range(d):      # prefix rows on axes 0..d-2, then the last axis's entries
                x, xi, free = e[k], e[d + k], free - e[k] - e[d + k]
                sh = (memo.get((k, x, xi)) or shifted(k, x, xi)) if shift else [[(0, x, xi, 1)]]
                if k < d - 1:
                    rows = [(l + m, key + dk, v * u, ex + (x2, xi2)) for l, key, v, ex in rows
                            for m in range(min(len(sh), jmax + 1 - l)) if least[l + m] <= l + m + free
                            for dk, x2, xi2, u in sh[m]]
                    continue
                for l, key, v, ex in rows:
                    for m in range(min(len(sh), jmax + 1 - l)):
                        if least[l + m] == l + m:
                            g = groups[(l + m,) + (() if flat else ex[::2] + ex[1::2])]
                            for dk, x2, xi2, u in sh[m]:
                                for part, q in parts:
                                    g.append((x2, xi2, key + dk, q * v * u, part))
                                    size += abs(q * v * u)
        return groups, size

    def table(k, al, be, ga, de):
        """[(s, key delta, T[s])] on axis k for x^al xi^be (left) and x^ga xi^de (right), T[s] being
        digit s of R1 R2; the key delta lowering[k] raises the order and lowers x_k and xi_k by one."""
        t = tables[k, al, be, ga, de] = []
        v = packed(be, 1, max(deg) + 1)[ga] * packed(al, -1, max(deg) + 1)[de]
        for s in range(jmax + 1):
            if c := (v + half & digit) - half:
                t.append((s, s * lowering[k], c))
            v = v + half >> W
        return t

    (GA, sizeA), (GB, sizeB) = grouped(0), grouped(1)
    W = (sizeA * sizeB * M).bit_length() + bracket + 1     # by the module docstring
    half, digit, step = 1 << W - 1, (1 << W) - 1, lowering[-1]
    # left terms carry their rows R1[xi exponent] and R2[x exponent] up to the right factor's degree
    rowed = [{g: [(packed(xi, 1, m), packed(x, -1, m), key, n, k) for x, xi, key, n, k in Lt]
              for g, Lt in G.items()} for G, m in zip((GA, GB)[:1 + bracket], (deg[1] + 1, deg[0] + 1))]
    # (left, right, sigma, shift_left, shift_right), a group pair's sign riding on its first row;
    # the bracket's second pass, i (C_j(A, B) - C_j(B, A)), swaps the factors
    passes = [(rowed[0], GB, 1, signs[1], -signs[0]), (rowed[-1], GA, -1, signs[0], -signs[1])][:1 + bracket]
    acc = [defaultdict(int) for _ in range(4)]      # key -> numerator of i^0, i^1, i^2, i^3
    for left, right, sign, sl, sr in passes:
        for pa, Lt in left.items():
            for pb, Rt in right.items():
                if (base := pa[0] + pb[0]) > jmax:      # the two groups' shift orders
                    continue
                # (order, key delta, entry) over axes 0..d-2, from the pair's sign sigma shift_left^l
                # shift_right^l': an s = -1 operand is the s = 1 one times (-1)^l at shift order l
                rows = [(0, 0, sign * sl ** pa[0] * sr ** pb[0])]
                for k in range(len(pa) // 2):
                    e = k, pa[k + 1], pa[d + k], pb[k + 1], pb[d + k]
                    t = tables.get(e) or table(*e)
                    rows = [(j + s, dj + dk, v * u) for j, dj, v in rows
                            for s, dk, u in t if base + j + s <= jmax]
                # one multiply-add per term pair and row: R1 R2 is the last axis's series
                for r1, r2, ka, va, ra in Lt:
                    for ga, de, kb, vb, rb in Rt:
                        into, kab, c = acc[ra + rb & 3], ka + kb, r1[ga] * r2[de] * (va * vb)
                        for j, dj, v in rows:
                            into[kab + dj] += v * c
    terms, slots = {j: {} for j in orders}, [width * i for i in range(nv)]
    for k, sums in enumerate(acc):
        for key, v in sums.items():
            j = key >> top
            while v and j <= jmax:      # digit s at a key of order j: the order j + s term, lowered
                if (c := (v + half & digit) - half) and j in terms:     # -2^(W-1) <= c < 2^(W-1)
                    e = tuple([key >> i & mask for i in slots])
                    # c i^k times (-i)^j = i^3j, the phases' i^(Y degree) and the bracket's i: i^n
                    n, t = k + 3 * j + sum(e[2 * d:ny]) + bracket & 3, terms[j].setdefault(e, [0, 0])
                    t[n & 1] += -c if n & 2 else c
                v, j, key = v + half >> W, j + 1, key + step
    return {j: PolySymbol._reduced(shape, A.den * B.den << j,
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
