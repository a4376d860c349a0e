"""Sparse polynomial symbols on phase space, exact over the complex rationals.

Variables come in named blocks; the exponent tuple of a term concatenates
the active blocks in this order:

    x_1..x_d, xi_1..xi_d        phase-space point X = (x, xi)   (always)
    y_1..y_d, eta_1..eta_d      test point Y = (y, eta)         (optional)
    hbar                        formal semiclassical parameter  (optional)

A ``PolySymbol`` stores Gaussian-integer numerators over one denominator
(the layout of FLINT's fmpq_poly): ``den`` > 0 and ``num = {exponent tuple:
(re, im)}`` of ints, no zero entry, gcd(den, every numerator) = 1, so ``==``
is structural identity.  Each operation brings its operands to one
denominator once and reduces its result once by a gcd.  ``terms``, a
read-only view {exponent tuple: CRational}, is built anew on each access for
the boundaries (CLI, numeric evaluators, tests); no operation reads it.
Values are immutable after construction and every operation is pure.

The Poisson bracket here is

    {A,B} = sum_k (d_xi_k A)(d_x_k B) - (d_x_k A)(d_xi_k B)

so that {x, xi} = -1; see `moyal_lab.conventions` for the full sign table.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm, perm
from operator import add
from struct import Struct
from typing import Iterable, Mapping, Sequence

from .crational import CRational, ScalarLike

BLOCKS = ("x", "xi", "y", "eta", "hbar")


class Shape(namedtuple("_Shape", "d has_y has_hbar")):
    """Variable-block layout of a symbol: dimension d plus optional blocks."""

    __slots__ = ()

    def __new__(cls, d: int, has_y: bool = False, has_hbar: bool = False):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        return super().__new__(cls, int(d), bool(has_y), bool(has_hbar))

    @property
    def nvars(self) -> int:
        d, has_y, has_hbar = self
        return 2 * d * (2 if has_y else 1) + (1 if has_hbar else 0)

    def slot(self, block: str, axis: int = 0) -> int:
        """Index of a variable in the exponent tuple."""
        d, has_y, has_hbar = self
        if block not in BLOCKS:
            raise ValueError(f"unknown block {block!r}")
        if block == "hbar":
            if not has_hbar:
                raise ValueError("shape has no hbar block")
            return self.nvars - 1
        if not 0 <= axis < d:
            raise ValueError(f"axis {axis} out of range for d={d}")
        if block in ("y", "eta") and not has_y:
            raise ValueError("shape has no Y block")
        return BLOCKS.index(block) * d + axis

    def __repr__(self) -> str:
        tags = ["X"] + (["Y"] if self.has_y else []) + (["hbar"] if self.has_hbar else [])
        return f"Shape(d={self.d}, blocks={'+'.join(tags)})"


class ShapeError(ValueError):
    """Operands with incompatible variable-block layouts."""


def _check_same_shape(a: "PolySymbol", b: "PolySymbol") -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def _ratio(value: ScalarLike) -> tuple[int, int, int]:
    """(q, re, im) with value = (re + i im) / q, q > 0 and gcd(q, re, im) = 1."""
    c = CRational.coerce(value)
    q = lcm(c.re.denominator, c.im.denominator)
    return q, c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator)


def _powers(q: int, gr: int, gi: int, top: int) -> list:
    """[(gr + i gi)^k q^(top - k) for k = 0..top] as (re, im) integer pairs."""
    w = [(q ** top, 0)]
    for _ in range(top):
        wr, wi = w[-1]
        w.append(((wr * gr - wi * gi) // q, (wr * gi + wi * gr) // q))
    return w


def _key_codec(ndigits: int, bound: int) -> tuple:
    """(width, pack, unpack) for tuples of `ndigits` digits, each at most `bound`, as one int
    with digit i at bit width*i; whole-byte widths make each direction one struct call."""
    width, code = next(wc for wc in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if bound >> wc[0] == 0)
    layout = Struct(f"<{ndigits}{code}")
    return (width, lambda e: int.from_bytes(layout.pack(*e), "little"),
            lambda key: layout.unpack(key.to_bytes(layout.size, "little")))


class PolySymbol:
    """Sparse multivariate polynomial: Gaussian-integer numerators over one denominator."""

    __slots__ = ("shape", "den", "num")

    def __init__(self, shape: Shape, terms: Mapping[tuple, ScalarLike] | None = None):
        n, parts = shape.nvars, {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n:
                raise ShapeError(f"exponent tuple {exps} has length {len(exps)}, expected {n}")
            if (c := _ratio(coeff))[1] or c[2]:
                parts[tuple(exps)] = c
        den = lcm(1, *(q for q, _, _ in parts.values()))     # gcd(den, numerators) is 1 already
        self.shape, self.den = shape, den
        self.num = {e: (re * (den // q), im * (den // q)) for e, (q, re, im) in parts.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, shape: Shape, den: int, num: dict) -> "PolySymbol":
        """A symbol in canonical form as given (see the module docstring)."""
        r = cls.__new__(cls)
        r.shape, r.den, r.num = shape, den, num
        return r

    @classmethod
    def _reduced(cls, shape: Shape, den: int, num: dict) -> "PolySymbol":
        """sum num[e] X^e / den in canonical form; `num` has no zero entry and den > 0."""
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {e: (re // g, im // g) for e, (re, im) in num.items()}
        return cls._of(shape, den, num)

    @classmethod
    def zero(cls, shape: Shape) -> "PolySymbol":
        return cls._of(shape, 1, {})

    @classmethod
    def const(cls, shape: Shape, value: ScalarLike) -> "PolySymbol":
        return cls(shape, {(0,) * shape.nvars: value})

    @classmethod
    def var(cls, shape: Shape, block: str, axis: int = 0) -> "PolySymbol":
        e = [0] * shape.nvars
        e[shape.slot(block, axis)] = 1
        return cls._of(shape, 1, {tuple(e): (1, 0)})

    @classmethod
    def monomial(cls, shape: Shape, exps: Sequence[int], coeff: ScalarLike = 1) -> "PolySymbol":
        return cls(shape, {tuple(exps): coeff})

    @property
    def terms(self) -> dict:
        """{exponent tuple: CRational}, built on each access."""
        den = self.den
        return {e: CRational(Fraction(re, den), Fraction(im, den)) for e, (re, im) in self.num.items()}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PolySymbol", sign: int = 1) -> "PolySymbol":
        """self + sign * other, over the lcm of the two denominators."""
        _check_same_shape(self, other)
        g = gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g * sign
        out = dict(self.num) if ma == 1 else {e: (re * ma, im * ma) for e, (re, im) in self.num.items()}
        for e, (re, im) in other.num.items():
            re, im = re * mb, im * mb
            if (s := out.get(e)) is not None:
                re, im = s[0] + re, s[1] + im
                if not (re or im):
                    del out[e]
                    continue
            out[e] = re, im
        return PolySymbol._reduced(self.shape, self.den * ma, out)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self.__add__(other, -1)

    def __neg__(self) -> "PolySymbol":
        return PolySymbol._of(self.shape, self.den, {e: (-re, -im) for e, (re, im) in self.num.items()})

    def __mul__(self, other):
        if not isinstance(other, PolySymbol):
            return self.scaled(other)
        _check_same_shape(self, other)
        for p, k in ((self, other), (other, self)):       # a constant factor k scales p
            if len(k.num) == 1 and not any(e := next(iter(k.num))):
                return p._times(k.den, *k.num[e])
        out: dict[tuple, tuple] = {}
        for e1, (a, b) in self.num.items():
            for e2, (c, d) in other.num.items():
                e = tuple(map(add, e1, e2))
                if (s := out.get(e)) is None:
                    out[e] = a * c - b * d, a * d + b * c
                else:
                    out[e] = s[0] + a * c - b * d, s[1] + a * d + b * c
        return PolySymbol._reduced(self.shape, self.den * other.den,
                                   {e: v for e, v in out.items() if v[0] or v[1]})

    def scaled(self, scalar: ScalarLike) -> "PolySymbol":
        return self._times(*_ratio(scalar))

    __rmul__ = scaled

    def _times(self, q: int, sr: int, si: int) -> "PolySymbol":
        """The symbol times (sr + i si) / q, q > 0."""
        if not (sr or si):
            return PolySymbol.zero(self.shape)
        return PolySymbol._reduced(self.shape, self.den * q, {e: (re * sr - im * si, re * si + im * sr)
                                                              for e, (re, im) in self.num.items()})

    def __pow__(self, n: int) -> "PolySymbol":
        """One product per unit of n, as `exprparse` lowers a power (see its docstring)."""
        if n < 0:
            raise ValueError("negative polynomial power")
        out = PolySymbol.const(self.shape, 1)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self) -> "PolySymbol":
        """Complex conjugation of coefficients (all variables are real)."""
        return PolySymbol._of(self.shape, self.den, {e: (re, -im) for e, (re, im) in self.num.items()})

    # -- calculus ------------------------------------------------------------

    def partial(self, block: str, axis: int = 0) -> "PolySymbol":
        """Formal partial derivative in one variable."""
        return self._derived({self.shape.slot(block, axis): 1})

    def partial_multi(self, x: Sequence[int] = (), xi: Sequence[int] = ()) -> "PolySymbol":
        """d_x^a d_xi^b applied termwise (a, b multi-indices of length d)."""
        if len(x) > self.shape.d or len(xi) > self.shape.d:
            raise ShapeError("multi-index longer than dimension")
        return self._derived({self.shape.slot(b, k): o for b, m in (("x", x), ("xi", xi))
                              for k, o in enumerate(m) if o})

    def _derived(self, orders: dict) -> "PolySymbol":
        """Every slot s differentiated orders[s] times, termwise; distinct surviving
        terms keep distinct exponents, so nothing merges."""
        out = {}
        for e, (re, im) in self.num.items():
            if all(e[s] >= o for s, o in orders.items()):
                ne, factor = list(e), 1
                for s, o in orders.items():
                    ne[s], factor = e[s] - o, factor * perm(e[s], o)
                out[tuple(ne)] = re * factor, im * factor
        return PolySymbol._reduced(self.shape, self.den, out)

    # -- degrees, parts, predicates -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _slots(self, blocks: tuple) -> list:
        """Exponent slots of the given blocks (default: the X blocks)."""
        return [self.shape.slot(b, k) for b in blocks or ("x", "xi")
                for k in range(1 if b == "hbar" else self.shape.d)]

    def degree(self, *blocks: str) -> int:
        """Total degree over the given blocks (default: the X blocks).

        The zero polynomial reports -1.
        """
        slots = self._slots(blocks)
        return max((sum(map(e.__getitem__, slots)) for e in self.num), default=-1)

    def homogeneous_part(self, k: int, *blocks: str) -> "PolySymbol":
        """Terms whose total degree over the given blocks equals k."""
        slots = self._slots(blocks)
        return PolySymbol._reduced(self.shape, self.den, {e: v for e, v in self.num.items()
                                                          if sum(map(e.__getitem__, slots)) == k})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self.shape == other.shape and self.den == other.den and self.num == other.num

    # -- shape changes -----------------------------------------------------------

    def promoted(self, shape: Shape) -> "PolySymbol":
        """Embed into a larger variable-block layout (same d)."""
        src, dst = self.shape, shape
        if src == dst:
            return self
        if src.d != dst.d:
            raise ShapeError("cannot change dimension in promotion")
        if (src.has_y and not dst.has_y) or (src.has_hbar and not dst.has_hbar):
            raise ShapeError(f"promotion cannot drop blocks: {src} -> {dst}")
        moves = [(src.slot(b, k), dst.slot(b, k)) for b in ("x", "xi", "y", "eta")[:4 if src.has_y else 2]
                 for k in range(src.d)]
        if src.has_hbar:
            moves.append((src.slot("hbar"), dst.slot("hbar")))
        pick = {d_slot: s_slot for s_slot, d_slot in moves}
        pick = [pick.get(k, -1) for k in range(dst.nvars)]      # -1: the zero appended below
        return PolySymbol._of(dst, self.den, {tuple(map((e + (0,)).__getitem__, pick)): v
                                              for e, v in self.num.items()})

    def translated(self, shifts: Sequence["PolySymbol | None"]) -> "PolySymbol":
        """Compose with X -> X + shift, shifts affine in the target variables.

        ``shifts`` lists 2d entries (x_1..x_d then xi_1..xi_d); ``None``
        entries mean no shift.  Every shift must be a polynomial of degree
        at most 1 in all blocks; nonlinear shifts are rejected.  The result
        lives in the common target shape.

        Shifts are X-free, so each shift monomial c m is a binomial Taylor
        shift x_k^n -> sum_i C(n,i) x_k^(n-i) (c m)^i (von zur Gathen and
        Gerhard, ISSAC 1997) on the numerators over den q^N (c = g/q, N the
        top exponent of x_k): O(terms x N) integer products per shift monomial.
        """
        d = self.shape.d
        if len(shifts) != 2 * d:
            raise ShapeError(f"expected {2 * d} shift entries, got {len(shifts)}")
        given = [self] + [s for s in shifts if s is not None]
        target = Shape(d, any(p.shape.has_y for p in given), any(p.shape.has_hbar for p in given))
        xslots = [target.slot("x", k) for k in range(d)] + [target.slot("xi", k) for k in range(d)]
        moves = []
        for slot, s in zip(xslots, shifts):
            if s is None or s.is_zero:
                continue
            sp = s.promoted(target)
            # affine, X-free: at most one power of a (y, eta) variable per
            # term, no x/xi content; hbar powers are free (formal parameter)
            if any(e[sl] for e in sp.num for sl in xslots):
                raise ValueError("translation shift must not depend on X")
            if target.has_y and sp.degree("y", "eta") > 1:
                raise ValueError("translation shift must be affine (degree <= 1)")
            moves += [(slot, m, sp.den, gr, gi) for m, (gr, gi) in sp.num.items()]
        base = self.promoted(target)
        # exponents packed into one int; shifts are X-free, so the top exponent of each
        # x_k stays put, and no digit exceeds the total degree
        tops = {slot: max((e[slot] for e in base.num), default=0) for slot, *_ in moves}
        width, pack, unpack = _key_codec(target.nvars, max(map(sum, base.num), default=0)
                                         + sum(tops[slot] * sum(m) for slot, m, *_ in moves))
        den, acc = base.den, {pack(e): v for e, v in base.num.items()}
        for slot, m, q, gr, gi in moves:
            g = gcd(q, gr, gi)
            q, gr, gi = q // g, gr // g, gi // g
            top, at, mask = tops[slot], width * slot, (1 << width) - 1
            w = _powers(q, gr, gi, top)         # w[i] = (gr + i gi)^i q^(top - i)
            rows = [[(comb(n, i) * wr, comb(n, i) * wi) for i, (wr, wi) in enumerate(w[:n + 1])]
                    for n in range(top + 1)]
            # x_k^n -> sum_i C(n,i) x_k^(n-i) (c m)^i: term i moves the key by i * step
            step = pack(m) - (1 << at)
            out: dict = {}
            for key, (re, im) in acc.items():
                for wr, wi in rows[key >> at & mask]:
                    if (o := out.get(key)) is None:
                        out[key] = re * wr - im * wi, re * wi + im * wr
                    else:
                        out[key] = o[0] + re * wr - im * wi, o[1] + re * wi + im * wr
                    key += step
            acc = {k: v for k, v in out.items() if v[0] or v[1]}
            den *= q ** top
        acc = {unpack(k): v for k, v in acc.items()}
        return PolySymbol._reduced(target, den, acc)

    def at_hbar(self, value: ScalarLike) -> "PolySymbol":
        """Collapse the formal hbar variable to an exact numeric value."""
        if not self.shape.has_hbar:
            return self
        slot, top, (q, vr, vi) = self.shape.slot("hbar"), max(self.degree("hbar"), 0), _ratio(value)
        w = _powers(q, vr, vi, top)             # v^k on the denominator q^top
        out: dict[tuple, tuple] = {}
        for e, (re, im) in self.num.items():
            wr, wi = w[e[slot]]
            ne = e[:slot] + e[slot + 1:]
            re, im = re * wr - im * wi, re * wi + im * wr
            if (s := out.get(ne)) is not None:
                re, im = s[0] + re, s[1] + im
            out[ne] = re, im
        return PolySymbol._reduced(Shape(self.shape.d, self.shape.has_y, False), self.den * q ** top,
                                   {e: v for e, v in out.items() if v[0] or v[1]})

    def divided_by_hbar(self, k: int = 1) -> "PolySymbol":
        """Exact division by hbar^k; every term must carry hbar^k."""
        slot = self.shape.slot("hbar")
        out = {}
        for e, v in self.num.items():
            if e[slot] < k:
                raise ValueError("polynomial not divisible by hbar^%d" % k)
            out[e[:slot] + (e[slot] - k,) + e[slot + 1:]] = v
        return PolySymbol._of(self.shape, self.den, out)

    def hbar_shifted(self, k: int) -> "PolySymbol":
        """Multiply by hbar^k (adding the hbar block if absent)."""
        target = Shape(self.shape.d, self.shape.has_y, True)
        p = self.promoted(target)
        slot = target.slot("hbar")
        return PolySymbol._of(target, self.den, {e[:slot] + (e[slot] + k,) + e[slot + 1:]: v
                                                 for e, v in p.num.items()})

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, X: "PhasePoint | Sequence" = None,
                 Y: "PhasePoint | Sequence" = None) -> CRational:
        """Exact evaluation at X, and Y if active; an hbar block is collapsed by `at_hbar` first."""
        if self.shape.has_hbar:
            raise ValueError("collapse the hbar block with at_hbar before evaluating")
        d = self.shape.d
        values = []
        for name, point in (("X", X), ("Y", Y))[:2 if self.shape.has_y else 1]:
            if point is None:
                raise ValueError(f"missing {name} values")
            coords = point.coords if isinstance(point, PhasePoint) else tuple(point)
            if len(coords) != 2 * d:
                raise ShapeError(f"{name} needs {2 * d} coordinates")
            values += map(CRational.coerce, coords)
        total = CRational(0)
        for e, c in self.terms.items():
            for v, p in zip(values, e):
                c = c * v ** p if p else c
            total = total + c
        return total

    # -- presentation ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, CRational]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        d, has_y, has_hbar = self.shape
        names = [b if d == 1 else f"{b}{k+1}" for b in ("x", "xi", "y", "eta")[:4 if has_y else 2]
                 for k in range(d)] + ["hbar"] * has_hbar
        return " + ".join(f"({c!r})" + "".join(f"*{n}" if p == 1 else f"*{n}^{p}" for n, p in zip(names, e) if p)
                          for e, c in self.sorted_terms())


class PhasePoint:
    """A point X = (x, xi) of the 2d-dimensional phase space, exact coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        cs = tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in coords)
        if len(cs) % 2 or not cs:
            raise ValueError("phase point needs 2d coordinates")
        self.coords = cs

    @property
    def d(self) -> int:
        return len(self.coords) // 2

    @property
    def x(self) -> tuple:
        return self.coords[: self.d]

    @property
    def xi(self) -> tuple:
        return self.coords[self.d:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhasePoint) and self.coords == other.coords

    def __repr__(self) -> str:
        return f"PhasePoint({self.coords})"


def symplectic_form(Y: PhasePoint, X: PhasePoint) -> Fraction:
    """sigma(Y, X) = eta.x - y.xi."""
    if Y.d != X.d:
        raise ShapeError("dimension mismatch in symplectic form")
    return sum((Y.xi[k] * X.x[k] - Y.x[k] * X.xi[k] for k in range(Y.d)), Fraction(0))


def linear_form(Y: PhasePoint) -> PolySymbol:
    """L_Y as a polynomial in X for a numeric test point Y."""
    shape = Shape(Y.d)
    p = PolySymbol.zero(shape)
    for k in range(Y.d):
        p = p + PolySymbol.var(shape, "x", k).scaled(Y.xi[k]) \
              - PolySymbol.var(shape, "xi", k).scaled(Y.x[k])
    return p


def linear_form_symbolic(d: int) -> PolySymbol:
    """L_Y(X) = eta.x - y.xi with Y kept as a symbolic block."""
    shape = Shape(d, True)
    p = PolySymbol.zero(shape)
    for k in range(d):
        p = p + PolySymbol.var(shape, "eta", k) * PolySymbol.var(shape, "x", k) \
              - PolySymbol.var(shape, "y", k) * PolySymbol.var(shape, "xi", k)
    return p


def poisson_bracket(A: PolySymbol, B: PolySymbol) -> PolySymbol:
    """{A,B} = sum_k d_xi_k A . d_x_k B - d_x_k A . d_xi_k B."""
    _check_same_shape(A, B)
    out = PolySymbol.zero(A.shape)
    for k in range(A.shape.d):
        out = out + A.partial("xi", k) * B.partial("x", k) \
                  - A.partial("x", k) * B.partial("xi", k)
    return out


def directional_power(H: PolySymbol, k: int) -> PolySymbol:
    """(Y.grad)^k H, with Y symbolic: one application is y.d_x + eta.d_xi."""
    shape = Shape(H.shape.d, True, H.shape.has_hbar)
    p = H.promoted(shape)
    d = shape.d
    for _ in range(k):
        acc = PolySymbol.zero(shape)
        for j in range(d):
            acc = acc + PolySymbol.var(shape, "y", j) * p.partial("x", j) \
                      + PolySymbol.var(shape, "eta", j) * p.partial("xi", j)
        p = acc
    return p
