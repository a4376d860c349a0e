"""Sparse polynomial symbols on phase space, exact over the complex rationals.

Variables come in named blocks; the exponent tuple of a term concatenates
the active blocks in this order:

    x_1..x_d, xi_1..xi_d        phase-space point X = (x, xi)   (always)
    y_1..y_d, eta_1..eta_d      test point Y = (y, eta)         (optional)
    hbar                        formal semiclassical parameter  (optional)

A ``PolySymbol`` stores ``{exponent tuple: CRational}`` with no zero
coefficients, so ``==`` is structural identity of canonical forms.  All
values are immutable after construction and every operation is pure.

The Poisson bracket here is

    {A,B} = sum_k (d_xi_k A)(d_x_k B) - (d_x_k A)(d_xi_k B)

so that {x, xi} = -1; see `moyal_lab.conventions` for the full sign table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, perm
from operator import add
from typing import Iterable, Mapping, Sequence

from .crational import ONE, CRational, ScalarLike

# scaling by 1, i, -1 or -i only moves and negates the parts (re, im)
_UNITS = {(1, 0): lambda c: c, (0, 1): lambda c: CRational(-c.im, c.re),
          (-1, 0): lambda c: -c, (0, -1): lambda c: CRational(c.im, -c.re)}

BLOCKS = ("x", "xi", "y", "eta", "hbar")


class Shape(tuple):
    """Variable-block layout of a symbol: dimension d plus optional blocks."""

    def __new__(cls, d: int, has_y: bool = False, has_hbar: bool = False):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        return super().__new__(cls, (int(d), bool(has_y), bool(has_hbar)))

    @property
    def d(self) -> int:
        return self[0]

    @property
    def has_y(self) -> bool:
        return self[1]

    @property
    def has_hbar(self) -> bool:
        return self[2]

    @property
    def nvars(self) -> int:
        d, has_y, has_hbar = self
        return 2 * d * (2 if has_y else 1) + (1 if has_hbar else 0)

    def slot(self, block: str, axis: int = 0) -> int:
        """Index of a variable in the exponent tuple."""
        d = self.d
        if block in ("x", "xi", "y", "eta") and not 0 <= axis < d:
            raise ValueError(f"axis {axis} out of range for d={d}")
        if block == "x":
            return axis
        if block == "xi":
            return d + axis
        if block == "y":
            if not self.has_y:
                raise ValueError("shape has no Y block")
            return 2 * d + axis
        if block == "eta":
            if not self.has_y:
                raise ValueError("shape has no Y block")
            return 3 * d + axis
        if block == "hbar":
            if not self.has_hbar:
                raise ValueError("shape has no hbar block")
            return self.nvars - 1
        raise ValueError(f"unknown block {block!r}")

    def __repr__(self) -> str:
        tags = ["X"] + (["Y"] if self.has_y else []) + (["hbar"] if self.has_hbar else [])
        return f"Shape(d={self.d}, blocks={'+'.join(tags)})"


class ShapeError(ValueError):
    """Operands with incompatible variable-block layouts."""


def _check_same_shape(a: "PolySymbol", b: "PolySymbol") -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


class PolySymbol:
    """Sparse multivariate polynomial over CRational coefficients."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape: Shape, terms: Mapping[tuple, ScalarLike] | None = None):
        self.shape = shape
        n = shape.nvars
        clean: dict[tuple, CRational] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ShapeError(f"exponent tuple {exps} has length {len(exps)}, expected {n}")
                c = CRational.coerce(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, shape: Shape, terms: dict) -> "PolySymbol":
        """A symbol on `terms` as given: nonzero CRationals on exponent tuples of length nvars."""
        r = cls.__new__(cls)
        r.shape, r.terms = shape, terms
        return r

    @classmethod
    def zero(cls, shape: Shape) -> "PolySymbol":
        return cls(shape, {})

    @classmethod
    def const(cls, shape: Shape, value: ScalarLike) -> "PolySymbol":
        return cls(shape, {(0,) * shape.nvars: value})

    @classmethod
    def var(cls, shape: Shape, block: str, axis: int = 0) -> "PolySymbol":
        e = [0] * shape.nvars
        e[shape.slot(block, axis)] = 1
        return cls(shape, {tuple(e): 1})

    @classmethod
    def monomial(cls, shape: Shape, exps: Sequence[int], coeff: ScalarLike = 1) -> "PolySymbol":
        return cls(shape, {tuple(exps): coeff})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        _check_same_shape(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return PolySymbol._of(self.shape, out)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self + (-other)

    def __neg__(self) -> "PolySymbol":
        return PolySymbol._of(self.shape, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PolySymbol):
            _check_same_shape(self, other)
            for a, b in ((self, other), (other, self)):
                if len(b.terms) == 1 and not any(next(iter(b.terms))):
                    return a.scaled(next(iter(b.terms.values())))
            out: dict[tuple, CRational] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    s = out.get(e)
                    if s is None:
                        out[e] = c
                    else:
                        s = s + c
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return PolySymbol._of(self.shape, out)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, scalar: ScalarLike) -> "PolySymbol":
        c0 = CRational.coerce(scalar)
        if not c0:
            return PolySymbol.zero(self.shape)
        unit = _UNITS.get((c0.re, c0.im))
        return PolySymbol._of(self.shape, {e: unit(c) if unit else c * c0
                                           for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "PolySymbol":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = PolySymbol.const(self.shape, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conjugate(self) -> "PolySymbol":
        """Complex conjugation of coefficients (all variables are real)."""
        return PolySymbol._of(self.shape, {e: c.conjugate() for e, c in self.terms.items()})

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
        """Every slot s differentiated orders[s] times, termwise."""
        out: dict[tuple, CRational] = {}
        for e, c in self.terms.items():
            if all(e[s] >= o for s, o in orders.items()):
                ne, factor = list(e), 1
                for s, o in orders.items():
                    ne[s], factor = e[s] - o, factor * perm(e[s], o)
                nc, ne = c * factor, tuple(ne)
                out[ne] = nc if (old := out.get(ne)) is None else old + nc
        return PolySymbol._of(self.shape, {e: c for e, c in out.items() if c})

    # -- degrees, parts, predicates -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _slots(self, blocks: tuple) -> list:
        """Exponent slots of the given blocks (default: the X blocks)."""
        return [self.shape.slot(b, k) for b in blocks or ("x", "xi")
                for k in range(1 if b == "hbar" else self.shape.d)]

    def degree(self, *blocks: str) -> int:
        """Total degree over the given blocks (default: the X blocks).

        The zero polynomial reports -1.
        """
        slots = self._slots(blocks)
        return max((sum(e[s] for s in slots) for e in self.terms), default=-1)

    def homogeneous_part(self, k: int, *blocks: str) -> "PolySymbol":
        """Terms whose total degree over the given blocks equals k."""
        slots = self._slots(blocks)
        return PolySymbol._of(self.shape, {e: c for e, c in self.terms.items()
                                           if sum(e[s] for s in slots) == k})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        raise TypeError("PolySymbol is not hashable")

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
        d = src.d
        moves = [(src.slot(b, k), dst.slot(b, k)) for b in ("x", "xi") for k in range(d)]
        if src.has_y:
            moves += [(src.slot(b, k), dst.slot(b, k)) for b in ("y", "eta") for k in range(d)]
        if src.has_hbar:
            moves.append((src.slot("hbar"), dst.slot("hbar")))
        n = dst.nvars
        out = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for s_slot, d_slot in moves:
                ne[d_slot] = e[s_slot]
            out[tuple(ne)] = c
        return PolySymbol._of(dst, out)

    def translated(self, shifts: Sequence["PolySymbol | None"]) -> "PolySymbol":
        """Compose with X -> X + shift, shifts affine in the target variables.

        ``shifts`` lists 2d entries (x_1..x_d then xi_1..xi_d); ``None``
        entries mean no shift.  Every shift must be a polynomial of degree
        at most 1 in all blocks; nonlinear shifts are rejected.  The result
        lives in the common target shape.

        Shifts are X-free, so each shift monomial c m is a binomial Taylor
        shift x_k^n -> sum_i C(n,i) x_k^(n-i) (c m)^i (von zur Gathen and
        Gerhard, ISSAC 1997) on Gaussian-integer numerators over one common
        denominator, times q^N for c = g/q and top exponent N of x_k: O(terms
        x N) integer products per shift monomial, one Fraction per output term.
        """
        d = self.shape.d
        if len(shifts) != 2 * d:
            raise ShapeError(f"expected {2 * d} shift entries, got {len(shifts)}")
        target = self.shape
        for s in shifts:
            if s is None:
                continue
            target = Shape(d, target.has_y or s.shape.has_y,
                          target.has_hbar or s.shape.has_hbar)
        xslots = [target.slot("x", k) for k in range(d)] + [target.slot("xi", k) for k in range(d)]
        moves = []
        for slot, s in zip(xslots, shifts):
            if s is None or s.is_zero:
                continue
            sp = s.promoted(target)
            # affine, X-free: at most one power of a (y, eta) variable per
            # term, no x/xi content; hbar powers are free (formal parameter)
            if any(e[sl] for e in sp.terms for sl in xslots):
                raise ValueError("translation shift must not depend on X")
            if target.has_y and sp.degree("y", "eta") > 1:
                raise ValueError("translation shift must be affine (degree <= 1)")
            moves += [(slot, m, c) for m, c in sp.terms.items()]
        base = self.promoted(target)
        den = lcm(*(q.denominator for c in base.terms.values() for q in (c.re, c.im)))
        acc = {e: (c.re.numerator * (den // c.re.denominator),
                   c.im.numerator * (den // c.im.denominator)) for e, c in base.terms.items()}
        for slot, m, c in moves:
            q = lcm(c.re.denominator, c.im.denominator)
            gr, gi = c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator)
            top = max((e[slot] for e in acc), default=0)
            w = [(q ** top, 0)]                 # w[i] = (gr + i gi)^i q^(top - i)
            for _ in range(top):
                wr, wi = w[-1]
                w.append(((wr * gr - wi * gi) // q, (wr * gi + wi * gr) // q))
            steps = [tuple(i * t for t in m[:slot] + (-1,) + m[slot + 1:]) for i in range(top + 1)]
            out: dict = {}
            for e, (re, im) in acc.items():
                for i in range(e[slot] + 1):
                    key = tuple(map(add, e, steps[i]))      # x_k^(n-i) (c m)^i
                    b, (wr, wi) = comb(e[slot], i), w[i]
                    r0, i0 = out.get(key, (0, 0))
                    out[key] = (r0 + b * (re * wr - im * wi), i0 + b * (re * wi + im * wr))
            acc = {e: v for e, v in out.items() if v[0] or v[1]}
            den *= q ** top
        return PolySymbol._of(target, {e: CRational(Fraction(re, den), Fraction(im, den))
                                       for e, (re, im) in acc.items()})

    def at_hbar(self, value: ScalarLike) -> "PolySymbol":
        """Collapse the formal hbar variable to an exact numeric value."""
        if not self.shape.has_hbar:
            return self
        slot = self.shape.slot("hbar")
        v = CRational.coerce(value)
        new_shape = Shape(self.shape.d, self.shape.has_y, False)
        powers = [ONE]                  # v^k once per call, ONE itself where it is 1
        for _ in range(self.degree("hbar")):
            powers.append(ONE if (p := powers[-1] * v) == ONE else p)
        out: dict[tuple, CRational] = {}
        for e, c in self.terms.items():
            ne = e[:slot] + e[slot + 1:]
            nc = c if (p := powers[e[slot]]) is ONE else c * p
            s = out.get(ne)
            out[ne] = nc if s is None else s + nc
        return PolySymbol._of(new_shape, {e: c for e, c in out.items() if c})

    def divided_by_hbar(self, k: int = 1) -> "PolySymbol":
        """Exact division by hbar^k; every term must carry hbar^k."""
        slot = self.shape.slot("hbar")
        out = {}
        for e, c in self.terms.items():
            if e[slot] < k:
                raise ValueError("polynomial not divisible by hbar^%d" % k)
            out[e[:slot] + (e[slot] - k,) + e[slot + 1:]] = c
        return PolySymbol._of(self.shape, out)

    def hbar_shifted(self, k: int) -> "PolySymbol":
        """Multiply by hbar^k (adding the hbar block if absent)."""
        target = Shape(self.shape.d, self.shape.has_y, True)
        p = self.promoted(target)
        slot = target.slot("hbar")
        return PolySymbol._of(target, {e[:slot] + (e[slot] + k,) + e[slot + 1:]: c
                                       for e, c in p.terms.items()})

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, X: "PhasePoint | Sequence" = None, Y: "PhasePoint | Sequence" = None,
                 hbar: ScalarLike | None = None) -> CRational:
        """Exact evaluation; values must be supplied for every active block."""
        shape = self.shape
        d = shape.d
        values: list[CRational] = [CRational(0)] * shape.nvars
        if X is None:
            raise ValueError("missing X values")
        xc = X.coords if isinstance(X, PhasePoint) else tuple(X)
        if len(xc) != 2 * d:
            raise ShapeError(f"X needs {2 * d} coordinates")
        for k in range(2 * d):
            values[k] = CRational.coerce(xc[k])
        if shape.has_y:
            if Y is None:
                raise ValueError("missing Y values for a symbol with a Y block")
            yc = Y.coords if isinstance(Y, PhasePoint) else tuple(Y)
            if len(yc) != 2 * d:
                raise ShapeError(f"Y needs {2 * d} coordinates")
            for k in range(2 * d):
                values[2 * d + k] = CRational.coerce(yc[k])
        if shape.has_hbar:
            if hbar is None:
                raise ValueError("missing hbar value for a symbol with an hbar block")
            values[shape.slot("hbar")] = CRational.coerce(hbar)
        total = CRational(0)
        for e, c in self.terms.items():
            acc = c
            for v, p in zip(values, e):
                if p:
                    acc = acc * v ** p
            total = total + acc
        return total

    # -- presentation ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, CRational]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        d = self.shape.d
        names = []
        for b in ("x", "xi") + (("y", "eta") if self.shape.has_y else ()):
            names += [b if d == 1 else f"{b}{k+1}" for k in range(d)]
        if self.shape.has_hbar:
            names.append("hbar")
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(n if p == 1 else f"{n}^{p}" for n, p in zip(names, e) if p)
            parts.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


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

    def __neg__(self) -> "PhasePoint":
        return PhasePoint(tuple(-c for c in self.coords))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhasePoint) and self.coords == other.coords

    def __repr__(self) -> str:
        return f"PhasePoint({self.coords})"


def symplectic_form(Y: PhasePoint, X: PhasePoint) -> Fraction:
    """sigma(Y, X) = eta.x - y.xi."""
    if Y.d != X.d:
        raise ShapeError("dimension mismatch in symplectic form")
    return sum((Y.xi[k] * X.x[k] - Y.x[k] * X.xi[k] for k in range(Y.d)), Fraction(0))


def linear_form(Y: PhasePoint, shape: Shape | None = None) -> PolySymbol:
    """L_Y as a polynomial in X for a numeric test point Y."""
    d = Y.d
    if shape is None:
        shape = Shape(d)
    if shape.d != d:
        raise ShapeError("dimension mismatch in linear form")
    p = PolySymbol.zero(shape)
    for k in range(d):
        p = p + PolySymbol.var(shape, "x", k).scaled(Y.xi[k]) \
              - PolySymbol.var(shape, "xi", k).scaled(Y.x[k])
    return p


def linear_form_symbolic(d: int, has_hbar: bool = False) -> PolySymbol:
    """L_Y(X) = eta.x - y.xi with Y kept as a symbolic block."""
    shape = Shape(d, True, has_hbar)
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
