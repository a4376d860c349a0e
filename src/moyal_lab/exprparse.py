"""Symbol expressions for the command line.

Grammar (recursive descent, ^ binds tighter than *, which binds tighter
than + and -; all binary operators left-associative; no implicit
multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := atom ('^' INT)*
    atom    := INT ('/' INT)?            rational literal
             | VAR                       x, xi, y, eta, hbar (d = 1)
             |                           x1..xd, xi1..xid, y1.., eta1.. (d > 1)
             | 'gauss' '(' rational ')'  envelope exp(-a |X|^2), a > 0
             | '(' expr ')'

The slash appears only inside rational literals; there is no division
operator.  Exponents are non-negative integer literals.  Expressions lower
either to exact `PolySymbol`s (no gauss factors allowed) or to numeric
`SymbolEvaluator`s (d = 1, at most one gauss factor per product term, one
atom per distinct gauss rate).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .crational import CRational
from .polysym import PolySymbol, Shape


class ExprError(ValueError):
    """Lexical/syntax/lowering error with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Node:
    span: tuple


@dataclass(frozen=True)
class Lit(Node):
    value: Fraction


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Gauss(Node):
    rate: Fraction


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")

_VAR = re.compile(r"^(x|xi|y|eta)([1-9][0-9]*)?$|^hbar$")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}, found {val or 'end of input'!r}", pos)
        return pos

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                right = self.term()
                cls = Add if val == "+" else Sub
                node = cls((node.span[0], right.span[1]), node, right)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                right = self.factor()
                node = Mul((node.span[0], right.span[1]), node, right)
            else:
                return node

    def factor(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            arg = self.factor()
            return Neg((pos, arg.span[1]), arg)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                ekind, eval_, epos = self.next()
                if ekind != "int":
                    raise ExprError("exponent must be a non-negative integer", epos)
                node = Pow((node.span[0], epos + len(eval_)), node, int(eval_))
            else:
                return node

    def rational(self) -> tuple[Fraction, tuple]:
        neg = False
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            neg = True
        kind, val, pos = self.next()
        if kind != "int":
            raise ExprError("expected an integer", pos)
        start = pos
        num = int(val)
        den = 1
        kind, val2, pos2 = self.peek()
        end = pos + len(val)
        if kind == "op" and val2 == "/":
            self.next()
            dkind, dval, dpos = self.next()
            if dkind != "int":
                raise ExprError("expected a denominator integer", dpos)
            den = int(dval)
            if den == 0:
                raise ExprError("zero denominator", dpos)
            end = dpos + len(dval)
        value = Fraction(-num if neg else num, den)
        return value, (start, end)

    def atom(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "int":
            value, span = self.rational()
            return Lit(span, value)
        if kind == "name":
            self.next()
            if val == "gauss":
                self.expect_op("(")
                rate, _ = self.rational()
                endpos = self.expect_op(")")
                if rate <= 0:
                    raise ExprError("gauss rate must be positive", pos)
                return Gauss((pos, endpos + 1), rate)
            if not _VAR.match(val):
                raise ExprError(f"unknown variable {val!r}", pos)
            return Var((pos, pos + len(val)), val)
        if kind == "op" and val == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"expected a value, found {val or 'end of input'!r}", pos)


def parse_symbol(text: str) -> Node:
    """Parse an expression into its AST (raises ExprError with position)."""
    return _Parser(text).parse()


def pretty(node: Node) -> str:
    """Canonical rendering; parse(pretty(parse(s))) is a fixed point."""

    def wrap(n, level):
        s = pretty(n)
        return f"({s})" if {Add: 1, Sub: 1, Mul: 2, Neg: 3, Pow: 4}.get(type(n), 5) < level else s

    if isinstance(node, Lit):
        v = node.value
        if v < 0:
            return f"-{-v.numerator}" if v.denominator == 1 else f"-{-v.numerator}/{v.denominator}"
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Gauss):
        r = node.rate
        inner = str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
        return f"gauss({inner})"
    if isinstance(node, Neg):
        return "-" + wrap(node.arg, 3)
    if isinstance(node, Add):
        return f"{wrap(node.left, 1)} + {wrap(node.right, 2)}"
    if isinstance(node, Sub):
        return f"{wrap(node.left, 1)} - {wrap(node.right, 2)}"
    if isinstance(node, Mul):
        return f"{wrap(node.left, 2)}*{wrap(node.right, 3)}"
    if isinstance(node, Pow):
        return f"{wrap(node.base, 5)}^{node.exponent}"
    raise TypeError(f"unknown node {node!r}")


def _var_target(name: str, d: int) -> tuple[str, int]:
    if name == "hbar":
        return "hbar", 0
    m = _VAR.match(name)
    block = m.group(1)
    axis = int(m.group(2)) - 1 if m.group(2) else 0
    if d == 1 and m.group(2):
        raise ExprError(f"indexed variable {name!r} in dimension 1", 0)
    if axis >= d:
        raise ExprError(f"variable {name!r} exceeds dimension {d}", 0)
    return block, axis


# resource limits of the exact engine, checked before any power expands
MAX_EXACT_DEGREE = 64
MAX_COEFFICIENT_BITS = 4096     # numerator or denominator of one coefficient
MAX_EXACT_PAIRS = 10 ** 6       # term pairs of one exact product or bracket
MAX_EXACT_PAIR_ROWS = 2 * 10 ** 6   # lowered term pairs x series orders; see README
MAX_EXACT_DIMENSION = 64        # phase-space dimension d: every term carries 2d exponents
MAX_SHIFTED_TERMS = 10 ** 5       # shifted terms x kernel calls of one gvh or mpc run; see README


def check_dimension(d: int) -> None:
    """Refuse an exact symbol in fewer than 1 or more than MAX_EXACT_DIMENSION dimensions."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_EXACT_DIMENSION:
        raise ValueError(f"dimension {d} exceeds the exact engine's cap of {MAX_EXACT_DIMENSION}")


def degree_bound(n: Node) -> int:
    """An upper bound on the total degree of `n`, read off the AST: a sum takes
    the larger degree, a product adds, a power multiplies."""
    return size_bound(n, 1)[0]


def size_bound(n: Node, nvars: int) -> tuple[int, int, int, int]:
    """Bounds (degree, terms, numerator bits, denominator bits) of `n` lowered in `nvars`
    variables.  Terms: a sum adds, a product multiplies, a power t^k, each capped by the
    monomials of degree <= the degree bound.  Bits over one denominator: n1/d1 + n2/d2
    needs max(n1 + d2, n2 + d1) + 1 and d1 + d2, a product n1 + n2 + ceil(log2 of the
    smaller term count) and d1 + d2, a power k times its base's (at least once)."""
    if isinstance(n, Neg):
        return size_bound(n.arg, nvars)
    if isinstance(n, Lit):
        return 0, 1, abs(n.value.numerator).bit_length(), n.value.denominator.bit_length()
    if not isinstance(n, (Add, Sub, Mul, Pow)):
        return int(isinstance(n, Var)), 1, 1, 1
    if isinstance(n, Pow):
        deg, t, nb, db = size_bound(n.base, nvars)
        deg, k = deg * n.exponent, max(n.exponent, 1)
        monomials = comb(deg + nvars, nvars)
        # t^k is formed only while it can be the smaller (t >= 2 makes t^k >= 2^k)
        terms = monomials if t > 1 and n.exponent >= monomials.bit_length() else t ** n.exponent
        return deg, min(terms, monomials), k * nb + (k - 1) * (t - 1).bit_length(), k * db
    (g1, t1, n1, d1), (g2, t2, n2, d2) = size_bound(n.left, nvars), size_bound(n.right, nvars)
    if isinstance(n, Mul):
        deg, terms, nb = g1 + g2, t1 * t2, n1 + n2 + (min(t1, t2) - 1).bit_length()
    else:
        deg, terms, nb = max(g1, g2), t1 + t2, max(n1 + d2, n2 + d1) + 1
    return deg, min(terms, comb(deg + nvars, nvars)), nb, d1 + d2


def exact_terms_bound(node: Node, nvars: int) -> int:
    """The term bound of `node`, once its degree and coefficient bits are within their caps."""
    degree, terms, *bits = size_bound(node, nvars)
    if degree > MAX_EXACT_DEGREE:
        raise ExprError(f"degree bound {degree} exceeds the exact engine's cap of {MAX_EXACT_DEGREE}",
                        node.span[0])
    if max(bits) > MAX_COEFFICIENT_BITS:
        raise ExprError(f"coefficient bound of {max(bits)} bits exceeds the exact engine's cap "
                        f"of {MAX_COEFFICIENT_BITS} bits", node.span[0])
    return terms


def check_exact_pair(a: Node, b: Node, d: int) -> None:
    """Refuse an exact product or bracket of `a` and `b` (dimension d) before lowering either."""
    check_dimension(d)
    pairs = exact_terms_bound(a, 2 * d) * exact_terms_bound(b, 2 * d)
    if pairs > MAX_EXACT_PAIRS:
        raise ValueError(f"term-pair estimate {pairs} exceeds the exact engine's cap of {MAX_EXACT_PAIRS}")


def check_exact_rows(A: PolySymbol, B: PolySymbol) -> None:
    """Refuse the lowered operands of an exact product or bracket when their term pairs,
    times the min(deg A, deg B) + 1 orders each pair can reach, exceed the cap."""
    rows = len(A.num) * len(B.num) * (min(A.degree(), B.degree()) + 1)
    if rows > MAX_EXACT_PAIR_ROWS:
        raise ValueError(f"pair-row estimate {rows} exceeds the exact engine's cap of {MAX_EXACT_PAIR_ROWS}")


def check_shifted_terms(H: PolySymbol, calls: int = 1) -> None:
    """Refuse a one-operand run (gvh, mpc) when its shifted terms, the sum over the terms of H of
    prod_k (a_k + 1)(b_k + 1), times its kernel calls exceed the cap: a Taylor shift of H, and
    the kernel's shifted operand, hold up to that many terms."""
    d = H.shape.d
    work = calls * sum(prod((e[k] + 1) * (e[d + k] + 1) for k in range(d)) for e in H.num)
    if work > MAX_SHIFTED_TERMS:
        raise ValueError(f"shifted-term estimate {work} exceeds the exact engine's cap of "
                         f"{MAX_SHIFTED_TERMS}")


def lower_poly(node: Node, d: int = 1, allow_y: bool = False,
               allow_hbar: bool = False) -> PolySymbol:
    """Lower to an exact PolySymbol; gauss factors are rejected here, and so are
    degree and coefficient-size bounds above their caps."""
    check_dimension(d)
    shape = Shape(d, allow_y, allow_hbar)
    exact_terms_bound(node, shape.nvars)

    def go(n):
        if isinstance(n, Lit):
            return PolySymbol.const(shape, CRational(n.value))
        if isinstance(n, Var):
            block, axis = _var_target(n.name, d)
            if block in ("y", "eta") and not allow_y:
                raise ExprError(f"test-point variable {n.name!r} not allowed here", n.span[0])
            if block == "hbar":
                if not allow_hbar:
                    raise ExprError("hbar not allowed here", n.span[0])
                return PolySymbol.var(shape, "hbar")
            return PolySymbol.var(shape, block, axis)
        if isinstance(n, Gauss):
            raise ExprError("gauss envelope requires a numeric context", n.span[0])
        if isinstance(n, Neg):
            return -go(n.arg)
        if isinstance(n, Add):
            return go(n.left) + go(n.right)
        if isinstance(n, Sub):
            return go(n.left) - go(n.right)
        if isinstance(n, Mul):
            return go(n.left) * go(n.right)
        if isinstance(n, Pow):
            return go(n.base) ** n.exponent
        raise TypeError(f"unknown node {n!r}")

    return go(node)


def lower_evaluator(node: Node):
    """Lower to a numeric SymbolEvaluator (d = 1, one gauss per product term).

    The expression lowers exactly to {gauss rate or None: PolySymbol}, so
    like terms merge and the evaluator has one atom per distinct rate.
    Degree and coefficient-size bounds above the exact caps are refused
    before any power expands.
    """
    from .evaluators import SymbolEvaluator

    shape = Shape(1)
    exact_terms_bound(node, shape.nvars)

    def plus(f, g):
        out = dict(f)
        for r, p in g.items():
            out[r] = out[r] + p if r in out else p
        return out

    def times(f, g, pos):
        out = {}
        for r1, p1 in f.items():
            for r2, p2 in g.items():
                if r1 is not None and r2 is not None:
                    raise ExprError("at most one gauss factor per product term", pos)
                out = plus(out, {r1 if r1 is not None else r2: p1 * p2})
        return out

    def go(n):
        if isinstance(n, Lit):
            return {None: PolySymbol.const(shape, CRational(n.value))}
        if isinstance(n, Var):
            block, axis = _var_target(n.name, 1)
            if block in ("y", "eta", "hbar"):
                raise ExprError(f"variable {n.name!r} not allowed in a grid symbol", n.span[0])
            return {None: PolySymbol.var(shape, block, axis)}
        if isinstance(n, Gauss):
            return {n.rate: PolySymbol.const(shape, 1)}
        if isinstance(n, Neg):
            return {r: -p for r, p in go(n.arg).items()}
        if isinstance(n, Add):
            return plus(go(n.left), go(n.right))
        if isinstance(n, Sub):
            return plus(go(n.left), {r: -p for r, p in go(n.right).items()})
        if isinstance(n, Mul):
            return times(go(n.left), go(n.right), n.span[0])
        if isinstance(n, Pow):
            base = go(n.base)
            out = {None: PolySymbol.const(shape, 1)}
            for _ in range(n.exponent):
                out = times(out, base, n.span[0])
            return out
        raise TypeError(f"unknown node {n!r}")

    ev = SymbolEvaluator.zero()
    for rate, poly in go(node).items():
        piece = SymbolEvaluator.from_polysymbol(poly)
        if rate is not None:
            piece = piece * SymbolEvaluator.gauss(float(rate))
        ev = ev + piece
    return ev
