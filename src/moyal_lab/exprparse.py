"""Symbol expressions for the command line.

Grammar (recursive descent; ^ binds tighter than *, which binds tighter
than + and -; no implicit multiplication):

    expr    := factor (BINOP factor)*    BINOP: '+' '-' (level 1), '*' (level 2)
    factor  := '-' factor | power
    power   := atom ('^' INT)*
    atom    := INT ('/' INT)?            rational literal
             | VAR                       x, xi, y, eta, hbar (d = 1)
             |                           x1..xd, xi1..xid, y1.., eta1.. (d > 1)
             | 'gauss' '(' rational ')'  envelope exp(-a |X|^2), a > 0
             | '(' expr ')'

The slash appears only inside rational literals; there is no division
operator.  Exponents are non-negative integer literals.  Every binary
operator is one node, `Bin(op, left, right)`, built by one precedence
loop: the right operand of a level-k operator takes only operators above
level k, so all are left-associative.

One walk lowers an expression exactly to {gauss rate or None: PolySymbol},
once its size bounds are within the exact caps.  `lower_poly` refuses every
gauss factor and returns the one exact `PolySymbol`; `lower_evaluator`
(d = 1, at most one gauss factor per product term) turns each rate into
one atom of a numeric `SymbolEvaluator`.  A power takes one exact product
per unit of its exponent, not repeated squaring: multiplying the partial
power by its base, which has few terms, costs less than squaring a dense
partial power, and `gauss(a)^k` meets the same one-gauss-per-term check as
any product.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import comb, prod

from .crational import CRational
from .polysym import PolySymbol, Shape


class ExprError(ValueError):
    """Lexical/syntax/lowering error with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Node:
    """Base of the AST nodes: immutable named tuples whose first field is the source span."""

    __slots__ = ()


class Lit(namedtuple("Lit", "span value"), Node):
    __slots__ = ()


class Var(namedtuple("Var", "span name"), Node):
    __slots__ = ()


class Gauss(namedtuple("Gauss", "span rate"), Node):
    __slots__ = ()


class Neg(namedtuple("Neg", "span arg"), Node):
    __slots__ = ()


class Bin(namedtuple("Bin", "span op left right"), Node):     # op: '+', '-' or '*'
    __slots__ = ()


class Pow(namedtuple("Pow", "span base exponent"), Node):
    __slots__ = ()


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")

_LEVEL = {"+": 1, "-": 1, "*": 2}       # binding strength of each binary operator

_VAR = re.compile(r"^(x|xi|y|eta)([1-9][0-9]*)?$|^hbar$")


def _tokenize(text: str):
    tokens, pos, stop = [], 0, len(text.rstrip())
    while pos < stop:
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        k = m.lastindex     # the one group that matched: 1 int, 2 name, 3 operator
        tokens.append((("int", "name", "op")[k - 1], m.group(k), m.start(k)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def take(self, op: str) -> bool:
        """Consume the next token if it is the operator `op`."""
        if self.peek()[:2] == ("op", op):
            self.i += 1
            return True
        return False

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}, found {val or 'end of input'!r}", pos)
        return pos

    def parse(self) -> Node:
        node = self.binary()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input {val!r}", pos)
        return node

    def binary(self, level: int = 1) -> Node:
        """Binary operators of `level` and above, left-associative: the right operand of
        an operator takes only the operators that bind tighter than it."""
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            op_level = _LEVEL.get(val, 0) if kind == "op" else 0
            if op_level < level:
                return node
            self.next()
            right = self.binary(op_level + 1)
            node = Bin((node.span[0], right.span[1]), val, node, right)

    def factor(self) -> Node:
        pos = self.peek()[2]
        if self.take("-"):
            arg = self.factor()
            return Neg((pos, arg.span[1]), arg)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.take("^"):
            kind, val, pos = self.next()
            if kind != "int":
                raise ExprError("exponent must be a non-negative integer", pos)
            node = Pow((node.span[0], pos + len(val)), node, int(val))
        return node

    def rational(self) -> tuple[Fraction, tuple]:
        neg = self.take("-")
        kind, val, start = self.next()
        if kind != "int":
            raise ExprError("expected an integer", start)
        num, den, end = int(val), 1, start + len(val)
        if self.take("/"):
            kind, val, pos = self.next()
            if kind != "int":
                raise ExprError("expected a denominator integer", pos)
            den, end = int(val), pos + len(val)
            if den == 0:
                raise ExprError("zero denominator", pos)
        return Fraction(-num if neg else num, den), (start, end)

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
        if self.take("("):
            node = self.binary()
            self.expect_op(")")
            return node
        raise ExprError(f"expected a value, found {val or 'end of input'!r}", pos)


def parse_symbol(text: str) -> Node:
    """Parse an expression into its AST (raises ExprError with position)."""
    return _Parser(text).parse()


def pretty(node: Node) -> str:
    """Canonical rendering; parse(pretty(parse(s))) is a fixed point."""

    def wrap(n, level):
        own = _LEVEL[n.op] if isinstance(n, Bin) else {Neg: 3, Pow: 4}.get(type(n), 5)
        return f"({pretty(n)})" if own < level else pretty(n)

    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Gauss):
        return f"gauss({node.rate})"
    if isinstance(node, Neg):
        return "-" + wrap(node.arg, 3)
    if isinstance(node, Bin):
        level = _LEVEL[node.op]
        sep = "*" if node.op == "*" else f" {node.op} "
        return f"{wrap(node.left, level)}{sep}{wrap(node.right, level + 1)}"
    if isinstance(node, Pow):
        return f"{wrap(node.base, 5)}^{node.exponent}"
    raise TypeError(f"unknown node {node!r}")


def _var_target(n: Var, d: int) -> tuple[str, int]:
    if n.name == "hbar":
        return "hbar", 0
    block, index = _VAR.match(n.name).groups()
    if d == 1 and index:
        raise ExprError(f"indexed variable {n.name!r} in dimension 1", n.span[0])
    axis = int(index) - 1 if index else 0
    if axis >= d:
        raise ExprError(f"variable {n.name!r} exceeds dimension {d}", n.span[0])
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
    if not isinstance(n, (Bin, Pow)):
        return int(isinstance(n, Var)), 1, 1, 1
    if isinstance(n, Pow):
        deg, t, nb, db = size_bound(n.base, nvars)
        deg, k = deg * n.exponent, max(n.exponent, 1)
        monomials = comb(deg + nvars, nvars)
        # t^k is formed only while it can be the smaller (t >= 2 makes t^k >= 2^k)
        terms = monomials if t > 1 and n.exponent >= monomials.bit_length() else t ** n.exponent
        return deg, min(terms, monomials), k * nb + (k - 1) * (t - 1).bit_length(), k * db
    (g1, t1, n1, d1), (g2, t2, n2, d2) = size_bound(n.left, nvars), size_bound(n.right, nvars)
    if n.op == "*":
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


def _lower(node: Node, shape: Shape, leaf) -> dict:
    """`node` lowered exactly to {gauss rate or None: PolySymbol} (see the module docstring);
    `leaf` lowers its Var and Gauss nodes by the rules of the caller's context."""
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
        if isinstance(n, (Var, Gauss)):
            return leaf(n)
        if isinstance(n, Neg):
            return {r: -p for r, p in go(n.arg).items()}
        if isinstance(n, Pow):
            base, out = go(n.base), {None: PolySymbol.const(shape, 1)}
            for _ in range(n.exponent):
                out = times(out, base, n.span[0])
            return out
        if isinstance(n, Bin):
            f, g = go(n.left), go(n.right)
            if n.op == "*":
                return times(f, g, n.span[0])
            return plus(f, g if n.op == "+" else {r: -p for r, p in g.items()})
        raise TypeError(f"unknown node {n!r}")

    return go(node)


def lower_poly(node: Node, d: int = 1, allow_y: bool = False,
               allow_hbar: bool = False) -> PolySymbol:
    """Lower to an exact PolySymbol; gauss factors are rejected here, and so are
    degree and coefficient-size bounds above their caps."""
    check_dimension(d)
    shape = Shape(d, allow_y, allow_hbar)

    def leaf(n):
        if isinstance(n, Gauss):
            raise ExprError("gauss envelope requires a numeric context", n.span[0])
        block, axis = _var_target(n, d)
        if block in ("y", "eta") and not allow_y:
            raise ExprError(f"test-point variable {n.name!r} not allowed here", n.span[0])
        if block == "hbar" and not allow_hbar:
            raise ExprError("hbar not allowed here", n.span[0])
        return {None: PolySymbol.var(shape, block, axis)}

    return _lower(node, shape, leaf)[None]


def lower_evaluator(node: Node):
    """Lower to a numeric SymbolEvaluator (d = 1, one gauss per product term).

    The expression lowers exactly to {gauss rate or None: PolySymbol}, so
    like terms merge and the evaluator has one atom per distinct rate.
    Degree and coefficient-size bounds above the exact caps are refused
    before any power expands.
    """
    from .evaluators import SymbolEvaluator

    shape = Shape(1)

    def leaf(n):
        if isinstance(n, Gauss):
            return {n.rate: PolySymbol.const(shape, 1)}
        block, axis = _var_target(n, 1)
        if block in ("y", "eta", "hbar"):
            raise ExprError(f"variable {n.name!r} not allowed in a grid symbol", n.span[0])
        return {None: PolySymbol.var(shape, block, axis)}

    ev = SymbolEvaluator.zero()
    for rate, poly in _lower(node, shape, leaf).items():
        piece = SymbolEvaluator.from_polysymbol(poly)
        if rate is not None:
            piece = piece * SymbolEvaluator.gauss(float(rate))
        ev = ev + piece
    return ev
