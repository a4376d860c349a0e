"""The exact kernel `star._bidifferential` against its earlier form, kept verbatim.

`bidifferential_reference` builds every monomial pair's rows as tuples, one
list per axis, expands phases by Leibniz inside them, and keys its sums by
(order, exponent tuple).  The kernel first expands each factor that a phase
shifts into its shifted operand, then packs keys into ints, shares tables and
prefix rows within a call, and packs the last axis's orders into one int.  It
must return `==` dicts for every input, with and without phases.
"""

import itertools
import random
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from operator import add

import pytest
from hypothesis import given, strategies as st

from moyal_lab.crational import CRational
from moyal_lab.exprparse import MAX_COEFFICIENT_BITS
from moyal_lab.polysym import PolySymbol, Shape
from moyal_lab.star import _bidifferential

from test_properties import SIGN_PAIRS, polys, translations


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


def bidifferential_reference(A: PolySymbol, B: PolySymbol, orders, signs=(0, 0),
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


@st.composite
def kernel_calls(draw):
    """(A, B, orders, signs, bracket): d in {1, 2, 3}, Y and hbar tails, phases only with a Y block."""
    d = draw(st.integers(1, 3))
    shape = Shape(d, draw(st.booleans()), draw(st.booleans()))
    deg = (5, 4, 3)[d - 1]
    A, B = (draw(polys(shape, deg, extra=2)) for _ in range(2))
    signs = draw(st.sampled_from(SIGN_PAIRS)) if shape.has_y else (0, 0)
    top = min(A.degree(), B.degree()) + 1
    orders = draw(st.sampled_from([range(top + 1), range(1, top + 1)])
                  | st.integers(0, top).map(lambda j: (j,)))
    return A, B, orders, signs, draw(st.booleans())


def _assert_canonical(p):
    assert p == PolySymbol(p.shape, p.terms)
    assert all(type(c) is CRational and c and len(e) == p.shape.nvars for e, c in p.terms.items())


@given(kernel_calls())
def test_kernel_matches_reference(call):
    out = _bidifferential(*call)
    assert out == bidifferential_reference(*call)
    for p in out.values():
        _assert_canonical(p)


def test_kernel_digits_at_the_packing_bound():
    # degree-40 monomials with hbar tails: the digits are 8 bits wide (104 + 104 + 40 = 248
    # < 256), the widest output digit, hbar^128, needs the top bit, and it carries into
    # the order digit if the width were one bit short
    shape = Shape(1, False, True)
    A = PolySymbol(shape, {(40, 0, 64): Fraction(1, 3), (0, 40, 64): 1, (39, 1, 0): -2})
    B = PolySymbol(shape, {(40, 0, 64): 1, (1, 39, 64): Fraction(-5, 2), (0, 40, 0): 7})
    for call in ((A, B, range(41)), (A, B, range(1, 41), (0, 0), True), (B, A, (40,)),
                 (A, B, (1, 39), (0, 0), True), (B, A, range(20, 41, 3), (0, 0), True)):
        assert _bidifferential(*call) == bidifferential_reference(*call)
    assert max(e[2] for p in _bidifferential(A, B, range(41)).values() for e in p.terms) == 128


# numerators with mixed signs make the packed slot sums large and negative, and a constant
# times the dominant term fills a digit to within one bit of its width, also with numerators
# of about MAX_COEFFICIENT_BITS bits
BIG = 2 ** (MAX_COEFFICIENT_BITS - 8)


@pytest.mark.parametrize("big", [2 ** 300, BIG], ids=["300-bit", "cap-bit"])
def test_kernel_digits_with_large_mixed_sign_coefficients(big):
    shape = Shape(1)
    A = PolySymbol(shape, {(3, 2): Fraction(-big + 1, 7), (1, 4): big - 3, (0, 1): -big // 5,
                           (2, 0): Fraction(5, 3)})
    B = PolySymbol(shape, {(2, 3): -big - 1, (4, 1): Fraction(big + 7, 3), (1, 0): -2})
    c = PolySymbol.const(shape, Fraction(-big + 9, 11))
    for call in ((A, B, range(6)), (B, A, range(6)), (A, B, range(1, 6), (0, 0), True),
                 (A, A, range(1, 6), (0, 0), True), (c, B, (0,)), (B, c, (0,)), (c, A, range(3))):
        assert _bidifferential(*call) == bidifferential_reference(*call)


@pytest.mark.parametrize("big", [2 ** 300, BIG], ids=["300-bit", "cap-bit"])
def test_kernel_digits_with_mixed_signs_in_d_3(big):
    shape = Shape(3, False, True)
    A = PolySymbol(shape, {(1, 0, 2, 2, 1, 0, 3): -big + 5, (0, 2, 1, 1, 0, 2, 0): big // 3,
                           (2, 1, 0, 0, 1, 1, 1): Fraction(-7, 2 * big + 1)})
    B = PolySymbol(shape, {(0, 1, 2, 1, 2, 0, 0): -big - 9, (2, 0, 1, 0, 1, 2, 2): -(big // 7)})
    for call in ((A, B, range(5)), (A, B, range(1, 5), (0, 0), True), (B, A, (2, 3), (0, 0), True)):
        assert _bidifferential(*call) == bidifferential_reference(*call)


def test_kernel_bracket_on_single_orders_and_subsets():
    # the packed series carries every order; unpacking keeps only the requested ones
    shape = Shape(2, True, True)
    A = PolySymbol(shape, {(3, 1, 0, 2, 1, 0, 0, 0, 1): Fraction(-3, 4), (0, 2, 2, 0, 0, 1, 0, 0, 0): 5,
                           (1, 1, 1, 1, 0, 0, 1, 1, 2): CRational(1, -2)})
    B = PolySymbol(shape, {(2, 2, 1, 0, 0, 0, 0, 1, 0): -1, (1, 0, 0, 3, 1, 1, 0, 0, 1): Fraction(7, 3),
                           (0, 3, 2, 1, 0, 0, 0, 0, 0): CRational(0, 2)})
    for orders in [(j,) for j in range(6)] + [(1, 3), (2, 4), (0, 5), range(2, 5)]:
        for call in ((A, B, orders, (0, 0), True), (B, A, orders, (0, 0), True), (A, B, orders)):
            assert _bidifferential(*call) == bidifferential_reference(*call)


@given(translations(), st.sampled_from([0, 1, -1, Fraction(1, 2), CRational(0, 1)]))
def test_shift_outputs_are_canonical(case, value):
    p, shifts = case
    moved = p.translated(shifts)
    for q in (moved, moved.at_hbar(value), moved.hbar_shifted(2), moved.homogeneous_part(1),
              moved.hbar_shifted(1).divided_by_hbar(1), p.partial_multi(x=(1,), xi=(0, 1)[:p.shape.d])):
        _assert_canonical(q)


def test_at_hbar_drops_cancelled_terms():
    shape = Shape(1, False, True)
    p = PolySymbol(shape, {(1, 0, 1): 1, (1, 0, 0): -1, (0, 1, 2): 3})
    assert p.at_hbar(1) == PolySymbol(Shape(1), {(0, 1): 3})
    _assert_canonical(p.at_hbar(1))


def _mono(d, x=(), xi=(), y=(), eta=(), hbar=0):
    """The exponents of a monomial of Shape(d, True, True), each block padded with zeros."""
    return sum((tuple(b) + (0,) * (d - len(b)) for b in (x, xi, y, eta)), ()) + (hbar,)


PHASE_SIGNS = [(-1, 0), (0, 1), (1, -1)]
GAPPED_ORDERS = [(3,), (2, 4), range(1, 6, 2)]


@pytest.mark.parametrize("big", [2 ** 300, BIG], ids=["300-bit", "cap-bit"])
@pytest.mark.parametrize("d", [1, 3])
def test_kernel_phases_with_large_mixed_sign_coefficients(d, big):
    # phases shift the operands before the packed pair loop: the digit width must cover the
    # shifted operands' numerators, whose binomials C(x, i) C(xi, l - i) exceed the unshifted
    # ones, and a constant factor against one monomial puts all of |A| |B| into one digit
    shape, a, b = Shape(d, True, True), (3, 1, 0)[:d], (2, 0, 1)[:d]
    A = PolySymbol(shape, {_mono(d, x=a, xi=b, eta=(1,)): Fraction(-big + 1, 7),
                           _mono(d, x=(1,), xi=(0, 1, 2)[-d:], y=(1,), hbar=2): big - 3,
                           _mono(d, xi=(1,), hbar=1): -big // 5, _mono(d, x=(2,)): Fraction(5, 3)})
    B = PolySymbol(shape, {_mono(d, x=b, xi=a[::-1], y=(1,)): -big - 1,
                           _mono(d, x=(2,), xi=(0, 1)[:d], hbar=1): Fraction(big + 7, 3),
                           _mono(d, x=(1,), eta=(2,)): -2})
    c = PolySymbol.const(shape, Fraction(-big + 9, 11))
    m = PolySymbol(shape, {_mono(d, x=(2, 0, 1)[:d], xi=(2, 1)[:d]): big - 5})
    for signs in PHASE_SIGNS:
        for orders in GAPPED_ORDERS:
            for bracket in (False, True):
                for P, Q in ((A, B), (B, A), (c, m), (m, c)):
                    call = (P, Q, orders, signs, bracket)
                    assert _bidifferential(*call) == bidifferential_reference(*call), call[2:]


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_unit_test_symbol_against_H(d):
    # the certificate route: T_Y = e^{-i L_Y} with unit prefactor against a plain H
    full, rng = Shape(d, True, True), random.Random(d)
    exps = [e for e in itertools.product(range(4), repeat=2 * d) if 0 < sum(e) <= 5]
    H = PolySymbol(Shape(d), {e: Fraction(rng.choice([-5, -3, 2, 7]), rng.randint(1, 4))
                              for e in rng.sample(exps, 25)}).promoted(full)
    T = PolySymbol.const(full, 1)
    for orders in [(j,) for j in range(1, 6)] + [range(1, 6, 2), (2, 4)]:
        for call in ((T, H, orders, (-1, 0), True), (T, H, orders, (-1, 0)), (H, T, orders, (0, -1)),
                     (H, T, orders, (0, 1), True)):
            assert _bidifferential(*call) == bidifferential_reference(*call), call[2:]
