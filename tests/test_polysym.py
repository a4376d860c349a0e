import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, strategies as st

from moyal_lab.crational import CRational, I
from moyal_lab.polysym import (PhasePoint, PolySymbol, Shape, ShapeError,
                               linear_form, linear_form_symbolic,
                               poisson_bracket, symplectic_form)

from brute_oracle import p_add, p_mul, p_partial, p_scale
from test_properties import complex_rationals, polys


def vars1():
    s = Shape(1)
    return PolySymbol.var(s, "x"), PolySymbol.var(s, "xi")


def rand_poly(rng, shape, deg, nterms=5):
    """Random sparse polynomial with rational coefficients."""
    p = PolySymbol.zero(shape)
    d = shape.d
    for _ in range(nterms):
        exps = [0] * shape.nvars
        budget = rng.randint(0, deg)
        for _ in range(budget):
            exps[rng.randrange(2 * d)] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + PolySymbol.monomial(shape, tuple(exps), c)
    return p


# ---------------------------------------------------------------- ring ops

def test_ring_identities():
    x, xi = vars1()
    assert (x + xi) * (x - xi) == x ** 2 - xi ** 2
    p = x ** 3 + xi * x
    assert (p + (-p)).is_zero
    assert (x * I).conjugate() == x * (-I)


def test_shape_mismatch_rejected():
    x, _ = vars1()
    s2 = Shape(2)
    with pytest.raises(ShapeError):
        x + PolySymbol.var(s2, "x", 0)
    with pytest.raises(ShapeError):
        x * PolySymbol.var(Shape(1, has_y=True), "x", 0)


def test_no_zero_terms_stored():
    x, xi = vars1()
    p = x * xi - x * xi
    assert p.terms == {}
    q = PolySymbol(Shape(1), {(1, 0): 0, (0, 1): 2})
    assert list(q.terms.values()) == [CRational(2)]


# ---------------------------------------------------------------- calculus

def test_partial_power_rule():
    x, xi = vars1()
    assert (x ** 3).partial("x") == (x ** 2).scaled(3)
    assert (x ** 2).partial("xi").is_zero
    assert (x * xi).partial("x").partial("xi") == PolySymbol.const(Shape(1), 1)


def test_partial_multi_matches_iterated():
    rng = random.Random(3)
    s = Shape(2)
    for _ in range(20):
        p = rand_poly(rng, s, 5)
        q1 = p.partial_multi(x=(2, 1), xi=(0, 1))
        q2 = p.partial("x", 0).partial("x", 0).partial("x", 1).partial("xi", 1)
        assert q1 == q2


# ---------------------------------------------------------------- evaluation

def test_evaluate():
    x, xi = vars1()
    p = x ** 2 + xi ** 2
    assert p.evaluate(PhasePoint((1, 2))) == CRational(5)
    assert PolySymbol.const(Shape(1), Fraction(7, 3)).evaluate(PhasePoint((0, 0))) \
        == CRational(Fraction(7, 3))


def test_evaluate_linear_form_at_point():
    # L_Y(X) = eta x - y xi at Y=(1,0), X=(3,7) -> -7... with eta=0, y=1: -xi = -7
    L = linear_form(PhasePoint((1, 0)))
    assert L.evaluate(PhasePoint((3, 7))) == CRational(-7)
    # and at Y=(0,1): L = x
    L2 = linear_form(PhasePoint((0, 1)))
    assert L2.evaluate(PhasePoint((3, 7))) == CRational(3)


def test_evaluate_missing_block_values():
    s = Shape(1, has_y=True)
    p = PolySymbol.var(s, "y")
    with pytest.raises(ValueError):
        p.evaluate(PhasePoint((1, 1)))


# ---------------------------------------------------------------- translation

def test_translate_binomial():
    s = Shape(1)
    x = PolySymbol.var(s, "x")
    sy = Shape(1, has_y=True)
    y = PolySymbol.var(sy, "y")
    eta = PolySymbol.var(sy, "eta")
    shifted = (x ** 3).translated([y, eta])
    xp = PolySymbol.var(sy, "x")
    assert shifted == xp ** 3 + (xp ** 2 * y).scaled(3) + (xp * y ** 2).scaled(3) + y ** 3


def test_translate_by_half_hbar_y():
    s = Shape(1)
    x = PolySymbol.var(s, "x")
    target = Shape(1, True, True)
    yh = PolySymbol.var(target, "y").hbar_shifted(1).scaled(Fraction(1, 2))
    etah = PolySymbol.var(target, "eta").hbar_shifted(1).scaled(Fraction(1, 2))
    shifted = (x ** 2).translated([yh, etah])
    xp = PolySymbol.var(target, "x")
    y = PolySymbol.var(target, "y")
    expected = xp ** 2 + (xp * y).hbar_shifted(1) + (y ** 2).hbar_shifted(2).scaled(Fraction(1, 4))
    assert shifted == expected


def test_translate_roundtrip_and_identity():
    rng = random.Random(5)
    sy = Shape(1, has_y=True)
    y = PolySymbol.var(sy, "y")
    eta = PolySymbol.var(sy, "eta")
    for _ in range(10):
        p = rand_poly(rng, Shape(1), 4)
        there = p.translated([y, eta])
        back = there.translated([-y, -eta])
        assert back == p.promoted(sy)
        assert p.translated([None, None]) == p


def test_translate_nonlinear_rejected():
    s = Shape(1, has_y=True)
    x = PolySymbol.var(s, "x")
    y = PolySymbol.var(s, "y")
    with pytest.raises(ValueError):
        (x ** 2).translated([y ** 2, None])
    with pytest.raises(ValueError):
        (x ** 2).translated([x, None])


# ---------------------------------------------------------------- brackets / forms

def test_coordinate_brackets():
    x, xi = vars1()
    assert poisson_bracket(x, xi) == PolySymbol.const(Shape(1), -1)
    s2 = Shape(2)
    for a in range(2):
        for b in range(2):
            pb = poisson_bracket(PolySymbol.var(s2, "x", a), PolySymbol.var(s2, "xi", b))
            if a == b:
                assert pb == PolySymbol.const(s2, -1)
            else:
                assert pb.is_zero
    assert poisson_bracket(PolySymbol.var(s2, "x", 0), PolySymbol.var(s2, "x", 1)).is_zero


def test_bracket_cubics():
    x, xi = vars1()
    assert poisson_bracket(xi ** 3, x ** 3) == (x ** 2 * xi ** 2).scaled(9)


def test_bracket_bilinear_antisymmetric_jacobi_leibniz():
    rng = random.Random(9)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(8):
            A = rand_poly(rng, s, 3)
            B = rand_poly(rng, s, 3)
            C = rand_poly(rng, s, 3)
            assert poisson_bracket(A, A).is_zero
            assert poisson_bracket(A, B) == -poisson_bracket(B, A)
            lin = poisson_bracket(A + B.scaled(2), C)
            assert lin == poisson_bracket(A, C) + poisson_bracket(B, C).scaled(2)
            jac = poisson_bracket(A, poisson_bracket(B, C)) \
                + poisson_bracket(B, poisson_bracket(C, A)) \
                + poisson_bracket(C, poisson_bracket(A, B))
            assert jac.is_zero
            leib = poisson_bracket(A * B, C)
            assert leib == A * poisson_bracket(B, C) + poisson_bracket(A, C) * B


def test_bracket_degree_bound():
    rng = random.Random(13)
    s = Shape(2)
    for _ in range(10):
        A = rand_poly(rng, s, 4)
        B = rand_poly(rng, s, 4)
        if A.degree() < 1 or B.degree() < 1:
            continue
        pb = poisson_bracket(A, B)
        if not pb.is_zero:
            assert pb.degree() <= A.degree() + B.degree() - 2


def test_symplectic_form():
    Y = PhasePoint((0, 1))
    X = PhasePoint((1, 0))
    assert symplectic_form(Y, X) == 1
    rng = random.Random(17)
    for _ in range(20):
        P = PhasePoint([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)])
        Q = PhasePoint([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)])
        assert symplectic_form(P, P) == 0
        assert symplectic_form(P, Q) == -symplectic_form(Q, P)


def test_linear_form_symbolic_matches_numeric():
    Ls = linear_form_symbolic(1)
    Y = PhasePoint((Fraction(2), Fraction(-3, 2)))
    X = PhasePoint((Fraction(1, 3), Fraction(5)))
    v = Ls.evaluate(X, Y)
    assert v == CRational(symplectic_form(Y, X))


# ---------------------------------------------------------------- unit and constant factors

def complex_poly(rng, shape, deg, nterms=6):
    """rand_poly with complex rational coefficients."""
    return rand_poly(rng, shape, deg, nterms) + rand_poly(rng, shape, deg, nterms).scaled(I)


def test_scaled_by_units_matches_termwise_product():
    rng = random.Random(11)
    for shape in (Shape(1), Shape(2, True, True)):
        p = complex_poly(rng, shape, 4)
        for u in (CRational(1), CRational(-1), I, -I):
            assert p.scaled(u).terms == {e: c * u for e, c in p.terms.items()}
        assert p.scaled(1) == p and p.scaled(-1) == -p


def test_product_with_constant_is_scaling():
    rng = random.Random(12)
    shape = Shape(2, True, False)
    p = complex_poly(rng, shape, 4)
    for c in (CRational(1), -I, CRational(Fraction(-3, 7), Fraction(2, 5))):
        k = PolySymbol.const(shape, c)
        assert p * k == p.scaled(c)
        assert k * p == p.scaled(c)
    assert p * PolySymbol.const(shape, 0) == PolySymbol.zero(shape)
    with pytest.raises(ShapeError):
        p * PolySymbol.const(Shape(2), 1)
    with pytest.raises(ShapeError):
        PolySymbol.const(Shape(2), 1) * p


def test_at_hbar_matches_termwise_powers():
    rng = random.Random(13)
    shape = Shape(1, True, True)
    p = PolySymbol.zero(shape)
    for k in range(4):
        p = p + complex_poly(rng, Shape(1, True), 3).hbar_shifted(k)
    flat = Shape(1, True)
    for v in (0, 1, -1, Fraction(1, 3), CRational(1, 1)):
        expected = PolySymbol.zero(flat)
        for e, c in p.terms.items():
            expected = expected + PolySymbol.monomial(flat, e[:-1], c * CRational.coerce(v) ** e[-1])
        assert p.at_hbar(v) == expected
    assert p.at_hbar(0) == PolySymbol(flat, {e[:-1]: c for e, c in p.terms.items() if not e[-1]})


# ---------------------------------------------------------------- numerators over one denominator

def model(p):
    """p in the oracle's dict model {exponents: (re, im)}."""
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def model_translated(a, shifts, d):
    """a(X + s) for constant shifts s, by expanding each (x_k + s_k)^n with p_mul."""
    out = {}
    for e, c in a.items():
        piece = {(0,) * len(e): c}
        for k, s in enumerate(shifts):
            unit = tuple(int(i == k) for i in range(len(e)))
            image = p_add({unit: (Fraction(1), Fraction(0))}, {(0,) * len(e): (s.re, s.im)})
            for _ in range(e[k]):
                piece = p_mul(piece, image)
        out = p_add(out, piece)
    return out


def assert_canonical(p):
    assert p.den > 0 and all(re or im for re, im in p.num.values())
    assert gcd(p.den, *chain.from_iterable(p.num.values())) == 1
    assert all(type(v) is int for c in p.num.values() for v in c) and type(p.den) is int


@st.composite
def numerator_cases(draw):
    """(A, B, scalar, x orders, xi orders, shifts): d in {1, 2}, an hbar block."""
    d = draw(st.integers(1, 2))
    shape = Shape(d, False, True)
    A, B = (draw(polys(shape, 4, max_terms=5, extra=2)) for _ in range(2))
    orders = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    return A, B, draw(complex_rationals), draw(orders), draw(orders), \
        [draw(complex_rationals) for _ in range(2 * d)]


@given(numerator_cases())
def test_numerator_ops_match_the_dict_model(case):
    A, B, c, x, xi, shifts = case
    a, b, d, shape = model(A), model(B), A.shape.d, A.shape
    derived = a
    for slot, order in enumerate(list(x) + list(xi)):
        for _ in range(order):
            derived = p_partial(derived, slot)
    at_c = {}
    for e, v in a.items():
        w = c ** e[-1]
        at_c = p_add(at_c, p_scale({e[:-1]: v}, w.re, w.im))
    moved = A.translated([PolySymbol.const(shape, s) for s in shifts])
    results = [(A + B, p_add(a, b)), (A - B, p_add(a, p_scale(b, -1))), (-A, p_scale(a, -1)),
               (A.scaled(c), p_scale(a, c.re, c.im)), (A * B, p_mul(a, b)),
               (A.conjugate(), {e: (re, -im) for e, (re, im) in a.items()}),
               (A.partial_multi(x=x, xi=xi), derived), (A.at_hbar(c), at_c),
               (moved, model_translated(a, shifts + [CRational(0)], d))]
    results += [(A.homogeneous_part(k), {e: v for e, v in a.items() if sum(e[:2 * d]) == k})
                for k in range(5)]
    for p, expected in results:
        assert model(p) == expected
        assert_canonical(p)


def test_canonical_form_after_cancellation():
    x, xi = vars1()
    half = Fraction(1, 2)
    p = x.scaled(half) + xi.scaled(Fraction(1, 6))
    assert (p.den, p.num) == (6, {(1, 0): (3, 0), (0, 1): (1, 0)})
    zero = p - p
    assert zero == PolySymbol.zero(Shape(1)) and (zero.den, zero.num) == (1, {})
    const = (p + PolySymbol.const(Shape(1), Fraction(3, 4))) - p
    assert const == PolySymbol.const(Shape(1), Fraction(3, 4)) and const.den == 4
    # 1/2 + 1/2 is 1 over 1, not 2 over 2; a common factor of 2 leaves every numerator
    one = PolySymbol.const(Shape(1), half) + PolySymbol.const(Shape(1), half)
    assert (one.den, one.num) == (1, {(0, 0): (1, 0)})
    q = (x + xi).scaled(Fraction(2, 3)) * (x - xi).scaled(Fraction(3, 4))
    assert q == (x ** 2 - xi ** 2).scaled(half) and q.den == 2
    for r in (p, zero, const, one, q, q.scaled(CRational(0, Fraction(2, 5))), q.at_hbar(3)):
        assert_canonical(r)
    with pytest.raises(AttributeError):
        p.terms = {}
