import random
from fractions import Fraction

import pytest

from moyal_lab.crational import CRational, I
from moyal_lab.polysym import (PhasePoint, PolySymbol, Shape, ShapeError,
                               linear_form, linear_form_symbolic,
                               poisson_bracket, symplectic_form)


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
