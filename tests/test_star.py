import random
from fractions import Fraction

import pytest

from moyal_lab.crational import I
from moyal_lab.polysym import PolySymbol, Shape, poisson_bracket
from moyal_lab.star import (HbarSeries, bracket_discrepancy, bracket_term,
                            calibration_check, cj_coefficient, moyal_bracket,
                            moyal_bracket_series, moyal_product, star,
                            truncated_bracket)

from brute_oracle import (brute_cj, brute_poisson, from_engine, p_add,
                          p_scale)

from test_polysym import rand_poly


def vars1():
    s = Shape(1)
    return PolySymbol.var(s, "x"), PolySymbol.var(s, "xi")


# ------------------------------------------------------------- calibration

def test_calibration_gate():
    calibration_check(1)
    calibration_check(2)


def test_x_star_xi_frozen():
    x, xi = vars1()
    prod = moyal_product(x, xi)
    assert prod.coeff(0) == x * xi
    assert prod.coeff(1) == PolySymbol.const(Shape(1), I * Fraction(1, 2))
    assert prod.orders() == [0, 1]


def test_star_unit():
    rng = random.Random(2)
    one = PolySymbol.const(Shape(1), 1)
    for _ in range(10):
        A = rand_poly(rng, Shape(1), 4)
        assert moyal_product(A, one) == HbarSeries.of(A)
        assert moyal_product(one, A) == HbarSeries.of(A)


def test_x2_star_xi2_frozen():
    x, xi = vars1()
    prod = moyal_product(x ** 2, xi ** 2)
    assert prod.coeff(0) == x ** 2 * xi ** 2
    assert prod.coeff(1) == (x * xi).scaled(I * 2)
    assert prod.coeff(2) == PolySymbol.const(Shape(1), Fraction(-1, 2))


# ------------------------------------------------------- brute-force oracle

def test_cj_against_brute_force_frozen_cases():
    x, xi = vars1()
    # {xi^3, x^3}_3 = -3/2 via the independent expansion
    b3 = brute_cj(from_engine(xi ** 3), from_engine(x ** 3), 3, 1)
    swapped = brute_cj(from_engine(x ** 3), from_engine(xi ** 3), 3, 1)
    term = p_scale(p_add(b3, p_scale(swapped, Fraction(-1))), Fraction(0), Fraction(1))
    assert term == {(0, 0): (Fraction(-3, 2), Fraction(0))}
    # engine agrees
    assert bracket_term(xi ** 3, x ** 3, 3) == PolySymbol.const(Shape(1), Fraction(-3, 2))


@pytest.mark.parametrize("d", [1, 2])
def test_cj_against_brute_force_random(d):
    rng = random.Random(100 + d)
    s = Shape(d)
    for _ in range(6):
        A = rand_poly(rng, s, 4, nterms=4)
        B = rand_poly(rng, s, 4, nterms=4)
        for j in range(0, 5):
            eng = cj_coefficient(A, B, j)
            brute = brute_cj(from_engine(A), from_engine(B), j, d)
            assert from_engine(eng) == brute


@pytest.mark.parametrize("d, deg", [(1, 6), (2, 4), (3, 3)])
def test_kernel_against_brute_force_past_termination(d, deg):
    rng = random.Random(200 + d)
    s = Shape(d)
    for _ in range(3):
        A = rand_poly(rng, s, deg, nterms=5)
        B = rand_poly(rng, s, deg, nterms=5)
        top = min(A.degree(), B.degree())
        prod = moyal_product(A, B)
        for j in range(top + 3):
            brute = brute_cj(from_engine(A), from_engine(B), j, d)
            assert from_engine(cj_coefficient(A, B, j)) == brute
            assert from_engine(prod.coeff(j)) == brute
        assert max(prod.orders(), default=0) <= top


def test_kernel_degree_six_against_brute_force():
    rng = random.Random(206)
    for d in (1, 2):
        s = Shape(d)
        A = rand_poly(rng, s, 6, nterms=4)
        B = rand_poly(rng, s, 6, nterms=4)
        prod = moyal_product(A, B)
        for j in range(min(A.degree(), B.degree()) + 2):
            assert from_engine(prod.coeff(j)) == brute_cj(from_engine(A), from_engine(B), j, d)


def test_kernel_carries_y_and_hbar_blocks():
    """Y and hbar are parameters of the X-bidifferential: they ride along."""
    rng = random.Random(207)
    for d in (1, 2):
        for has_y, has_hbar in ((True, False), (False, True), (True, True)):
            s, big = Shape(d), Shape(d, has_y, has_hbar)
            A = rand_poly(rng, s, 4, nterms=4)
            B = rand_poly(rng, s, 4, nterms=4)
            ya, yb = [0] * big.nvars, [0] * big.nvars
            if has_y:
                ya[big.slot("y", d - 1)], yb[big.slot("eta", 0)] = 2, 1
            if has_hbar:
                ya[big.slot("hbar")] = 1
            MA = PolySymbol.monomial(big, ya, I)
            MB = PolySymbol.monomial(big, yb, Fraction(3, 2))
            Ap, Bp = A.promoted(big), B.promoted(big)
            for j in range(min(A.degree(), B.degree()) + 2):
                c = cj_coefficient(A, B, j).promoted(big)
                assert cj_coefficient(Ap, Bp, j) == c
                assert cj_coefficient(Ap * MA, Bp * MB, j) == c * MA * MB


def test_moyal_bracket_sums_bracket_terms():
    rng = random.Random(208)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(4):
            A = rand_poly(rng, s, 5)
            B = rand_poly(rng, s, 5)
            top = min(A.degree(), B.degree())
            terms = {j - 1: bracket_term(A, B, j) for j in range(1, top + 1, 2)}
            assert moyal_bracket(A, B) == HbarSeries(s, terms)


def test_poisson_against_brute_force():
    rng = random.Random(31)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(5):
            A = rand_poly(rng, s, 4)
            B = rand_poly(rng, s, 4)
            assert from_engine(poisson_bracket(A, B)) == brute_poisson(from_engine(A), from_engine(B), d)


# ------------------------------------------------------------- series algebra

def test_swap_parity_and_degree_bound():
    rng = random.Random(4)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(6):
            A = rand_poly(rng, s, 4)
            B = rand_poly(rng, s, 4)
            for j in range(5):
                cab = cj_coefficient(A, B, j)
                cba = cj_coefficient(B, A, j)
                assert cba == (cab if j % 2 == 0 else -cab)
                if not cab.is_zero:
                    assert cab.degree() <= A.degree() + B.degree() - 2 * j


def test_moyal_bracket_classical_term():
    rng = random.Random(6)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(8):
            A = rand_poly(rng, s, 4)
            B = rand_poly(rng, s, 4)
            mb = moyal_bracket(A, B)
            assert mb.coeff(0) == poisson_bracket(A, B)


def test_moyal_bracket_real_coefficients():
    rng = random.Random(8)
    s = Shape(1)
    for _ in range(8):
        A = rand_poly(rng, s, 5)
        B = rand_poly(rng, s, 5)
        for j, p in moyal_bracket(A, B).coeffs.items():
            assert j % 2 == 0
            for c in p.terms.values():
                assert c.im == 0


def test_bracket_frozen_values():
    x, xi = vars1()
    # {x, xi}_star = -1 for all hbar
    assert moyal_bracket(x, xi) == HbarSeries.of(PolySymbol.const(Shape(1), -1))
    # {A, A}_star = 0
    A = x ** 3 + (xi ** 2).scaled(Fraction(1, 2))
    assert moyal_bracket(A, A).is_zero
    # {xi^3, x^3}_star = 9 x^2 xi^2 - 3/2 hbar^2
    mb = moyal_bracket(xi ** 3, x ** 3)
    assert mb.coeff(0) == (x ** 2 * xi ** 2).scaled(9)
    assert mb.coeff(2) == PolySymbol.const(Shape(1), Fraction(-3, 2))
    assert mb.orders() == [0, 2]


def test_even_bracket_terms_vanish():
    rng = random.Random(10)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(12):
            A = rand_poly(rng, s, 6)
            B = rand_poly(rng, s, 6)
            for j in (0, 2, 4, 6):
                assert bracket_term(A, B, j).is_zero


def test_truncated_bracket_m0_is_poisson():
    rng = random.Random(12)
    s = Shape(1)
    for _ in range(8):
        A = rand_poly(rng, s, 5)
        B = rand_poly(rng, s, 5)
        t = truncated_bracket(A, B, 0)
        expected = poisson_bracket(A, B)
        if expected.is_zero:
            assert t.is_zero
        else:
            assert t == HbarSeries.of(expected)


def test_discrepancy_examples():
    x, xi = vars1()
    s = Shape(1)
    # quadratic H: zero discrepancy at m = 0 for arbitrary A
    H = x ** 2 + xi ** 2 + x * xi
    rng = random.Random(14)
    for _ in range(10):
        A = rand_poly(rng, s, 6)
        assert bracket_discrepancy(A, H, 0).is_zero
    # cubic pair at m = 0: the hbar^2 term survives
    d = bracket_discrepancy(xi ** 3, x ** 3, 0)
    assert d == HbarSeries(s, {2: PolySymbol.const(s, Fraction(-3, 2))})
    # degree-4 H is exact at m = 1 (forced by the degree bound)
    assert bracket_discrepancy(xi ** 4, x ** 4, 1).is_zero
    # first genuinely surviving hbar^4 tail needs degree 5
    d5 = bracket_discrepancy(xi ** 5, x ** 5, 1)
    assert d5 == HbarSeries(s, {4: PolySymbol.const(s, Fraction(15, 2))})


# ------------------------------------------------------------- associativity

@pytest.mark.parametrize("d", [1, 2])
def test_associativity(d):
    rng = random.Random(20 + d)
    s = Shape(d)
    for _ in range(8):
        A = rand_poly(rng, s, 4, nterms=3)
        B = rand_poly(rng, s, 4, nterms=3)
        C = rand_poly(rng, s, 4, nterms=3)
        left = star(star(A, B), C)
        right = star(A, star(B, C))
        assert left == right


def test_moyal_jacobi_identity():
    rng = random.Random(23)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(5):
            A = rand_poly(rng, s, 3, nterms=3)
            B = rand_poly(rng, s, 3, nterms=3)
            C = rand_poly(rng, s, 3, nterms=3)
            j = moyal_bracket_series(A, moyal_bracket(B, C)) \
                + moyal_bracket_series(B, moyal_bracket(C, A)) \
                + moyal_bracket_series(C, moyal_bracket(A, B))
            assert j.is_zero


# ------------------------------------------------------------- series utilities

def test_series_at_hbar_and_as_polysymbol():
    x, xi = vars1()
    prod = moyal_product(x, xi)
    collapsed = prod.at_hbar(Fraction(1, 3))
    assert collapsed == x * xi + PolySymbol.const(Shape(1), I * Fraction(1, 6))
    poly = prod.as_polysymbol()
    assert poly.degree("hbar") == 1
    assert poly.at_hbar(Fraction(1, 3)) == collapsed
