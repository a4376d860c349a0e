import itertools
import random
from fractions import Fraction

import pytest

from moyal_lab.crational import CRational, I
from moyal_lab.certify import (bracket_term_exp, exp_test_bracket,
                               expected_term_constant, gvh_certificate,
                               mpc_identity_check)
from moyal_lab.exppoly import (ExpPolySymbol, cj_exp, pure_exp_collapse,
                               star_with_pure)
from moyal_lab.polysym import PolySymbol, Shape, directional_power
from moyal_lab.star import bracket_discrepancy

from brute_oracle import brute_cj_exp
from test_polysym import rand_poly


def vars1():
    s = Shape(1)
    return PolySymbol.var(s, "x"), PolySymbol.var(s, "xi")


def monomials(d, degrees):
    """All X-monomials of the given total degrees in dimension d."""
    s = Shape(d)
    out = []
    for deg in degrees:
        for exps in itertools.product(range(deg + 1), repeat=2 * d):
            if sum(exps) == deg:
                out.append(PolySymbol.monomial(s, exps))
    return out


# ------------------------------------------------------ exponential symbols

def test_test_symbol_derivatives():
    T = ExpPolySymbol.test_symbol(1)
    full = T.prefactor.shape
    eta = PolySymbol.var(full, "eta")
    y = PolySymbol.var(full, "y")
    # d_x T_Y = -i eta T_Y ; d_xi T_Y = +i y T_Y
    assert T.partial("x") == ExpPolySymbol(eta.scaled(-I), -1)
    assert T.partial("xi") == ExpPolySymbol(y.scaled(I), -1)


def test_leibniz_on_prefactor():
    T = ExpPolySymbol.test_symbol(1)
    full = T.prefactor.shape
    P = PolySymbol.var(full, "x") ** 2 + PolySymbol.var(full, "y")
    E = ExpPolySymbol(P, -1)
    eta = PolySymbol.var(full, "eta")
    expected = ExpPolySymbol(P.partial("x") + P * eta.scaled(-I), -1)
    assert E.partial("x") == expected


def test_cj_exp_c0_and_termination():
    x, xi = vars1()
    T = ExpPolySymbol.test_symbol(1)
    H = x ** 2 * xi
    c0 = cj_exp(T, H, 0)
    assert c0 == ExpPolySymbol(H.promoted(T.prefactor.shape), -1)
    for j in range(H.degree() + 1, H.degree() + 4):
        assert cj_exp(T, H, j).is_zero
        assert cj_exp(H, T, j).is_zero


def test_cj_exp_c1_directional():
    # C_1(T_Y, H) = (1/2) (Y.grad H) T_Y
    x, xi = vars1()
    T = ExpPolySymbol.test_symbol(1)
    for H in (x ** 3, x * xi, xi ** 2, x ** 2 * xi):
        c1 = cj_exp(T, H, 1)
        expected = ExpPolySymbol(directional_power(H, 1)
                                 .promoted(T.prefactor.shape)
                                 .scaled(Fraction(1, 2)), -1)
        assert c1 == expected


SIGN_PAIRS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]


def rand_prefactor(rng, d, deg, nterms):
    """A random prefactor in (X, Y, hbar): X part up to `deg`, small Y and hbar powers."""
    full = Shape(d, True, True)
    p = PolySymbol.zero(full)
    for _ in range(nterms):
        e = [0] * full.nvars
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(2 * d)] += 1
        e[rng.choice([full.slot("y", rng.randrange(d)), full.slot("eta", rng.randrange(d))])] \
            += rng.randint(0, 2)
        e[full.slot("hbar")] = rng.randint(0, 1)
        p = p + PolySymbol.monomial(full, e, Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    + I * Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return p


@pytest.mark.parametrize("signs", SIGN_PAIRS)
def test_cj_exp_against_index_pair_reference(signs):
    rng = random.Random(300 + 7 * signs[0] + signs[1])
    for d, deg in ((1, 3), (2, 2)):
        for _ in range(2):
            A = ExpPolySymbol(rand_prefactor(rng, d, deg, 3), signs[0])
            B = ExpPolySymbol(rand_prefactor(rng, d, deg, 3), signs[1])
            for j in range(2 * deg + 2):      # past termination for every sign pair
                assert cj_exp(A, B, j) == brute_cj_exp(A, B, j), (d, j)


def test_cj_exp_unit_test_symbol_against_reference():
    rng = random.Random(310)
    for d in (1, 2):
        T = ExpPolySymbol.test_symbol(d)
        for _ in range(3):
            H = rand_poly(rng, Shape(d), 4)
            for j in range(6):
                assert cj_exp(T, H, j) == brute_cj_exp(T, ExpPolySymbol.from_poly(H), j)
                assert cj_exp(H, T.conjugated(), j) == \
                    brute_cj_exp(ExpPolySymbol.from_poly(H), T.conjugated(), j)


def test_cj_exp_like_sign_rejected():
    T = ExpPolySymbol.test_symbol(1)
    with pytest.raises(ValueError):
        cj_exp(T, T, 1)


# ------------------------------------------------------ collapse rule

def test_collapse_unit_and_phase_cancellation():
    T = ExpPolySymbol.test_symbol(1)
    one = ExpPolySymbol.from_poly(PolySymbol.const(Shape(1), 1))
    # 1 * T_Y = T_Y
    assert star_with_pure(one, T) == T
    # T_Y^* * T_Y = 1
    prod = star_with_pure(T.conjugated(), T)
    assert prod.sign == 0
    assert prod.as_poly() == PolySymbol.const(Shape(1), 1).promoted(prod.prefactor.shape)


def test_collapse_matches_terminating_series():
    """The shift sign of the collapse is exactly what the series forces.

    For polynomial H and the pure factor T_Y the series terminates, so
    T_Y * H and H * T_Y are computable exactly both ways; agreement
    through every surviving order calibrates the rule (and is checked
    here through hbar^3 and beyond).
    """
    rng = random.Random(42)
    for d in (1, 2):
        s = Shape(d)
        T = ExpPolySymbol.test_symbol(d)
        for _ in range(5):
            H = rand_poly(rng, s, 3)
            F = ExpPolySymbol.from_poly(H)
            for side, pair in (("left", lambda j: cj_exp(T, H, j)),
                               ("right", lambda j: cj_exp(H, T, j))):
                collapsed = pure_exp_collapse(F, side, -1)
                series = ExpPolySymbol(PolySymbol.zero(T.prefactor.shape), 0)
                for j in range(max(H.degree(), 0) + 1):
                    cj = pair(j)
                    series = series + ExpPolySymbol(cj.prefactor.hbar_shifted(j), cj.sign or series.sign)
                assert collapsed.sign == -1
                assert collapsed.prefactor == series.prefactor


def test_collapse_first_order_value():
    # T_Y * H = T_Y (H + (hbar/2) Y.grad H + ...)
    x, _ = vars1()
    H = x ** 2
    F = ExpPolySymbol.from_poly(H)
    out = pure_exp_collapse(F, "left", -1)
    full = out.prefactor.shape
    order1 = out.prefactor.homogeneous_part(1, "hbar")
    expected = directional_power(H, 1).promoted(full).hbar_shifted(1).scaled(Fraction(1, 2))
    assert order1 == expected


def test_collapse_rejects_like_sign_overflow():
    T = ExpPolySymbol.test_symbol(1)
    with pytest.raises(ValueError):
        pure_exp_collapse(T, "right", -1)


# ------------------------------------------------------ test-family bracket

def test_bracket_term_exp_j0_is_poisson_route():
    # direct Poisson computation: T_Y^* {T_Y, H} = i (Y.grad H)
    rng = random.Random(51)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(6):
            H = rand_poly(rng, s, 4)
            t0 = bracket_term_exp(H, 0)
            expected = directional_power(H, 1).scaled(I)
            assert t0 == expected


def test_bracket_term_exp_constant():
    # T_Y^* {T_Y, H}_(2j+1) = i/(4^j (2j+1)!) (Y.grad)^(2j+1) H
    rng = random.Random(53)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(4):
            H = rand_poly(rng, s, 6)
            for j in range(0, 3):
                t = bracket_term_exp(H, j)
                expected = directional_power(H, 2 * j + 1).scaled(expected_term_constant(j))
                assert t == expected


def test_bracket_term_exp_homogeneity():
    rng = random.Random(55)
    s = Shape(1)
    for _ in range(6):
        H = rand_poly(rng, s, 6)
        for j in range(3):
            t = bracket_term_exp(H, j)
            assert t == t.homogeneous_part(2 * j + 1, "y", "eta")


def test_exp_test_bracket_routes_and_values():
    x, xi = vars1()
    full = Shape(1, True, True)
    y = PolySymbol.var(full, "y")
    # H = x^2: i * 2xy, no hbar correction
    tb = exp_test_bracket(x ** 2)
    assert tb == (PolySymbol.var(full, "x") * y).scaled(2 * I)
    # H = x^3: i(3x^2 y + hbar^2 y^3 / 4)
    tb3 = exp_test_bracket(x ** 3)
    expected = (PolySymbol.var(full, "x") ** 2 * y).scaled(3 * I) \
        + (y ** 3).hbar_shifted(2).scaled(I * Fraction(1, 4))
    assert tb3 == expected
    # constant H
    assert exp_test_bracket(PolySymbol.const(Shape(1), 5)).is_zero


def test_exp_test_bracket_random_route_agreement():
    # route agreement is asserted inside exp_test_bracket; drive it hard
    rng = random.Random(57)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(8):
            H = rand_poly(rng, s, 6)
            exp_test_bracket(H)


def test_bracket_term_exp_matches_index_pair_reference():
    # i (C_(2j+1)(T, H) - C_(2j+1)(H, T)) by the reference sum, then times T^*
    rng = random.Random(59)
    for d in (1, 2):
        T = ExpPolySymbol.test_symbol(d)
        for j in range(4):
            order = 2 * j + 1
            H = rand_poly(rng, Shape(d), order + 1, nterms=3 if d == 2 and j == 3 else 5)
            F = ExpPolySymbol.from_poly(H)
            term = (brute_cj_exp(T, F, order) - brute_cj_exp(F, T, order)).scaled(I)
            expected = (term * T.conjugated()).as_poly().at_hbar(0)
            assert bracket_term_exp(H, j) == expected


def test_exact_certificates_make_few_coefficient_products(monkeypatch):
    # a dense d = 2, degree-6 H: the translations and the test-family bracket
    # run on integer numerators, not on CRational products per term
    rng = random.Random(61)
    mons = [e for e in itertools.product(range(7), repeat=4) if sum(e) <= 6]
    support = [(6, 0, 0, 0)] + rng.sample([e for e in mons if e != (6, 0, 0, 0)], 89)
    H = PolySymbol(Shape(2), {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                              for e in support})
    calls = [0]
    mul = CRational.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CRational, "__mul__", counted)
    monkeypatch.setattr(CRational, "__rmul__", counted)
    exp_test_bracket(H)
    mpc_identity_check(H)
    assert calls[0] < 1000


def dense_classes(seed: int, index: int) -> list:
    """[(d, deg, A, H)]: dense pairs in the classes (d, deg, terms) = (1,10,30) (2,5,50)
    (2,6,90) (3,4,100), drawn as the benchmark's `exact` workload draws pass `index`."""
    rng, pairs = random.Random(f"{seed}:exact:{index}"), []
    for d, deg, nterms in ((1, 10, 30), (2, 5, 50), (2, 6, 90), (3, 4, 100)):
        polys = []
        for tag in "AH":
            srng = random.Random(f"exact-support:{d}:{deg}:{nterms}:{tag}")
            mons = [e for e in itertools.product(range(deg + 1), repeat=2 * d) if sum(e) <= deg]
            top = srng.choice([e for e in mons if sum(e) == deg])
            support = [top] + srng.sample([e for e in mons if e != top], nterms - 1)
            polys.append(PolySymbol(Shape(d), {e: Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                                                            rng.randint(1, 4)) for e in support}))
        pairs.append((d, deg, *polys))
    return pairs


@pytest.mark.parametrize("k", range(4))
def test_certificate_routes_build_few_fractions(monkeypatch, k):
    # numerators over one denominator: no Fraction per term on the collapse or series
    # routes (7,124 to 16,958 per class here when every term was two Fractions)
    _, _, _, H = dense_classes(7, 0)[k]
    calls = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    exp_test_bracket(H)
    mpc_identity_check(H)
    monkeypatch.undo()
    assert calls[0] < 100


# ------------------------------------------------------ certificates

def test_certificate_theorem_one_both_directions():
    # Equal at m=0 iff deg H <= 2, over exhaustive monomials in d = 1, 2
    for d in (1, 2):
        for H in monomials(d, range(0, 7)):
            cert = gvh_certificate(H, 0)
            assert cert.equal == (H.degree() <= 2)
            if not cert.equal:
                assert not cert.witness.is_zero
                assert cert.failing_order == 3


def test_certificate_random_polynomials():
    rng = random.Random(61)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(10):
            H = rand_poly(rng, s, 6)
            cert = gvh_certificate(H, 0)
            assert cert.equal == (H.degree() <= 2)


def test_certificate_order_m():
    # Equal at m iff deg H <= 2m + 2, monomials up to degree 2m + 4, d = 1
    for m in range(4):
        for H in monomials(1, range(0, 2 * m + 5)):
            cert = gvh_certificate(H, m)
            assert cert.equal == (H.degree() <= 2 * m + 2)


def test_witness_frozen_x3():
    x, _ = vars1()
    cert = gvh_certificate(x ** 3, 0)
    xy = Shape(1, True)
    y = PolySymbol.var(xy, "y")
    assert cert.witness == (y ** 3).scaled(I * Fraction(1, 4))
    # degree-4 at m=1 is Equal
    assert gvh_certificate(x ** 4, 1).equal


def test_witness_nonvanishing_for_top_monomials():
    # single monomial of degree 2m+3: witness is a nonzero multiple of (Y.grad)^(2m+3) H
    for m in range(3):
        for H in monomials(1, [2 * m + 3]):
            cert = gvh_certificate(H, m)
            assert not cert.equal
            expected = directional_power(H, 2 * m + 3).scaled(expected_term_constant(m + 1))
            assert cert.witness == expected


def test_certificate_consistent_with_discrepancy():
    rng = random.Random(63)
    s = Shape(1)
    mono = monomials(1, range(0, 5))
    for _ in range(6):
        H = rand_poly(rng, s, 6)
        for m in (0, 1, 2):
            if gvh_certificate(H, m).equal:
                for A in mono:
                    assert bracket_discrepancy(A, H, m).is_zero


# ------------------------------------------------------ conjugation report

def test_mpc_quadratic_taylor_exact():
    x, xi = vars1()
    for H in (x ** 2, x * xi, xi ** 2 + x.scaled(3), PolySymbol.const(Shape(1), 2)):
        r = mpc_identity_check(H)
        assert r.taylor_defect.is_zero


def test_mpc_x3_frozen():
    x, _ = vars1()
    r = mpc_identity_check(x ** 3)
    xy = Shape(1, True)
    y = PolySymbol.var(xy, "y")
    xv = PolySymbol.var(xy, "x")
    assert r.c0 == (xv ** 2 * y).scaled(3)
    assert r.c1 == (xv * y ** 2).scaled(3)
    assert r.c2 == (y ** 3).scaled(Fraction(3, 4))
    assert r.taylor_defect == (y ** 3).scaled(Fraction(-1, 4))
    # c2 - (1/6)(Y.grad)^3 H = (1/8 - 1/6) * 6 y^3 = -y^3/4  (same defect)
    third = directional_power(x ** 3, 3).scaled(Fraction(1, 6))
    assert r.c2 - third == r.taylor_defect


def test_mpc_c0_c1_random():
    rng = random.Random(65)
    for d in (1, 2):
        s = Shape(d)
        for _ in range(6):
            H = rand_poly(rng, s, 5)
            r = mpc_identity_check(H)
            assert r.c0 == directional_power(H, 1)
            assert r.c1 == directional_power(H, 2).scaled(Fraction(1, 2))
            assert r.c2 == directional_power(H, 3).scaled(Fraction(1, 8))


def test_mpc_printed_pattern_delta():
    x, xi = vars1()
    # pure x^3 has no mixed third partials: the printed pattern matches
    assert mpc_identity_check(x ** 3).printed_c2_delta.is_zero
    # mixed monomial exposes the sign difference of the printed pattern
    r = mpc_identity_check(x ** 2 * xi)
    assert not r.printed_c2_delta.is_zero
    xy = Shape(1, True)
    y = PolySymbol.var(xy, "y")
    eta = PolySymbol.var(xy, "eta")
    assert r.printed_c2_delta == y ** 2 * eta
