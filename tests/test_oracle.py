"""The oracle's `brute_cj` against its earlier Fraction form, kept verbatim.

`brute_cj_reference` scales every derivative by its power of -i and every
index pair by its Fraction weight before adding; `brute_cj` runs the same
sum on integer numerators and must return `==` dicts for every input.
"""

from fractions import Fraction
from math import factorial

from hypothesis import given, strategies as st

from moyal_lab.polysym import Shape

from brute_oracle import (brute_cj, from_engine, multi_indices, p_add, p_mul, p_partial,
                          p_scale, p_zero)
from test_properties import polys


def mul_minus_i_pow(p, n):
    # multiply by (-i)^n
    for _ in range(n % 4):
        p = p_scale(p, Fraction(0), Fraction(-1))
    return p


def brute_cj_reference(A, B, j, d):
    """C_j(A,B) straight from the definition, D = -i grad.

    Derivatives are memoised within the call, keyed by the operand and the
    order in each variable (x_1..x_d, xi_1..xi_d); each is one `p_partial`
    of a memoised lower one.
    """
    memo = {}

    def deriv(which, orders):
        key = (which, orders)
        if key not in memo:
            if any(orders):
                v = max(i for i, o in enumerate(orders) if o)
                memo[key] = p_partial(deriv(which, orders[:v] + (orders[v] - 1,) + orders[v + 1:]), v)
            else:
                memo[key] = (A, B)[which]
        return memo[key]

    acc = p_zero()
    for alpha in multi_indices(d, j):
        for beta in multi_indices(d, j - sum(alpha)):
            if sum(alpha) + sum(beta) != j:
                continue
            dA = deriv(0, beta + alpha)     # d_xi^a D_x^b A, phases later
            if not dA:
                continue
            dB = deriv(1, alpha + beta)
            if not dB:
                continue
            dA = mul_minus_i_pow(dA, sum(beta))
            dB = mul_minus_i_pow(dB, sum(alpha))
            fac = Fraction(1)
            for t in alpha:
                fac /= factorial(t)
            for t in beta:
                fac /= factorial(t)
            if sum(beta) % 2:
                fac = -fac
            acc = p_add(acc, p_scale(p_mul(dA, dB), fac))
    return p_scale(acc, Fraction(1, 2 ** j))


@st.composite
def oracle_calls(draw):
    """(A, B, j, d) as oracle dicts: d in {1, 2, 3}, complex rational coefficients."""
    d = draw(st.integers(1, 3))
    deg = (6, 4, 3)[d - 1]
    A, B = (from_engine(draw(polys(Shape(d), deg, max_terms=5))) for _ in range(2))
    return A, B, draw(st.integers(0, deg + 1)), d


@given(oracle_calls())
def test_integer_brute_cj_matches_reference(call):
    assert brute_cj(*call) == brute_cj_reference(*call)
