"""Property tests of the exact engine on generated inputs (profile in conftest.py)."""

from fractions import Fraction

from hypothesis import given, strategies as st

from moyal_lab.certify import gvh_certificate
from moyal_lab.crational import CRational
from moyal_lab.exppoly import ExpPolySymbol, cj_exp
from moyal_lab.polysym import PolySymbol, Shape
from moyal_lab.star import (HbarSeries, moyal_bracket, moyal_bracket_series,
                            moyal_product, star)

from brute_oracle import brute_cj_exp, brute_translated

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
complex_rationals = st.builds(CRational, fractions, fractions)


@st.composite
def polys(draw, shape, deg, max_terms=4, coeffs=complex_rationals, extra=0):
    """Polynomials of X-degree <= deg in `shape`; `extra` bounds each Y and hbar exponent."""
    d, n = shape.d, shape.nvars
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        x = draw(st.lists(st.integers(0, deg), min_size=2 * d, max_size=2 * d))
        while sum(x) > deg:
            x[x.index(max(x))] -= 1
        rest = draw(st.lists(st.integers(0, extra), min_size=n - 2 * d, max_size=n - 2 * d))
        terms[tuple(x + rest)] = draw(coeffs)
    return PolySymbol(shape, terms)


def conjugated(series: HbarSeries) -> HbarSeries:
    return HbarSeries(series.shape, {j: p.conjugate() for j, p in series.coeffs.items()})


@st.composite
def operand_pairs(draw):
    shape = Shape(draw(st.integers(1, 2)))
    return draw(polys(shape, 4)), draw(polys(shape, 4))


@given(operand_pairs())
def test_star_conjugation_reverses_order(pair):
    A, B = pair
    assert conjugated(moyal_product(A, B)) == moyal_product(B.conjugate(), A.conjugate())


@st.composite
def operand_triples(draw):
    shape = Shape(draw(st.integers(1, 2)))
    return tuple(draw(polys(shape, 3)) for _ in range(3))


@given(operand_triples())
def test_star_is_associative(triple):
    A, B, C = triple
    assert star(star(A, B), C) == star(A, star(B, C))


@given(operand_triples())
def test_moyal_bracket_jacobi_identity(triple):
    A, B, C = triple
    jacobi = moyal_bracket_series(A, moyal_bracket(B, C)) \
        + moyal_bracket_series(B, moyal_bracket(C, A)) \
        + moyal_bracket_series(C, moyal_bracket(A, B))
    assert jacobi.is_zero


@given(st.integers(1, 2).flatmap(lambda d: polys(Shape(d), 6, coeffs=fractions)),
       st.integers(0, 2))
def test_gvh_equal_iff_degree_at_most_2m_plus_2(H, m):
    cert = gvh_certificate(H, m)
    assert cert.equal == (H.degree() <= 2 * m + 2)
    if not cert.equal:
        assert not cert.witness.is_zero


SIGN_PAIRS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]


@st.composite
def exp_pairs(draw):
    full = Shape(draw(st.integers(1, 2)), True, True)
    sa, sb = draw(st.sampled_from(SIGN_PAIRS))
    A = ExpPolySymbol(draw(polys(full, 2, max_terms=3, extra=1)), sa)
    B = ExpPolySymbol(draw(polys(full, 2, max_terms=3, extra=1)), sb)
    return A, B, draw(st.integers(0, 5))


@given(exp_pairs())
def test_cj_exp_matches_index_pair_reference(case):
    A, B, j = case
    assert cj_exp(A, B, j) == brute_cj_exp(A, B, j)


@st.composite
def affine_shifts(draw, shape):
    """An X-free shift in `shape`: a sum of constant, y_k or eta_k monomials times hbar^r."""
    d, n = shape.d, shape.nvars
    picks = [None] + ([shape.slot(b, k) for b in ("y", "eta") for k in range(d)] if shape.has_y else [])
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = [0] * n
        slot = draw(st.sampled_from(picks))
        if slot is not None:
            e[slot] = 1
        if shape.has_hbar:
            e[-1] = draw(st.integers(0, 2))
        terms[tuple(e)] = draw(complex_rationals)
    return PolySymbol(shape, terms)


@st.composite
def translations(draw):
    d = draw(st.integers(1, 3))
    source = Shape(d, draw(st.booleans()), draw(st.booleans()))
    p = draw(polys(source, 4 if d < 3 else 3, extra=1))
    shift_shape = Shape(d, draw(st.booleans()), draw(st.booleans()))
    shifts = [draw(st.none() | affine_shifts(shift_shape)) for _ in range(2 * d)]
    return p, shifts


@given(translations())
def test_translated_matches_substitution_reference(case):
    p, shifts = case
    assert p.translated(shifts) == brute_translated(p, shifts)
