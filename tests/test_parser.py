import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moyal_lab.evaluators import SymbolEvaluator
from moyal_lab.exprparse import (MAX_COEFFICIENT_BITS, MAX_EXACT_DEGREE, MAX_EXACT_PAIRS, ExprError,
                                 check_exact_pair, degree_bound, lower_evaluator, lower_poly,
                                 parse_symbol, pretty, size_bound)
from moyal_lab.polysym import PhasePoint, PolySymbol, Shape


def test_basic_polynomials():
    p = lower_poly(parse_symbol("x^2 + xi^2"))
    s = Shape(1)
    assert p == PolySymbol.var(s, "x") ** 2 + PolySymbol.var(s, "xi") ** 2
    q = lower_poly(parse_symbol("3/2 * x * xi"))
    assert q == (PolySymbol.var(s, "x") * PolySymbol.var(s, "xi")).scaled(Fraction(3, 2))


def test_precedence_and_unary_minus():
    p = lower_poly(parse_symbol("-x^2 + 2*x - 1"))
    s = Shape(1)
    x = PolySymbol.var(s, "x")
    assert p == -(x ** 2) + x.scaled(2) - PolySymbol.const(s, 1)
    q = lower_poly(parse_symbol("(x + xi)^2"))
    assert q == (PolySymbol.var(s, "x") + PolySymbol.var(s, "xi")) ** 2


def test_dimension_two_variables():
    p = lower_poly(parse_symbol("x1*xi2 - x2*xi1"), d=2)
    s = Shape(2)
    expected = PolySymbol.var(s, "x", 0) * PolySymbol.var(s, "xi", 1) \
        - PolySymbol.var(s, "x", 1) * PolySymbol.var(s, "xi", 0)
    assert p == expected
    with pytest.raises(ExprError):
        lower_poly(parse_symbol("x3"), d=2)
    with pytest.raises(ExprError):
        lower_poly(parse_symbol("x1"), d=1)


@pytest.mark.parametrize("text, d, pos", [("x + x3", 2, 4), ("xi + x1", 1, 5)],
                         ids=["exceeds-dimension", "indexed-in-dimension-one"])
def test_variable_errors_point_at_the_variable(text, d, pos):
    with pytest.raises(ExprError) as err:
        lower_poly(parse_symbol(text), d=d)
    assert err.value.pos == pos and str(err.value).endswith(f"(at position {pos})")


def test_syntax_errors_have_positions():
    for text, pos in [("x +", 3), ("x^", 2), ("(x", 2), ("x^y", 2), ("@", 0)]:
        with pytest.raises(ExprError) as err:
            parse_symbol(text)
        assert err.value.pos == pos


def test_gauss_rejected_in_exact_context():
    with pytest.raises(ExprError, match="numeric context"):
        lower_poly(parse_symbol("x * gauss(1)"))


def test_gauss_evaluator():
    ev = lower_evaluator(parse_symbol("x^3 * gauss(1/4)"))
    x, xi = np.array(1.3), np.array(-0.7)
    expected = 1.3 ** 3 * np.exp(-0.25 * (1.3 ** 2 + 0.7 ** 2))
    assert abs(complex(ev(x, xi)) - expected) < 1e-14


def test_two_gauss_factors_rejected():
    with pytest.raises(ExprError, match="one gauss"):
        lower_evaluator(parse_symbol("gauss(1) * gauss(2)"))
    with pytest.raises(ExprError, match="one gauss"):
        lower_evaluator(parse_symbol("gauss(1)^2"))
    # but a sum of gauss terms is fine
    ev = lower_evaluator(parse_symbol("gauss(1) + x*gauss(2)"))
    assert abs(complex(ev(np.array(0.0), np.array(0.0))) - 1.0) < 1e-14


def test_gauss_rate_must_be_positive():
    with pytest.raises(ExprError):
        parse_symbol("gauss(0)")
    with pytest.raises(ExprError):
        parse_symbol("gauss(-1/2)")


def _corpus():
    rng = random.Random(77)
    atoms = ["x", "xi", "2", "3/2", "x^2", "xi^3", "(x + xi)", "gauss(1/4)",
             "-x", "5/3", "x*xi", "(x - xi)^2", "hbar", "y", "eta"]
    corpus = []
    for _ in range(100):
        n = rng.randint(1, 4)
        parts = [rng.choice(atoms) for _ in range(n)]
        op = rng.choice([" + ", " - ", "*"])
        corpus.append(op.join(parts))
    return corpus


def test_pretty_print_round_trip_idempotent():
    for text in _corpus():
        once = pretty(parse_symbol(text))
        twice = pretty(parse_symbol(once))
        assert once == twice


def test_lowering_agrees_with_evaluation():
    # exact lowering and numeric lowering agree pointwise
    rng = random.Random(5)
    for text in ["x^2 - 3/2*xi", "(x + xi)^3", "-x*xi + 2", "x^2*xi^2 - x"]:
        p = lower_poly(parse_symbol(text))
        ev = lower_evaluator(parse_symbol(text))
        for _ in range(5):
            xv = Fraction(rng.randint(-8, 8), 4)
            xiv = Fraction(rng.randint(-8, 8), 4)
            exact = complex(p.evaluate(PhasePoint((xv, xiv))))
            approx = complex(ev(np.array(float(xv)), np.array(float(xiv))))
            assert abs(exact - approx) < 1e-12


def test_evaluator_lowering_merges_like_terms():
    # one atom per gauss rate: the expanded sum of 1,025 product terms merges exactly
    ev = lower_evaluator(parse_symbol("(x + xi)^10*gauss(1) + gauss(1)"))
    assert len(ev.atoms) == 1
    p = lower_poly(parse_symbol("(x + xi)^10 + 1"))
    rng = random.Random(9)
    for _ in range(10):
        xv = Fraction(rng.randint(-6, 6), 4)
        xiv = Fraction(rng.randint(-6, 6), 4)
        exact = complex(p.evaluate(PhasePoint((xv, xiv)))) * np.exp(-float(xv ** 2 + xiv ** 2))
        approx = complex(ev(np.array(float(xv)), np.array(float(xiv))))
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_evaluator_lowering_cost_follows_degree():
    start = time.perf_counter()
    ev = lower_evaluator(parse_symbol("(x + xi)^40*gauss(1)"))
    assert time.perf_counter() - start < 1.0
    assert len(ev.atoms) == 1 and ev.atoms[0].poly.shape == (41, 41)


@pytest.mark.parametrize("text, bound", [
    ("3/2", 0), ("x", 1), ("-x*xi + hbar", 2), ("(x + xi^2)^3", 6),
    ("(x - x)^5", 5), ("x^2*(xi + 1)^3 - y", 5), ("(x^2)^0", 0),
])
def test_degree_bound_reads_the_ast(text, bound):
    node = parse_symbol(text)
    assert degree_bound(node) == bound
    if "y" not in text and "hbar" not in text:
        assert lower_poly(node).degree() <= bound


def test_lower_poly_rejects_a_degree_bound_above_the_cap():
    lower_poly(parse_symbol(f"x^{MAX_EXACT_DEGREE}"))
    with pytest.raises(ExprError, match=f"degree bound {MAX_EXACT_DEGREE + 1} exceeds"):
        lower_poly(parse_symbol(f"x^{MAX_EXACT_DEGREE}*xi"))


@pytest.mark.parametrize("text", [
    "3/2", "x", "-x*xi + 7/3", "(x + xi^2)^3", "(x - x)^5", "(2/3*x - 5/7*xi + 1/2)^9",
    "(x + 2*xi)^12*(x - 1/3)^4", "(3*x + 4/5)^0", "x1*(x2 - 3/4*xi1)^5 + (xi2 + 1)^3",
])
def test_size_bound_covers_the_lowered_polynomial(text):
    d = 2 if "x1" in text else 1
    node = parse_symbol(text)
    degree, terms, num_bits, den_bits = size_bound(node, 2 * d)
    p = lower_poly(node, d=d)
    assert p.degree() <= degree and len(p.num) <= terms
    assert p.den.bit_length() <= den_bits
    assert max((abs(v).bit_length() for c in p.num.values() for v in c), default=0) <= num_bits


def test_size_bound_counts_terms_and_monomials():
    # a power takes the smaller of t^k and the monomials of its degree; a product multiplies
    assert size_bound(parse_symbol("(x + xi)^40"), 2)[1] == 861
    assert size_bound(parse_symbol("(x + xi)^3"), 2)[1] == 8
    assert size_bound(parse_symbol("(x + xi + 1)*(x - 1)"), 2)[1] == 6
    assert size_bound(parse_symbol("(x1+x2+x3+xi1+xi2+xi3+1)^12"), 6)[1] == 18564


def test_lower_poly_rejects_a_coefficient_bound_above_the_cap():
    lower_poly(parse_symbol("2^2047*x"))
    with pytest.raises(ExprError, match=f"coefficient bound of 4100 bits exceeds the exact engine's "
                                        f"cap of {MAX_COEFFICIENT_BITS} bits"):
        lower_poly(parse_symbol("(3/2)^2050"))


def test_check_exact_pair_reads_both_operands():
    check_exact_pair(parse_symbol("(x + xi)^40"), parse_symbol("(x + 2*xi)^40"), 1)
    with pytest.raises(ValueError, match=f"term-pair estimate .* cap of {MAX_EXACT_PAIRS}"):
        check_exact_pair(parse_symbol("(x1 + xi1 + x2 + xi2 + 1)^20"), parse_symbol("(x1 + 1)^20"), 2)


def expr_trees(d: int, depth: int = 3):
    """(text, polynomial) pairs: a random expression tree in dimension d, rendered fully
    parenthesized and built directly with the PolySymbol operators."""
    shape = Shape(d)
    names = ["x", "xi"] if d == 1 else [f"{b}{k}" for b in ("x", "xi") for k in range(1, d + 1)]
    variables = {n: PolySymbol.var(shape, n.rstrip("0123456789"), int(n[-1]) - 1 if d > 1 else 0)
                 for n in names}
    trees = st.one_of(st.sampled_from(names).map(lambda n: (n, variables[n])),
                      st.builds(Fraction, st.integers(0, 9), st.integers(1, 6))
                      .map(lambda q: (str(q), PolySymbol.const(shape, q))))
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    for _ in range(depth):
        sub = trees
        trees = st.one_of(
            st.tuples(st.sampled_from(sorted(ops)), sub, sub)
            .map(lambda t: (f"({t[1][0]}) {t[0]} ({t[2][0]})", ops[t[0]](t[1][1], t[2][1]))),
            st.tuples(sub, st.integers(0, 3)).map(lambda t: (f"({t[0][0]})^{t[1]}", t[0][1] ** t[1])),
            sub.map(lambda a: (f"-({a[0]})", -a[1])),
            sub)
    return trees


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), expr_trees(d))))
def test_one_lowering_walk_matches_the_polysymbol_operators(case):
    d, (text, expected) = case
    node = parse_symbol(text)
    assert lower_poly(node, d=d) == expected
    assert lower_poly(parse_symbol(pretty(node)), d=d) == lower_poly(node, d=d)
    if d == 1:
        # the numeric lowering: one atom of the same coefficient array (none for zero)
        atoms = lower_evaluator(parse_symbol(f"({text})*gauss(1)")).atoms
        want = SymbolEvaluator.from_polysymbol(expected).atoms
        assert len(atoms) == len(want) == (0 if expected.is_zero else 1)
        assert all(np.array_equal(a.poly, w.poly) for a, w in zip(atoms, want))
