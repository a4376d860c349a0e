import numpy as np
import pytest

from moyal_lab.evaluators import (SymbolEvaluator, np_affine, np_eval,
                                  poisson_bracket_eval, window)


def rand_points(rng, n=40, lo=-3.0, hi=3.0):
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def fd_partial(ev, block, x, xi, h=1e-6):
    if block == "x":
        return (ev(x + h, xi) - ev(x - h, xi)) / (2 * h)
    return (ev(x, xi + h) - ev(x, xi - h)) / (2 * h)


EXAMPLES = [
    SymbolEvaluator.polynomial({(2, 1): 1.5, (0, 0): -2.0, (1, 0): 1j}),
    SymbolEvaluator.gauss(0.7, center=(0.4, -1.1)),
    SymbolEvaluator.polynomial({(3, 0): 1.0}) * SymbolEvaluator.gauss(0.25),
    SymbolEvaluator.phase_exp(-1, (0.8, -0.3)),
    SymbolEvaluator.polynomial({(1, 1): 2.0}) * SymbolEvaluator.phase_exp(1, (0.5, 0.2)),
]


@pytest.mark.parametrize("ev", EXAMPLES)
def test_derivatives_match_finite_differences(ev):
    rng = np.random.default_rng(3)
    x, xi = rand_points(rng)
    for block in ("x", "xi"):
        analytic = ev.partial(block)(x, xi)
        numeric = fd_partial(ev, block, x, xi)
        scale = np.maximum(np.abs(analytic), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


def test_zero_and_sum_product_pointwise():
    rng = np.random.default_rng(5)
    x, xi = rand_points(rng)
    a, b = EXAMPLES[0], EXAMPLES[1]
    assert np.allclose((a + b)(x, xi), a(x, xi) + b(x, xi))
    assert np.allclose((a * b)(x, xi), a(x, xi) * b(x, xi), atol=1e-12)
    assert np.all(SymbolEvaluator.zero()(x, xi) == 0)


def test_gauss_product_different_centers():
    rng = np.random.default_rng(7)
    x, xi = rand_points(rng)
    g1 = SymbolEvaluator.gauss(0.5, center=(1.0, 0.0))
    g2 = SymbolEvaluator.gauss(1.5, center=(-0.5, 0.7))
    prod = g1 * g2
    assert np.allclose(prod(x, xi), g1(x, xi) * g2(x, xi), atol=1e-13)


def test_phase_exp_value():
    # exp(i s L_Y), L_Y = eta x - y xi
    y, eta = 0.8, -0.3
    ev = SymbolEvaluator.phase_exp(-1, (y, eta))
    x, xi = 1.3, -0.4
    expected = np.exp(-1j * (eta * x - y * xi))
    assert abs(complex(ev(np.array(x), np.array(xi))) - expected) < 1e-14


def test_compose_affine_rotation():
    rng = np.random.default_rng(9)
    x, xi = rand_points(rng)
    t = 0.7
    M = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    v = np.array([0.3, -0.2])
    for ev in EXAMPLES:
        comp = ev.compose_affine(M, v)
        direct = ev(M[0, 0] * x + M[0, 1] * xi + v[0],
                    M[1, 0] * x + M[1, 1] * xi + v[1])
        assert np.max(np.abs(comp(x, xi) - direct)) < 1e-10


def test_poisson_bracket_eval_vs_fd():
    a = SymbolEvaluator.gauss(0.5, center=(0.5, 0.0))
    b = SymbolEvaluator.polynomial({(2, 0): 1.0, (0, 2): 1.0})
    pb = poisson_bracket_eval(a, b)
    rng = np.random.default_rng(11)
    x, xi = rand_points(rng)
    direct = (fd_partial(a, "xi", x, xi) * fd_partial(b, "x", x, xi)
              - fd_partial(a, "x", x, xi) * fd_partial(b, "xi", x, xi))
    assert np.max(np.abs(pb(x, xi) - direct)) < 1e-4


def test_np_affine_identity():
    p = np.zeros((3, 4), dtype=complex)      # c[a, b] multiplies x^a xi^b
    p[2, 1], p[0, 3] = 1.0 + 0j, -0.5j
    q = np_affine(p, np.eye(2), np.zeros(2))
    x = np.array([0.3]); xi = np.array([-0.7])
    assert abs(np_eval(p, x, xi) - np_eval(q, x, xi)) < 1e-14


def test_window_decay():
    L = 8.0
    w = window(L)
    val = abs(complex(w(np.array(L), np.array(0.0))))
    assert val < 1e-7
