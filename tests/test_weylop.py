import json
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from moyal_lab import cli, gridio
from moyal_lab.evaluators import SymbolEvaluator, poisson_bracket_eval, window
from moyal_lab.exprparse import lower_evaluator, parse_symbol
from moyal_lab.gridio import load_operator, load_wave, save_operator, save_wave
from moyal_lab.grid import GridSpec, GridSymbol, sample
from moyal_lab.polysym import PolySymbol, Shape
from moyal_lab.weylop import (NYQUIST_TAIL, ROW_BLOCK, RUN_BYTES_CAP, OperatorMatrix, XGrid,
                              _edge_taper, _half_step_shift, check_run_bytes,
                              classical_evolve_quadratic, coherent_state,
                              commutator, commutator_bracket, egorov_compare,
                              evolve_evaluator, expectation,
                              heisenberg_evolve, heisenberg_translation,
                              momentum_operator, position_operator,
                              quadratic_flow, quantize_kernel,
                              quantize_via_covariant, symbol_from_operator)

GRID = XGrid(128, 8.0, 1.0)


def test_one_lattice_type():
    assert XGrid is GridSpec
    assert symbol_from_operator(position_operator(GRID)).spec is GRID


def quiet_sample(ev, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sample(ev, spec)


def harmonic():
    s = Shape(1)
    x = PolySymbol.var(s, "x")
    xi = PolySymbol.var(s, "xi")
    return (x ** 2 + xi ** 2).scaled(Fraction(1, 2))


# ------------------------------------------------------------ quantization

def test_position_symbols_are_multiplication_operators():
    x2 = SymbolEvaluator.polynomial({(2, 0): 1.0})
    M = quantize_kernel(x2, GRID, spectral=True)
    assert np.max(np.abs(M.entries - np.diag(GRID.axis() ** 2))) < 1e-14


def test_momentum_eigenrelation():
    M = quantize_kernel(SymbolEvaluator.polynomial({(0, 1): 1.0}), GRID, spectral=True)
    for k in (GRID.omega()[3], GRID.omega()[17]):
        pw = np.exp(1j * k * GRID.axis())
        assert np.max(np.abs(M.entries @ pw - GRID.hbar * k * pw)) < 1e-8


def test_weyl_symmetrization_of_x_xi():
    M = quantize_kernel(SymbolEvaluator.polynomial({(1, 1): 1.0}), GRID, spectral=True)
    X = position_operator(GRID).entries
    P = momentum_operator(GRID).entries
    sym = 0.5 * (X @ P + P @ X)
    assert np.max(np.abs(M.entries - sym)) < 1e-8


def test_hermiticity_of_real_symbols():
    for ev in (SymbolEvaluator.gauss(1.0, center=(0.4, -0.2)),
               SymbolEvaluator.polynomial({(3, 0): 1.0}) * window(GRID.box)):
        M = quantize_kernel(ev, GRID)
        assert M.hermiticity_defect() < 1e-10


def test_nyquist_tail_warning():
    narrow = XGrid(16, 2.0, 1.0)
    with pytest.warns(UserWarning, match="band edge"):
        quantize_kernel(SymbolEvaluator.gauss(0.01), narrow)


def quantize_kernel_reference(A, grid, spectral=False):
    """The one-batch kernel: every midpoint row sampled and transformed at once.

    Kept verbatim as the bitwise reference for the blocked `quantize_kernel`;
    it holds several complex (2N - 1) x 2N arrays (256 MB at N = 1024).
    """
    n = grid.n
    mids = -grid.box + 0.5 * grid.step * np.arange(2 * n - 1)
    if spectral:
        p = grid.momenta()
        vals = A(mids[:, None], p[None, :])             # [midpoint, momentum]
        G = np.fft.ifft(vals, axis=1)                   # [midpoint, (i-j) mod N]
        idx = np.arange(n)
        S = idx[:, None] + idx[None, :]
        R = (idx[:, None] - idx[None, :]) % n
        return OperatorMatrix(grid, G[S, R])
    p = grid.hbar * 2.0 * np.pi * np.fft.fftfreq(2 * n, grid.step)
    vals = A(mids[:, None], p[None, :])                 # [midpoint, 2N momenta]
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        edge = float(np.max(np.abs(vals[:, n])))
        if edge / peak > NYQUIST_TAIL:
            warnings.warn(f"symbol tail fraction {edge / peak:.3e} at the momentum "
                          "band edge; use spectral=True for polynomial symbols",
                          stacklevel=2)
    G = np.fft.ifft(vals, axis=1)                       # [midpoint, (i-j) mod 2N]
    idx = np.arange(n)
    S = idx[:, None] + idx[None, :]
    R = (idx[:, None] - idx[None, :]) % (2 * n)
    return OperatorMatrix(grid, G[S, R])


def symbol_from_operator_reference(M):
    """The symbol recovery with every array alive to the end (120 MB at N = 1024).

    Kept verbatim as the bitwise reference for `symbol_from_operator`.
    """
    grid = M.grid
    n = grid.n
    dx = grid.step
    m = np.diag(M.entries).copy()
    if np.array_equal(M.entries, np.diag(m)):
        # pure multiplication operator: flat symbol, exactly
        return GridSymbol(grid, np.repeat(m[:, None], n, axis=1))
    w = _edge_taper(grid)
    Kt = w[:, None] * (M.entries / dx) * w[None, :]    # seam-safe tapered kernel
    S = _half_step_shift(grid)
    Kodd = S @ Kt @ S                                  # kernel at (x + h, y - h), h = dx/2

    idx = np.arange(n)
    rs = np.arange(-n // 4, n // 4)                    # |t| < L: beyond, the t-periodization image leaks in
    A1 = (idx[:, None] + rs[None, :]) % n
    A2 = (idx[:, None] - rs[None, :]) % n
    Ge = Kt[A1, A2]                                    # t = 2 r dx
    Go = Kodd[A1, A2]                                  # t = 2 r dx + dx
    xi = grid.axis()
    te = 2.0 * rs * dx
    Ee = np.exp(-1j * np.outer(te, xi) / grid.hbar) * dx
    Eo = np.exp(-1j * np.outer(te + dx, xi) / grid.hbar) * dx
    samples = Ge @ Ee + Go @ Eo
    return GridSymbol(grid, samples)


KERNEL_SYMBOLS = [
    SymbolEvaluator.gauss(1.0),
    SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(0.7, center=(0.3, -0.2)),
    SymbolEvaluator.polynomial({(2, 0): 1.0, (0, 2): 0.5, (1, 1): -0.25, (3, 0): 0.1}),
    SymbolEvaluator.polynomial({(1, 1): 1.0}),
    # complex, non-Hermitian
    SymbolEvaluator.polynomial({(1, 0): 1.0 + 2.0j, (0, 1): -0.5j}) * SymbolEvaluator.gauss(0.9),
]


@pytest.mark.parametrize("n, hbar", [(64, 1.0), (256, 0.6)])
@pytest.mark.parametrize("spectral", [False, True])
def test_kernels_bit_identical_to_reference(n, hbar, spectral):
    grid = XGrid(n, 8.0, hbar)
    for ev in KERNEL_SYMBOLS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            M = quantize_kernel(ev, grid, spectral=spectral)
            ref = quantize_kernel_reference(ev, grid, spectral=spectral)
        assert np.array_equal(M.entries, ref.entries)
        assert np.array_equal(symbol_from_operator(M).samples,
                              symbol_from_operator_reference(ref).samples)


def test_symbol_from_operator_bit_identical_on_random_operators():
    rng = np.random.default_rng(7)
    for n in (64, 128):
        grid = XGrid(n, 6.0, 0.8)
        M = OperatorMatrix(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.array_equal(symbol_from_operator(M).samples,
                              symbol_from_operator_reference(M).samples)


def test_near_diagonal_operator_is_not_a_multiplication():
    # one off-diagonal entry leaves the flat-symbol path; a zero on the diagonal does not
    X = position_operator(GRID)
    assert np.count_nonzero(np.diag(X.entries)) == GRID.n - 1
    assert np.array_equal(symbol_from_operator(X).samples,
                          np.repeat(np.diag(X.entries)[:, None], GRID.n, axis=1))
    near = X.entries.copy()
    near[3, 4] = 1e-300
    sym = symbol_from_operator(OperatorMatrix(GRID, near))
    assert np.array_equal(sym.samples,
                          symbol_from_operator_reference(OperatorMatrix(GRID, near)).samples)
    assert not np.array_equal(sym.samples, symbol_from_operator(X).samples)


@pytest.mark.parametrize("grid, ev, warns", [
    (XGrid(16, 2.0, 1.0), SymbolEvaluator.gauss(0.01), True),
    # the band-edge maximum and the peak fall in different row blocks, either way round
    (XGrid(64, 4.0, 1.0), SymbolEvaluator.gauss(0.02, center=(3.0, 0.0))
     + SymbolEvaluator.gauss(2.0, center=(-3.0, 0.0)).scaled(10.0), True),
    (XGrid(64, 4.0, 1.0), SymbolEvaluator.gauss(0.02, center=(-3.0, 0.0))
     + SymbolEvaluator.gauss(2.0, center=(3.0, 0.0)).scaled(10.0), True),
    (XGrid(64, 8.0, 1.0), SymbolEvaluator.gauss(1.0), False),
])
def test_band_edge_warning_matches_reference(grid, ev, warns):
    texts = []
    for quantize in (quantize_kernel, quantize_kernel_reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quantize(ev, grid)
        texts.append([(w.category, str(w.message)) for w in caught])
    assert texts[0] == texts[1]
    assert len(texts[0]) == int(warns)


def test_operator_kernels_memory_is_quadratic():
    # at N = 1024 the one-batch kernel peaks at 256 MB and the reference recovery at 120 MB
    grid = XGrid(1024, 8.0, 0.7)
    tracemalloc.start()
    try:
        M = quantize_kernel(SymbolEvaluator.gauss(1.0), grid)
        kernel_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        symbol_from_operator(M)
        symbol_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert kernel_peak < 32 * 2 ** 20
    assert symbol_peak < 56 * 2 ** 20


def test_run_bytes_cap_admits_every_nx_up_to_4096():
    assert check_run_bytes(4096) < check_run_bytes(4096, evolve=True) <= RUN_BYTES_CAP
    assert check_run_bytes(1024) == 16 * 1024 ** 2 * 4 + 256 * ROW_BLOCK * 1024
    for evolve in (False, True):
        with pytest.raises(ValueError, match="GiB"):
            check_run_bytes(8192, evolve=evolve)


OPERATOR_RUNS = [
    (["quantize", "--A", "gauss(1)"], False),
    (["quantize", "--A", "x^2", "--spectral"], False),
    (["egorov", "--A", "x*gauss(1/4)", "--H", "1/2*x^2 + 1/2*xi^2", "--t", "0.7854"], True),
    (["coherent", "--A", "x^2", "--Y", "1,0.5", "--hbars", "0.25,0.5,1"], False),
]


@pytest.mark.parametrize("n", [256, 512])
def test_operator_run_estimate_bounds_the_traced_peak(n, capsys):
    for argv, evolve in OPERATOR_RUNS:
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # x^2 does not decay at the box edge
                assert cli.main(argv + ["--Nx", str(n)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= check_run_bytes(n, evolve=evolve), argv
    capsys.readouterr()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # x^2 does not decay at the box edge
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coherent_holds_one_operator_at_a_time(capsys):
    """The README `coherent` at Nx = 512 peaks at one of its quantizations plus O(N) bytes: each
    hbar's operator is released before the next is built (two alive would add N^2 entries)."""
    n, argv = 512, OPERATOR_RUNS[3][0]
    assert cli.main(argv + ["--Nx", "64"]) == 0          # imports stay outside the traces
    ev = lower_evaluator(parse_symbol("x^2"))
    one = _traced_peak(lambda: quantize_kernel(ev, GridSpec(n, 8.0, 0.25)))
    run = _traced_peak(lambda: cli.main(argv + ["--Nx", str(n)]))
    assert run <= one + 32 * 16 * n
    capsys.readouterr()


def test_identity_round_trip():
    one = SymbolEvaluator.polynomial({(0, 0): 1.0})
    M = quantize_kernel(one, GRID, spectral=True)
    assert np.max(np.abs(M.entries - np.eye(GRID.n))) < 1e-13
    sym = symbol_from_operator(M)
    assert np.max(np.abs(sym.samples - 1.0)) < 1e-13


def test_diagonal_round_trip():
    sym = symbol_from_operator(position_operator(GRID))
    X, _ = sym.spec.meshes()
    assert np.max(np.abs(sym.samples - X)) < 1e-13


def test_gaussian_round_trip():
    g = SymbolEvaluator.gauss(1.0)
    sym = symbol_from_operator(quantize_kernel(g, GRID))
    X, XI = sym.spec.meshes()
    m = sym.spec.interior_mask()
    assert np.max(np.abs((sym.samples - g(X, XI))[m])) < 1e-6


def test_windowed_polynomial_round_trip():
    ev = SymbolEvaluator.polynomial({(1, 0): 1.0}) * window(GRID.box)
    sym = symbol_from_operator(quantize_kernel(ev, GRID))
    X, XI = sym.spec.meshes()
    m = sym.spec.interior_mask()
    assert np.max(np.abs((sym.samples - ev(X, XI))[m])) < 1e-6


def test_covariant_route_agreement():
    for ev in (SymbolEvaluator.gauss(1.0),
               SymbolEvaluator.gauss(0.8, center=(0.5, -0.3))):
        Mk = quantize_kernel(ev, GRID)
        Mc = quantize_via_covariant(ev, GRID)
        rel = np.linalg.norm((Mc - Mk).entries) / np.linalg.norm(Mk.entries)
        assert rel < 1e-5


def test_covariant_route_identity():
    one = SymbolEvaluator.gauss(1e-9)  # numerically flat within the box
    M = quantize_via_covariant(SymbolEvaluator.polynomial({(0, 0): 1.0})
                               * SymbolEvaluator.gauss(1.0), GRID)
    # compare against the kernel route rather than the raw identity: the
    # constant symbol itself is not integrable, so use the gaussian
    Mk = quantize_kernel(SymbolEvaluator.gauss(1.0), GRID)
    assert np.linalg.norm((M - Mk).entries) / np.linalg.norm(Mk.entries) < 1e-5


def test_covariant_route_requires_unit_hbar():
    with pytest.raises(ValueError):
        quantize_via_covariant(SymbolEvaluator.gauss(1.0), XGrid(64, 8.0, 0.5))


def test_covariant_reproduces_translation():
    # Op(e^{i L_Z}) equals T(Z) (no free phase under these conventions)
    Z = (0.75, -0.4)
    ev = SymbolEvaluator.phase_exp(1, Z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # unit-modulus symbol trips the tail check
        M = quantize_kernel(ev, GRID)
    T = heisenberg_translation(Z, GRID)
    psi = coherent_state((0.3, 0.2), GRID)
    diff = M.entries @ psi.values - T.entries @ psi.values
    assert np.max(np.abs(diff)) < 1e-8


# ------------------------------------------------------------ translations

def test_translation_unitary_and_coherent_center():
    Y = (1.0, 0.5)
    T = heisenberg_translation(Y, GRID)
    assert np.max(np.abs(T.entries @ T.entries.conj().T - np.eye(GRID.n))) < 1e-12
    phi0 = coherent_state((0.0, 0.0), GRID)
    phiY = coherent_state(Y, GRID)
    assert np.max(np.abs(T.entries @ phi0.values - phiY.values)) < 1e-9


def test_translation_identity_at_zero():
    T = heisenberg_translation((0.0, 0.0), GRID)
    assert np.max(np.abs(T.entries - np.eye(GRID.n))) < 1e-12


def test_translation_rejects_large_shift():
    with pytest.raises(ValueError):
        heisenberg_translation((GRID.box, 0.0), GRID)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_translation_conjugation(s):
    # T(sY) x T(sY)^* = x - s y and likewise for the momentum, on
    # interior states (the realization of the conjugation identity under
    # the package's translation convention)
    Y = (1.0, 0.5)
    Ts = heisenberg_translation((s * Y[0], s * Y[1]), GRID)
    psi = coherent_state((0.5, -0.3), GRID)
    x = GRID.axis()
    lhs = Ts.entries @ (x * (Ts.entries.conj().T @ psi.values))
    rhs = (x - s * Y[0]) * psi.values
    assert np.max(np.abs(lhs - rhs)) < 1e-6
    P = momentum_operator(GRID).entries
    lhs_p = Ts.entries @ (P @ (Ts.entries.conj().T @ psi.values))
    rhs_p = P @ psi.values - s * Y[1] * psi.values
    assert np.max(np.abs(lhs_p - rhs_p)) < 1e-6


def test_group_law_up_to_phase():
    Y1, Y2 = (0.5, 0.3), (-0.2, 0.8)
    T1 = heisenberg_translation(Y1, GRID)
    T2 = heisenberg_translation(Y2, GRID)
    T12 = heisenberg_translation((Y1[0] + Y2[0], Y1[1] + Y2[1]), GRID)
    psi = coherent_state((0.4, -0.6), GRID)
    lhs = T1.entries @ (T2.entries @ psi.values)
    rhs = T12.entries @ psi.values
    sigma = Y1[1] * Y2[0] - Y1[0] * Y2[1]
    phase = np.exp(0.5j * sigma / GRID.hbar)
    assert abs(abs(phase) - 1.0) < 1e-14
    assert np.max(np.abs(lhs - phase * rhs)) < 1e-6


# ------------------------------------------------------------ coherent states

@pytest.mark.parametrize("hbar", [0.25, 0.5, 1.0])
def test_coherent_moments(hbar):
    gg = XGrid(256, 8.0, hbar)
    Y = (1.0, 0.5)
    phi = coherent_state(Y, gg)
    assert abs(phi.norm() - 1.0) < 1e-10
    x2 = quantize_kernel(SymbolEvaluator.polynomial({(2, 0): 1.0}), gg, spectral=True)
    e = expectation(x2, phi)
    assert abs(e - (Y[0] ** 2 + hbar / 2.0)) < 1e-6


def test_coherent_limit_slope():
    w = window(8.0)
    Ac = SymbolEvaluator.polynomial({(3, 0): 1.0}) * w
    Y = (1.0, 0.0)
    hs = [0.1, 0.05, 0.025]
    errs = []
    for hbar in hs:
        gg = XGrid(512, 8.0, hbar)
        phi = coherent_state(Y, gg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # band shrinks with hbar; probed region is in-band
            op = quantize_kernel(Ac, gg)
        val = complex(Ac(np.array(Y[0]), np.array(Y[1])))
        errs.append(abs(expectation(op, phi) - val))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9


# ------------------------------------------------------------ commutators

def test_commutator_linear_form_exact():
    # i [Op(A), Op(L_Z)] = Op({A, L_Z}) at hbar = 1
    A = SymbolEvaluator.gauss(1.0, center=(0.3, -0.2))
    Z = (0.7, -0.4)
    LZ = SymbolEvaluator.polynomial({(1, 0): Z[1], (0, 1): -Z[0]})
    cb = commutator_bracket(A, LZ, GRID, spectral_h=True)
    pb = A.partial("x").scaled(Z[0]) + A.partial("xi").scaled(Z[1])  # {A,L_Z} = Z.grad A
    ref = quantize_kernel(pb, GRID)
    assert np.linalg.norm((cb - ref).entries) / ref.frobenius() < 1e-6


def test_commutator_quadratic_matches_poisson():
    A = SymbolEvaluator.gauss(1.0, center=(0.8, -0.5))
    H = SymbolEvaluator.from_polysymbol(harmonic())
    cb = commutator_bracket(A, H, GRID, spectral_h=True)
    ref = quantize_kernel(poisson_bracket_eval(A, H), GRID)
    assert np.linalg.norm((cb - ref).entries) / ref.frobenius() < 1e-6


def test_moyal_faithfulness_cubic():
    # through the hbar^2 bracket term the commutator is reproduced to
    # 1e-4 relative (the residual is the hbar^4 tail), while the
    # Poisson-only comparison keeps its stable hbar^2 defect
    from moyal_lab.evaluators import bracket_term_eval

    A = SymbolEvaluator.gauss(1.0, center=(0.8, -0.5))
    Hc = SymbolEvaluator.polynomial({(3, 0): 1.0}) * window(8.0)
    pb = poisson_bracket_eval(A, Hc)
    t3 = bracket_term_eval(A, Hc, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # band shrinks with hbar; content is in-band
        hbar = 0.1
        gg = XGrid(256, 8.0, hbar)
        cb = commutator_bracket(A, Hc, gg)
        scale = quantize_kernel(pb, gg).frobenius()
        corrected = pb + t3.scaled(hbar ** 2)
        dc = np.linalg.norm((cb - quantize_kernel(corrected, gg)).entries)
        dp = np.linalg.norm((cb - quantize_kernel(pb, gg)).entries)
        assert dc < 1e-4 * scale
        assert dp > 20 * dc                  # the Poisson-only defect is real
        # and the corrected residual scales like a higher power of hbar
        ds = []
        hs = [0.4, 0.2, 0.1]
        for h in hs:
            g2 = XGrid(256, 8.0, h)
            c2 = commutator_bracket(A, Hc, g2)
            ds.append(np.linalg.norm(
                (c2 - quantize_kernel(pb + t3.scaled(h ** 2), g2)).entries))
        assert np.polyfit(np.log(hs), np.log(ds), 1)[0] > 3.0


def test_commutator_cubic_defect_resolution_stable():
    A = SymbolEvaluator.gauss(1.0, center=(0.8, -0.5))
    Hc = SymbolEvaluator.polynomial({(3, 0): 1.0}) * window(8.0)
    defects = []
    for n in (128, 256):
        gg = XGrid(n, 8.0, 1.0)
        cb = commutator_bracket(A, Hc, gg)
        ref = quantize_kernel(poisson_bracket_eval(A, Hc), gg)
        defects.append(np.linalg.norm((cb - ref).entries))
    assert defects[0] > 1e-3                      # the obstruction is real
    assert abs(defects[1] - defects[0]) < 0.1 * defects[0]


# ------------------------------------------------------------ evolution

def heisenberg_evolve_reference(A, H, t):
    """The conjugation with every temporary alive to the end.

    Kept verbatim as the bitwise reference for `heisenberg_evolve`.
    """
    if A.grid != H.grid:
        raise ValueError("operator grids do not match")
    if H.hermiticity_defect() > 1e-10:
        raise ValueError("Hamiltonian matrix is not Hermitian")
    evals, V = np.linalg.eigh(H.entries)
    U = (V * np.exp(1j * t * evals / H.grid.hbar)) @ V.conj().T
    return OperatorMatrix(A.grid, U @ A.entries @ U.conj().T)


@pytest.mark.parametrize("n", [64, 128])
def test_heisenberg_evolve_bit_identical_to_reference(n):
    rng = np.random.default_rng(n)
    grid = XGrid(n, 6.0, 0.8)
    R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = OperatorMatrix(grid, (R + R.conj().T) / 2)
    A = OperatorMatrix(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    for t in (0.0, 0.7, -2.3):
        assert np.array_equal(heisenberg_evolve(A, H, t).entries,
                              heisenberg_evolve_reference(A, H, t).entries)


def test_heisenberg_evolve_trivial_cases():
    A = quantize_kernel(SymbolEvaluator.gauss(1.0, center=(0.5, 0.2)), GRID)
    H = quantize_kernel(SymbolEvaluator.from_polysymbol(harmonic()), GRID, spectral=True)
    at0 = heisenberg_evolve(A, H, 0.0)
    assert np.max(np.abs(at0.entries - A.entries)) < 1e-10
    ident = OperatorMatrix(GRID, np.eye(GRID.n, dtype=complex))
    at = heisenberg_evolve(A, ident, 1.7)
    assert np.max(np.abs(at.entries - A.entries)) < 1e-10


def test_heisenberg_evolve_preserves_spectrum():
    A = quantize_kernel(SymbolEvaluator.gauss(1.0, center=(0.5, 0.2)), GRID)
    H = quantize_kernel(SymbolEvaluator.from_polysymbol(harmonic()), GRID, spectral=True)
    at = heisenberg_evolve(A, H, 0.9)
    ea = np.sort(np.linalg.eigvalsh(A.entries))
    et = np.sort(np.linalg.eigvalsh(at.entries))
    assert np.max(np.abs(ea - et)) < 1e-8


def test_heisenberg_evolve_rejects_nonhermitian():
    A = quantize_kernel(SymbolEvaluator.gauss(1.0), GRID)
    bad = OperatorMatrix(GRID, A.entries + 1j * np.eye(GRID.n))
    with pytest.raises(ValueError):
        heisenberg_evolve(A, bad, 0.1)


def test_quadratic_flow_harmonic_direction():
    # dx/dt = {x, H} = -xi for the harmonic oscillator at t = 0
    E, u = quadratic_flow(harmonic(), np.pi / 2)
    assert np.max(np.abs(E - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-12
    assert np.max(np.abs(u)) < 1e-14


def test_quadratic_flow_linear_form_translates():
    s = Shape(1)
    # H = L_Y with Y = (2, 3): flow is the straight-line translation
    H = PolySymbol.var(s, "x").scaled(3) - PolySymbol.var(s, "xi").scaled(2)
    E, u = quadratic_flow(H, 1.0)
    assert np.max(np.abs(E - np.eye(2))) < 1e-12
    assert np.max(np.abs(u - np.array([2.0, 3.0]))) < 1e-12


def test_quadratic_flow_rejects_cubic():
    s = Shape(1)
    with pytest.raises(ValueError):
        quadratic_flow(PolySymbol.var(s, "x") ** 3, 0.5)


def test_classical_evolve_quadratic_values():
    s = Shape(1)
    x = PolySymbol.var(s, "x")
    ev = classical_evolve_quadratic(x, harmonic(), np.pi / 2)
    pts = np.array([0.7, -0.3]), np.array([0.2, 1.1])
    # package-convention flow: x(t) = x cos t - xi sin t -> -xi at t = pi/2
    assert np.max(np.abs(ev(*pts) + pts[1])) < 1e-12
    ev0 = classical_evolve_quadratic(x, harmonic(), 0.0)
    assert np.max(np.abs(ev0(*pts) - pts[0])) < 1e-14


@pytest.mark.parametrize("t", [np.pi / 4, np.pi / 2, np.pi])
def test_egorov_harmonic(t):
    A = SymbolEvaluator.polynomial({(1, 0): 1.0}) * window(8.0)
    rep = egorov_compare(A, harmonic(), t, XGrid(256, 8.0, 1.0))
    assert rep["relative_mismatch"] < 1e-4


def test_egorov_bump_half_period():
    bump = SymbolEvaluator.gauss(2.0, center=(1.0, 0.0))
    rep = egorov_compare(bump, harmonic(), np.pi, XGrid(256, 8.0, 1.0))
    assert rep["relative_mismatch"] < 1e-4
    # and the transported evaluator is centered at (-1, 0)
    moved = evolve_evaluator(bump, harmonic(), -np.pi)
    val = abs(complex(moved(np.array(-1.0), np.array(0.0))))
    assert abs(val - 1.0) < 1e-12


def test_egorov_cubic_negative_control():
    # evolving under a cubic Hamiltonian: first-order classical transport
    # disagrees at the t hbar^2 scale, and the defect is resolution-stable
    s = Shape(1)
    x = PolySymbol.var(s, "x")
    w = window(8.0)
    Hc = SymbolEvaluator.polynomial({(3, 0): 1.0}) * w
    A = SymbolEvaluator.gauss(1.0, center=(0.8, -0.5))
    t = 0.05
    mism = []
    for n in (128, 256):
        gg = XGrid(n, 8.0, 1.0)
        opa = quantize_kernel(A, gg)
        oph = quantize_kernel(Hc, gg)
        evolved = heisenberg_evolve(opa, oph, t)
        sym = symbol_from_operator(evolved)
        # first-order classical transport: A + t {A, H} (standard direction)
        lin = A + poisson_bracket_eval(A, Hc).scaled(-t)
        ref = quiet_sample(lin, sym.spec)
        m = sym.spec.interior_mask()
        mism.append(np.max(np.abs((sym.samples - ref.samples)[m])))
    assert mism[1] > 1e-5                          # does not vanish with resolution
    assert abs(mism[1] - mism[0]) < 0.25 * mism[0]


# ------------------------------------------------------------ serialization

def test_operator_and_wave_io(tmp_path):
    M = quantize_kernel(SymbolEvaluator.gauss(1.0, center=(0.2, 0.1)), GRID)
    save_operator(M, tmp_path / "op")
    back = load_operator(tmp_path / "op")
    assert back.grid == GRID
    assert np.array_equal(back.entries, M.entries)
    psi = coherent_state((0.5, -0.2), GRID)
    save_wave(psi, tmp_path / "psi")
    wback = load_wave(tmp_path / "psi")
    assert np.array_equal(wback.values, psi.values)
    with pytest.raises(ValueError):
        load_operator(tmp_path / "psi")


def gridio_write_reference(path, kind, arr, spec):
    """The interleaving writer, kept verbatim as the byte reference for `gridio._write`."""
    data = np.ascontiguousarray(arr, dtype=complex)
    flat = np.empty(data.size * 2, dtype="<f8")
    flat[0::2] = data.real.ravel()
    flat[1::2] = data.imag.ravel()
    path = Path(path)
    path.with_suffix(".bin").write_bytes(flat.tobytes())
    sidecar = {"kind": kind, "shape": list(data.shape),
               "N": spec.n, "L": spec.box, "hbar": spec.hbar}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def gridio_read_reference(path, kind):
    """The de-interleaving reader, kept verbatim as the reference for `gridio._read`."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    if meta["kind"] != kind:
        raise ValueError(f"expected a {kind} payload, found {meta['kind']!r}")
    raw = np.frombuffer(path.with_suffix(".bin").read_bytes(), dtype="<f8")
    arr = (raw[0::2] + 1j * raw[1::2]).reshape(meta["shape"])
    return GridSpec(meta["N"], meta["L"], meta["hbar"]), arr


def _gridio_payload(case):
    """(kind, array, lattice) of one serialization case."""
    if case == "grid-symbol":
        g = quiet_sample(SymbolEvaluator.gauss(1.0, center=(0.2, -0.4)), GridSpec(64, 6.0, 1.0))
        return "grid", g.samples, g.spec
    if case == "operator":
        m = quantize_kernel(SymbolEvaluator.gauss(1.0, center=(0.2, 0.1)), GRID)
        return "operator", m.entries, m.grid
    if case == "wave":
        w = coherent_state((0.5, -0.2), GRID)
        return "wave", w.values, w.grid
    if case == "large-values":
        rng = np.random.default_rng(7)
        arr = (rng.standard_normal((16, 16)) * 10.0 ** rng.integers(-300, 300, (16, 16))
               + 1j * rng.standard_normal((16, 16)) * 1e300)
        arr[0, :4] = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324]
    else:
        arr = np.array([complex(re, im) for re in (0.0, -0.0, 1.5, -2.0)
                        for im in (0.0, -0.0, 3.0, -4.0)])
    return "grid", arr, GridSpec(16, 6.0, 1.0)


@pytest.mark.parametrize("case", ["grid-symbol", "operator", "wave", "large-values",
                                  "signed-zeros"])
def test_gridio_matches_the_interleaving_reference(case, tmp_path):
    """Files are byte-identical to the interleaving writer's, and loads return the saved bits.
    The reference reader forms re + 1j * im, which turns a -0.0 part into +0.0, so on signed
    zeros the loads are equal in value to its loads and bitwise equal to the saved array."""
    kind, arr, spec = _gridio_payload(case)
    gridio._write(tmp_path / "new", kind, arr, spec)
    gridio_write_reference(tmp_path / "ref", kind, arr, spec)
    for suffix in (".bin", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()
    new_spec, loaded = gridio._read(tmp_path / "new", kind)
    ref_spec, reference = gridio_read_reference(tmp_path / "ref", kind)
    assert new_spec == ref_spec == spec
    assert loaded.dtype == reference.dtype == complex and loaded.shape == reference.shape
    assert loaded.tobytes() == np.ascontiguousarray(arr, dtype=complex).tobytes()
    assert np.array_equal(loaded, reference)
    assert (loaded.tobytes() == reference.tobytes()) == (case != "signed-zeros")
