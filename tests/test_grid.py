import tracemalloc
import warnings

import numpy as np
import pytest

import moyal_lab.grid
from moyal_lab.evaluators import SymbolEvaluator, window
from moyal_lab.grid import (BOUNDARY_DECAY, GRID_WORK_CAP, RUN_BYTES_CAP, GridSpec, GridSymbol,
                            _check_specs, check_grid_bytes, check_grid_work, cj_grid,
                            moyal_bracket_grid, poisson_bracket_grid, remainder_grid,
                            remainder_scaling_scan, sample, star_grid, star_quadrature_point,
                            symplectic_fourier)
from moyal_lab.gridio import load_grid_symbol, save_grid_symbol


def quiet_sample(ev, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sample(ev, spec)


SPEC = GridSpec(64, 6.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(48, 6.0, 1.0)       # not a power of two
    with pytest.raises(ValueError):
        GridSpec(8, 6.0, 1.0)        # too small
    with pytest.raises(ValueError):
        GridSpec(64, -1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(64, 6.0, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GridSpec(64, bad, 1.0)
        with pytest.raises(ValueError):
            GridSpec(64, 6.0, bad)


def test_sample_values_and_boundary_guard():
    g = SymbolEvaluator.gauss(1.0)
    G = sample(g, SPEC)              # e^{-36} at the boundary: quiet
    x = SPEC.axis()
    i = np.argmin(np.abs(x - 1.0))
    j = np.argmin(np.abs(x))
    assert abs(G.samples[i, j] - np.exp(-x[i] ** 2 - x[j] ** 2)) < 1e-12
    assert sample(SymbolEvaluator.zero(), SPEC).interior_sup() == 0.0
    with pytest.warns(UserWarning, match="boundary"):
        sample(SymbolEvaluator.gauss(0.05), SPEC)


def sample_reference(f, spec):
    """The whole-grid sampling: both meshes and every evaluator transient at N x N.

    Kept verbatim as the bitwise reference for the row-blocked `sample`.
    """
    X, XI = spec.meshes()
    vals = f(X, XI)
    frame = max(np.max(np.abs(vals[0, :])), np.max(np.abs(vals[:, 0])))
    if frame > BOUNDARY_DECAY and np.max(np.abs(vals)) > 0:
        warnings.warn(f"symbol magnitude {frame:.3e} on the box boundary "
                      f"exceeds the decay guard {BOUNDARY_DECAY:.0e}",
                      stacklevel=2)
    return GridSymbol(spec, vals)


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("ev, warns", [
    (SymbolEvaluator.gauss(1.0), False),
    (SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(0.7, center=(1.3, -0.6)),
     False),
    (SymbolEvaluator.polynomial({(2, 0): 1.0, (1, 3): -0.5, (0, 1): 2.0 + 1.0j}), True),
    (SymbolEvaluator.phase_exp(1, (0.7, -1.1)), True),
], ids=["gauss", "x-gauss-off-centre", "polynomial", "phase"])
def test_sample_bit_identical_to_reference(n, ev, warns):
    # N = 256 runs four row blocks; the boundary guard reads the same frame and gives the same text
    spec = GridSpec(n, 8.0, 0.6)
    outs, texts = [], []
    for fn in (sample, sample_reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs.append(fn(ev, spec).samples)
        texts.append([(w.category, str(w.message)) for w in caught])
    assert np.array_equal(outs[0], outs[1])
    assert texts[0] == texts[1]
    assert len(texts[0]) == int(warns)


def test_star_unit_element():
    g = SymbolEvaluator.gauss(1.0)
    G = sample(g, SPEC)
    one = GridSymbol(SPEC, np.ones((SPEC.n, SPEC.n)))
    assert np.max(np.abs(star_grid(G, one).samples - G.samples)) < 1e-10
    assert np.max(np.abs(star_grid(one, G).samples - G.samples)) < 1e-10


def star_grid_reference(A: GridSymbol, B: GridSymbol) -> GridSymbol:
    """The single-batch mode-shift sum, with all N x-modes at once.

    Kept verbatim as the bitwise reference for the blocked `star_grid`; it
    holds several complex N x N x N arrays (1.3 GB at N = 256).
    """
    spec = _check_specs(A, B)
    n = spec.n
    hbar = spec.hbar
    om = spec.omega()

    C = np.fft.fft2(A.samples) / (n * n)              # index-space mode coefficients
    half = 0.5 * hbar * om

    # Bs[m, a, b] = B(x_a, xi_b - hbar om_m / 2)
    FB = np.fft.fft(B.samples, axis=1)
    ramp = np.exp(-1j * om[None, None, :] * half[:, None, None])
    Bs = np.fft.ifft(FB[None, :, :] * ramp, axis=2)

    # Bp[m, p, b]: x-mode coefficients of Bs
    Bp = np.fft.fft(Bs, axis=1) / n

    # W[m, p, b] = sum_n C[m, n] e^{i hbar om_p om_n / 2} e^{2 pi i n b / N}
    phase = np.exp(1j * om[None, :, None] * half[None, None, :])  # [1, p, n]
    W = np.fft.ifft(C[:, None, :] * phase, axis=2) * n

    T = np.fft.ifft(Bp * W, axis=1) * n               # T[m, a, b]
    E = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # [m, a]
    out = np.einsum("ma,mab->ab", E, T)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("star product produced non-finite values")
    return GridSymbol(spec, out)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("hbar, box", [(0.7, 8.0), (0.35, 6.0), (2.0, 4.0)])
def test_star_grid_blocks_bit_identical_to_reference(n, hbar, box):
    # hbar = 2 on [-4, 4): the phase hbar om_p om_n / 2 wraps up to pi N^2 / 128 turns
    # the reference is not run at N = 256: it allocates 1.3 GB
    spec = GridSpec(n, box, hbar)
    rng = np.random.default_rng(n)
    shifted = SymbolEvaluator.gauss(0.5, center=(-0.3, 0.9)) \
        * SymbolEvaluator.polynomial({(0, 1): 1.0, (1, 0): 0.5})
    pairs = [(quiet_sample(SymbolEvaluator.gauss(1.0), spec),
              quiet_sample(SymbolEvaluator.gauss(0.5), spec)),
             (quiet_sample(SymbolEvaluator.gauss(1.0, center=(0.7, -0.4)), spec),
              quiet_sample(shifted, spec)),
             tuple(GridSymbol(spec, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                   for _ in range(2))]
    for GA, GB in pairs:
        assert np.array_equal(star_grid(GA, GB).samples, star_grid_reference(GA, GB).samples)


def test_star_grid_memory_is_quadratic():
    # a 1 MB result at N = 256; one N^3 temporary would be 268 MB
    spec = GridSpec(256, 8.0, 0.7)
    GA = quiet_sample(SymbolEvaluator.gauss(1.0), spec)
    GB = quiet_sample(SymbolEvaluator.gauss(0.5, center=(0.3, -0.2)), spec)
    tracemalloc.start()
    try:
        star_grid(GA, GB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_is_one_output_and_a_row_block():
    # the whole-grid sampling peaks at 96 MiB at N = 1024: the 16 MiB output and its transients
    spec = GridSpec(1024, 8.0, 0.7)
    assert traced_peak(lambda: sample(SymbolEvaluator.gauss(1.0), spec)) < 32 * 2 ** 20


def test_star_grid_peak_is_a_few_arrays():
    # C, FB, phase, E, out and three work buffers: about 8 complex N x N arrays
    n = 256
    spec = GridSpec(n, 8.0, 0.7)
    GA = quiet_sample(SymbolEvaluator.gauss(1.0), spec)
    GB = quiet_sample(SymbolEvaluator.gauss(0.5, center=(0.3, -0.2)), spec)
    assert traced_peak(lambda: star_grid(GA, GB)) <= 12 * 16 * n * n


@pytest.mark.parametrize("n", [128, 256])
def test_grid_run_estimate_bounds_the_traced_peak(n):
    A = SymbolEvaluator.gauss(1.0)
    B = SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(1.0)
    spec = GridSpec(n, 8.0, 0.5)
    need = check_grid_bytes(n)
    assert traced_peak(lambda: star_grid(quiet_sample(A, spec), quiet_sample(B, spec))) <= need
    assert traced_peak(lambda: remainder_scaling_scan(A, B, [1, 2], [0.5, 0.25], spec)) <= need


def test_grid_run_estimate_refuses_above_the_cap():
    assert check_grid_bytes(4096) <= RUN_BYTES_CAP
    with pytest.raises(ValueError, match="N = 8192 needs about 11.0 GiB"):
        check_grid_bytes(8192)


def test_grid_work_estimate_admits_one_product_at_1024():
    # products x N^3 log2 N: one product at N = 1024, or eight at N = 512, and no more
    assert check_grid_work(1024) == GRID_WORK_CAP
    assert check_grid_work(512, 8) < GRID_WORK_CAP < 9 * check_grid_work(512)
    assert check_grid_work(128, 4) == 4 * 128 ** 3 * 7
    for n, products in [(2048, 1), (1024, 2), (512, 9)]:
        with pytest.raises(ValueError, match=f"N = {n} with {products} star product"):
            check_grid_work(n, products)


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
def test_projector_idempotency(hbar):
    # W = 2 e^{-|X|^2 / hbar} is the symbol of a rank-one projector
    spec = GridSpec(64, 8.0, hbar)
    W = quiet_sample(SymbolEvaluator.gauss(1.0 / hbar).scaled(2.0), spec)
    WW = star_grid(W, W)
    rel = np.max(np.abs((WW.samples - W.samples)[spec.interior_mask()])) \
        / np.max(np.abs(W.samples))
    assert rel < 1e-6


def test_star_vs_quadrature_oracle():
    spec = GridSpec(128, 8.0, 1.0)
    A = SymbolEvaluator.gauss(1.0)
    B = SymbolEvaluator.gauss(0.5, center=(0.5, -0.3)) \
        * SymbolEvaluator.polynomial({(0, 1): 1.0, (0, 0): 0.5})
    GA, GB = quiet_sample(A, spec), quiet_sample(B, spec)
    S = star_grid(GA, GB)
    rng = np.random.default_rng(1)
    x = spec.axis()
    for _ in range(4):
        i, j = rng.integers(spec.n // 4, 3 * spec.n // 4, 2)
        q = star_quadrature_point(A, B, (x[i], x[j]), spec, refine_check=False)
        rel = abs(q - S.samples[i, j]) / max(abs(q), 1e-3)
        assert rel < 1e-6


def test_quadrature_refine_check_quiet_when_converged():
    spec = GridSpec(64, 8.0, 1.0)
    A = SymbolEvaluator.gauss(1.0)
    B = SymbolEvaluator.gauss(0.8, center=(0.3, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # any non-convergence warning fails
        star_quadrature_point(A, B, (0.5, -0.25), spec, refine_check=True)


def test_quadrature_trivial_and_windowed_pair():
    spec = GridSpec(64, 8.0, 1.0)
    Z = SymbolEvaluator.zero()
    assert star_quadrature_point(Z, Z, (0.0, 0.0), spec, refine_check=False) == 0
    # windowed x * xi at the origin: i hbar/2 - i a^2 hbar^3 + O(hbar^5)
    a = 0.125
    hbar = 0.5
    sp = GridSpec(128, 8.0, hbar)
    Ax = SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(a)
    Bxi = SymbolEvaluator.polynomial({(0, 1): 1.0}) * SymbolEvaluator.gauss(a)
    v = star_quadrature_point(Ax, Bxi, (0.0, 0.0), sp, refine_check=False)
    predicted = 1j * (hbar / 2.0 - a * a * hbar ** 3)
    assert abs(v - predicted) < 5e-5


def test_conjugate_parity():
    spec = GridSpec(64, 6.0, 1.0)
    A = quiet_sample(SymbolEvaluator.gauss(1.0, center=(0.3, 0.1)), spec)
    B = quiet_sample(SymbolEvaluator.gauss(0.8, center=(-0.2, 0.4)), spec)
    AB = star_grid(A, B).samples
    BA = star_grid(B, A).samples
    scale = np.max(np.abs(AB))
    assert np.max(np.abs(np.real(AB - BA))) / scale < 1e-10   # commutator imaginary
    assert np.max(np.abs(np.imag(AB + BA))) / scale < 1e-10   # anticommutator real


def test_cj_grid_values():
    spec = GridSpec(128, 8.0, 1.0)
    a = 0.5
    Ax = SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(a)
    Bxi = SymbolEvaluator.polynomial({(0, 1): 1.0}) * SymbolEvaluator.gauss(a)
    GA, GB = quiet_sample(Ax, spec), quiet_sample(Bxi, spec)
    # C_0 = pointwise product
    C0 = cj_grid(GA, GB, 0)
    assert np.max(np.abs(C0.samples - GA.samples * GB.samples)) < 1e-12
    # C_1 = (-i/2){A,B}; for these factors {A,B} = (-1 + 2a|X|^2) g^2
    X, XI = spec.meshes()
    gg = np.exp(-2 * a * (X ** 2 + XI ** 2))
    expected = -0.5j * (-1.0 + 2 * a * (X ** 2 + XI ** 2)) * gg
    C1 = cj_grid(GA, GB, 1)
    m = spec.interior_mask()
    assert np.max(np.abs((C1.samples - expected)[m])) < 1e-8
    # spectral C_1 agrees with the spectral Poisson bracket route
    pb = poisson_bracket_grid(GA, GB)
    assert np.max(np.abs(C1.samples + 0.5j * pb.samples)) < 1e-10


def test_cj_grid_refuses_orders_beyond_the_float_range(monkeypatch):
    # 1/(171! 0!) is not a float; the order is refused before any spectral derivative
    spec = GridSpec(16, 8.0, 1.0)
    G = quiet_sample(SymbolEvaluator.gauss(1.0), spec)
    monkeypatch.setattr(moyal_lab.grid, "_spectral_partial", None)
    with pytest.raises(ValueError, match="series order 171 exceeds 170"):
        cj_grid(G, G, 171)


def test_remainder_leading_order():
    spec = GridSpec(64, 8.0, 0.2)
    A = quiet_sample(SymbolEvaluator.gauss(1.0), spec)
    B = quiet_sample(SymbolEvaluator.gauss(0.5, center=(0.3, -0.2)), spec)
    R0 = remainder_grid(A, B, 0)
    expected = star_grid(A, B).samples - A.samples * B.samples
    assert np.max(np.abs(R0.samples - expected)) < 1e-12
    # leading behavior: R_0 - hbar C_1 = O(hbar^2), so halving hbar quarters it
    m = spec.interior_mask()
    errs = []
    for h in (0.2, 0.1):
        sp = GridSpec(64, 8.0, h)
        GA = quiet_sample(SymbolEvaluator.gauss(1.0), sp)
        GB = quiet_sample(SymbolEvaluator.gauss(0.5, center=(0.3, -0.2)), sp)
        r = remainder_grid(GA, GB, 0)
        c1 = cj_grid(GA, GB, 1)
        errs.append(np.max(np.abs((r.samples - h * c1.samples)[m])))
    assert errs[1] < 0.33 * errs[0]


def test_remainder_grid_matches_the_scan_rows_exactly():
    # one remainder walk: remainder_grid rounds as the scan does, so its interior sup is the row
    spec = GridSpec(64, 8.0, 0.3)
    A = SymbolEvaluator.gauss(1.0)
    B = SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(0.5, center=(0.3, -0.2))
    rows = remainder_scaling_scan(A, B, [0, 1, 2], [0.3], spec)["rows"]
    GA, GB = quiet_sample(A, spec), quiet_sample(B, spec)
    assert [remainder_grid(GA, GB, k).interior_sup() for k in (0, 1, 2)] == [sup for _, _, sup in rows]


def test_remainder_scaling_slopes():
    spec = GridSpec(64, 8.0, 1.0)
    A = SymbolEvaluator.gauss(1.0)
    B = SymbolEvaluator.gauss(0.5, center=(0.4, -0.2))
    res = remainder_scaling_scan(A, B, [1, 2], [0.8, 0.4, 0.2, 0.1], spec)
    assert res["slopes"][1] >= 1.8
    assert res["slopes"][2] >= 2.8


def test_remainder_scan_rejects_negative_orders():
    spec = GridSpec(16, 6.0, 1.0)
    A = SymbolEvaluator.gauss(1.0)
    for orders in ([-1], [1, -2]):
        with pytest.raises(ValueError, match="orders"):
            remainder_scaling_scan(A, A, orders, [0.5, 0.25], spec)


def test_remainder_noise_floor_reported_as_none():
    spec = GridSpec(64, 8.0, 1.0)
    Z = SymbolEvaluator.zero()
    res = remainder_scaling_scan(Z, Z, [1], [0.4, 0.2], spec)
    assert res["slopes"][1] is None


def test_remainder_shrinks_with_window_curvature():
    # degree-1 symbols fail to terminate only through the window: the
    # remainder sup scales like the window rate a (its maximizer migrates
    # to |x| ~ a^(-1/2)), so halving a roughly halves the remainder
    spec = GridSpec(64, 8.0, 0.4)
    sups = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # the wide window grazes the decay guard
        for a in (0.5, 0.25):
            lin = SymbolEvaluator.polynomial({(1, 0): 1.0}) * SymbolEvaluator.gauss(a)
            res = remainder_scaling_scan(lin, lin, [1], [0.4], spec)
            sups.append(res["rows"][0][2])
    assert sups[1] < 0.65 * sups[0]


def test_correspondence_limit_slope():
    spec = GridSpec(64, 8.0, 1.0)
    A = SymbolEvaluator.gauss(1.0)
    B = SymbolEvaluator.gauss(0.5, center=(0.4, -0.2))
    errs = []
    hbars = [0.8, 0.4, 0.2, 0.1]
    for h in hbars:
        sp = GridSpec(64, 8.0, h)
        GA, GB = quiet_sample(A, sp), quiet_sample(B, sp)
        mb = moyal_bracket_grid(GA, GB)
        pb = poisson_bracket_grid(GA, GB)
        m = sp.interior_mask()
        errs.append(np.max(np.abs((mb.samples - pb.samples)[m])))
    slope = np.polyfit(np.log(hbars), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_truncation_convergence_box_doubling():
    # doubling L at fixed resolution density changes interior values < 1e-8
    A = SymbolEvaluator.gauss(2.0)
    B = SymbolEvaluator.gauss(1.5, center=(0.2, -0.1))
    small = GridSpec(64, 4.0, 0.5)
    big = GridSpec(128, 8.0, 0.5)
    Ssmall = star_grid(quiet_sample(A, small), quiet_sample(B, small)).samples
    Sbig = star_grid(quiet_sample(A, big), quiet_sample(B, big)).samples
    # common central points: small grid embeds at offset N/2 in the big one
    inner = Sbig[32:96, 32:96]
    msk = small.interior_mask()
    assert np.max(np.abs((Ssmall - inner)[msk])) < 1e-8


def test_symplectic_fourier_gaussian():
    spec = GridSpec(128, 8.0, 1.0)
    G = quiet_sample(SymbolEvaluator.gauss(0.5), spec)
    F = symplectic_fourier(G)
    X, XI = spec.meshes()
    expected = 2.0 * np.pi * np.exp(-(X ** 2 + XI ** 2) / 2.0)
    m = spec.interior_mask()
    assert np.max(np.abs((F.samples - expected)[m])) < 1e-8


def test_symplectic_fourier_linearity_and_parity():
    spec = GridSpec(64, 6.0, 1.0)
    rng = np.random.default_rng(2)
    A = quiet_sample(SymbolEvaluator.gauss(1.0, center=(0.4, 0.1)), spec)
    B = quiet_sample(SymbolEvaluator.gauss(0.7, center=(-0.3, 0.2)), spec)
    c = complex(rng.normal(), rng.normal())
    lin = symplectic_fourier(GridSymbol(spec, A.samples * c + B.samples))
    direct = c * symplectic_fourier(A).samples + symplectic_fourier(B).samples
    assert np.max(np.abs(lin.samples - direct)) < 1e-10
    # real even symbol -> real transform
    E = quiet_sample(SymbolEvaluator.gauss(1.0), spec)
    F = symplectic_fourier(E)
    assert np.max(np.abs(F.samples.imag)) < 1e-10


def test_spec_mismatch_rejected():
    g = SymbolEvaluator.gauss(1.0)
    A = quiet_sample(g, GridSpec(64, 6.0, 1.0))
    B = quiet_sample(g, GridSpec(64, 6.0, 2.0))
    with pytest.raises(ValueError):
        star_grid(A, B)


def test_gridio_roundtrip(tmp_path):
    spec = GridSpec(64, 6.0, 1.0)
    G = quiet_sample(SymbolEvaluator.gauss(1.0, center=(0.2, -0.4)), spec)
    path = tmp_path / "sym"
    save_grid_symbol(G, path)
    back = load_grid_symbol(path)
    assert back.spec == spec
    assert np.array_equal(back.samples, G.samples)
    raw = (tmp_path / "sym.bin").read_bytes()
    assert len(raw) == 64 * 64 * 16


def test_gridio_appends_its_suffixes_to_dotted_names(tmp_path):
    # with_suffix would write run.v2 and run.v3 to the same run.bin and run.json
    spec = GridSpec(16, 6.0, 1.0)
    first, second = (quiet_sample(SymbolEvaluator.gauss(a), spec) for a in (1.0, 0.5))
    save_grid_symbol(first, tmp_path / "run.v2")
    save_grid_symbol(second, tmp_path / "run.v3")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.bin", "run.v2.json",
                                                          "run.v3.bin", "run.v3.json"]
    assert np.array_equal(load_grid_symbol(tmp_path / "run.v2").samples, first.samples)


def test_remainder_scan_refuses_repeated_hbars():
    # two equal hbar would fit a slope to one point counted twice
    A = SymbolEvaluator.gauss(1.0)
    with pytest.raises(ValueError, match=r"^hbar values must be distinct, got \[0\.5, 0\.25, 0\.5\]$"):
        remainder_scaling_scan(A, A, [1], [0.5, 0.25, 0.5], GridSpec(16, 6.0, 1.0))
