"""Matrix-level Weyl quantization on a periodic position grid (d = 1).

Operators are dense matrices acting directly on sample vectors; inner
products carry the quadrature weight dx = 2L/N, so position symbols
quantize to plain diagonal matrices and the identity symbol to the
identity matrix.  The position grid is `grid.GridSpec`, the one lattice of
the numeric engine (`XGrid` names the same class): an operator's lattice is
the phase-space grid of its symbol, and the N, L and hbar of a `gridio`
sidecar are that lattice's fields.

Two quantization routes are implemented and cross-validated:

* `quantize_kernel` discretizes the kernel formula
      K(x, y) = (2 pi hbar)^-1 Int e^{i (x - y) eta / hbar} A((x+y)/2, eta) d eta
  over the grid's own momentum lattice (a length-N transform per midpoint
  diagonal), giving M[i, j] = (1/N) sum_k A((x_i+x_j)/2, p_k) e^{2 pi i k (i-j)/N}.
  Midpoint rows run in blocks of `ROW_BLOCK` = 64 (`grid.ROW_BLOCK`): O(N^2)
  memory, 16 N^2 + 256 ROW_BLOCK N bytes; `check_run_bytes` gives a run's
  peak before it starts.

* `quantize_via_covariant` superposes Heisenberg translations weighted by
  the symplectic Fourier transform of the symbol (hbar = 1),
      Op(A) = (2 pi)^{-2} II A_sigma(Y) T(Y) dY.

The translation operator follows the convention table:
(T(Y) psi)(x) = e^{(i/hbar) eta (x - y/2)} psi(x - y), which centers
coherent states at +Y; conjugation identities then hold in the order
T(sY) x T(sY)^* = x - s y (see conventions.py).
"""

from __future__ import annotations

import warnings
from math import pi

import numpy as np

from .evaluators import SymbolEvaluator
from .grid import ROW_BLOCK, RUN_BYTES_CAP, GridSpec, GridSymbol, sample, symplectic_fourier
from .polysym import PolySymbol

NYQUIST_TAIL = 1e-8

XGrid = GridSpec


class WaveVector:
    """A sampled wavefunction with the trapezoid-weight inner product."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        v = np.ascontiguousarray(values, dtype=complex)
        if v.shape != (grid.n,):
            raise ValueError("wavefunction length does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite wavefunction")
        self.grid = grid
        self.values = v

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.step))


class OperatorMatrix:
    """Dense operator in the sample representation (psi -> entries @ psi)."""

    __slots__ = ("grid", "entries")

    def __init__(self, grid: GridSpec, entries: np.ndarray):
        m = np.ascontiguousarray(entries, dtype=complex)
        if m.shape != (grid.n, grid.n):
            raise ValueError("operator shape does not match the grid")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite operator entries")
        self.grid = grid
        self.entries = m

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.grid != other.grid:
            raise ValueError("operator grids do not match")
        return OperatorMatrix(self.grid, self.entries @ other.entries)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.grid, self.entries + other.entries)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.grid, self.entries - other.entries)

    def scaled(self, c) -> "OperatorMatrix":
        return OperatorMatrix(self.grid, self.entries * c)

    def hermiticity_defect(self) -> float:
        scale = max(float(np.max(np.abs(self.entries))), 1e-300)
        return float(np.max(np.abs(self.entries - self.entries.conj().T)) / scale)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))


def commutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    return A @ B - B @ A


# ---------------------------------------------------------------- quantization

def quantize_kernel(A: SymbolEvaluator, grid: GridSpec,
                    spectral: bool = False) -> OperatorMatrix:
    """Weyl quantization through the kernel formula on a momentum lattice.

    Real symbols give Hermitian matrices at machine precision.  Two
    lattices are offered:

    * default (decaying symbols): W = 2N momenta at spacing pi hbar / (2L),
      which pushes the kernel's periodization images out to |x - y| = 4L,
      so no alias ridge enters the stored matrix; correct to the symbol's
      own kernel decay.
    * ``spectral=True`` (polynomial symbols): the grid's own W = N momenta,
      producing the exact periodic spectral operator (position polynomials
      become multiplication matrices, xi the spectral momentum matrix).
      Decaying symbols quantized this way pick up a kernel image along
      |x - y| = 2L.

    The 2N - 1 midpoint rows run in blocks of `ROW_BLOCK`; a block samples
    ROW_BLOCK x W points, transforms its rows and scatters anti-diagonal
    i + j = row into the output at indices in closed form.
    Memory: 16 N^2 bytes (the output) + 256 ROW_BLOCK N bytes.
    A band-edge tail above `NYQUIST_TAIL` on the default path warns.
    """
    n = grid.n
    width = n if spectral else 2 * n
    p = grid.momenta() if spectral else grid.hbar * 2.0 * np.pi * np.fft.fftfreq(width, grid.step)
    mids = -grid.box + 0.5 * grid.step * np.arange(2 * n - 1)
    out = np.empty((n, n), dtype=complex)
    peak = edge = 0.0
    for r0 in range(0, 2 * n - 1, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, 2 * n - 1)
        vals = A(mids[r0:r1, None], p[None, :])             # [midpoint, momentum]
        if not spectral:
            peak = max(peak, float(np.max(np.abs(vals))))
            edge = max(edge, float(np.max(np.abs(vals[:, n]))))
        G = np.fft.ifft(vals, axis=1)                       # [midpoint, (i-j) mod W]
        # anti-diagonal i + j = r: i = max(0, r - n + 1) .. min(r, n - 1), flat index i (n - 1) + r
        r = np.arange(r0, r1)
        lo = np.maximum(r - n + 1, 0)
        count = np.minimum(r, n - 1) - lo + 1
        rr = np.repeat(r, count)
        i = np.arange(rr.size) + np.repeat(lo - np.cumsum(count) + count, count)
        np.put(out, i * (n - 1) + rr, G[rr - r0, (2 * i - rr) % width])
    M = OperatorMatrix(grid, out)
    if peak > 0 and edge / peak > NYQUIST_TAIL:
        warnings.warn(f"symbol tail fraction {edge / peak:.3e} at the momentum "
                      "band edge; use spectral=True for polynomial symbols",
                      stacklevel=2)
    return M


def _fourier_multiplier(n: int, mult: np.ndarray) -> np.ndarray:
    """The periodic spectral operator with Fourier multiplier `mult`, as a matrix (one buffer)."""
    F = np.eye(n, dtype=complex)
    np.fft.fft(F, axis=0, out=F)
    F *= mult[:, None]
    return np.fft.ifft(F, axis=0, out=F)


def _half_step_shift(grid: GridSpec) -> np.ndarray:
    """The band-limited unitary (S psi)(x) = psi(x + dx/2) as a matrix."""
    return _fourier_multiplier(grid.n, np.exp(1j * grid.omega() * grid.step / 2.0))


def _edge_taper(grid: GridSpec, start: float = 0.8) -> np.ndarray:
    """C^2 roll-off from 1 to 0 over [start * L, L], symmetric in |x|."""
    s = (np.abs(grid.axis()) - start * grid.box) / ((1.0 - start) * grid.box)
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s ** 3 * (s * (6.0 * s - 15.0) + 10.0)


def symbol_from_operator(M: OperatorMatrix) -> GridSymbol:
    """Weyl symbol of an operator: A(x, xi) = Int e^{-i xi t / hbar} K(x + t/2, x - t/2) dt.

    The multiplication part (matrix diagonal) maps exactly to its flat
    symbol.  For the rest, the t-quadrature runs over the full lattice
    t = tau dx, |t| < L: even offsets read the stored kernel along cross
    diagonals; odd offsets come from the kernel of S M S with S the exact
    half-step spectral shift, whose cross diagonals sit at midpoint x_i
    and odd t.  The off-diagonal kernel is edge-tapered before the shift
    because the discrete kernel is discontinuous across the periodic seam
    at the anti-diagonal corners (the t-periodization image); the taper
    touches only exponentially small entries for interior symbols.  The
    result lives on the square phase-space grid whose xi axis equals the
    position axis.  Memory: 48 N^2 bytes beside the input (tapered kernel,
    S and the even and odd offsets, N x N/2 each), plus 64 ROW_BLOCK N
    bytes: S M S is formed ROW_BLOCK rows at a time, never whole.
    """
    grid = M.grid
    n = grid.n
    dx = grid.step
    m = np.diag(M.entries).copy()
    if np.count_nonzero(M.entries) == np.count_nonzero(m):
        # pure multiplication operator (no off-diagonal entry): flat symbol, exactly
        return GridSymbol(grid, np.repeat(m[:, None], n, axis=1))
    w = _edge_taper(grid)
    Kt = M.entries / dx                                # seam-safe tapered kernel, built in place
    Kt *= w[:, None]
    Kt *= w[None, :]
    idx = np.arange(n)
    rs = np.arange(-n // 4, n // 4)                    # |t| < L: beyond, the t-periodization image leaks in
    Ge = Kt[(idx[:, None] + rs) % n, (idx[:, None] - rs) % n]     # t = 2 r dx
    # t = 2 r dx + dx from S Kt S, the kernel at (x + h, y - h), h = dx/2, in blocks of
    # its rows a: Go[i, c] = (S Kt S)[i + r_c, i - r_c] with i = a - r_c
    S = _half_step_shift(grid)
    Go = np.empty_like(Ge)
    cols = np.arange(rs.size)
    for a0 in range(0, n, ROW_BLOCK):
        a = np.arange(a0, min(a0 + ROW_BLOCK, n))[:, None]
        Go[(a - rs) % n, cols] = ((S[a0:a0 + ROW_BLOCK] @ Kt) @ S)[a - a0, (a - 2 * rs) % n]
    del Kt, S
    xi = grid.axis()
    te = 2.0 * rs * dx
    samples = Ge @ (np.exp(-1j * np.outer(te, xi) / grid.hbar) * dx)
    del Ge
    samples += Go @ (np.exp(-1j * np.outer(te + dx, xi) / grid.hbar) * dx)
    return GridSymbol(grid, samples)


def check_run_bytes(n: int, evolve: bool = False) -> int:
    """Peak bytes of a `quantize` run (`egorov` with evolve) at N = n; ValueError above the cap.

    The peak of `quantize` and `coherent` is symbol_from_operator beside the
    operator: 4 complex N x N arrays.  That of `egorov` is heisenberg_evolve
    beside Op(A) and Op(H): 5 arrays.  Either adds 256 ROW_BLOCK N bytes of
    row blocks, the most any block loop of the run holds.
    """
    need = 16 * n * n * (5 if evolve else 4) + 256 * ROW_BLOCK * n
    if need > RUN_BYTES_CAP:
        raise ValueError(f"Nx = {n} needs about {need / 2 ** 30:.1f} GiB, above the "
                         f"{RUN_BYTES_CAP >> 30} GiB cap of an operator run")
    return need


def quantize_via_covariant(A: SymbolEvaluator, grid: GridSpec) -> OperatorMatrix:
    """Second quantization route: superposed translations at hbar = 1.

    Op(A) = (2 pi)^{-2} II A_sigma(y, eta) T(y, eta) dy d eta with both the
    y- and the eta-quadrature on the grid's own axis (translations become
    exact index rolls) and A_sigma from `grid.symplectic_fourier`.
    """
    if abs(grid.hbar - 1.0) > 1e-12:
        raise ValueError("the covariant route is pinned to hbar = 1")
    n = grid.n
    x = grid.axis()
    Az = GridSymbol(grid, A(x[:, None], x[None, :]))   # [z_x, z_xi]
    Asig = symplectic_fourier(Az).samples              # [y, eta]

    # accumulate translations: T(y_m, eta) psi = e^{i eta (x - y_m/2)} psi(x - y_m)
    weight = grid.step * grid.step / (2.0 * np.pi) ** 2
    out = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    for m in range(n):
        y = x[m]
        g = Asig[m, :] @ np.exp(1j * np.outer(x, x - 0.5 * y))     # vector over i
        cols = (idx - (m - n // 2)) % n
        out[idx, cols] += weight * g
    return OperatorMatrix(grid, out)


# ---------------------------------------------------------------- translations

def heisenberg_translation(Y, grid: GridSpec) -> OperatorMatrix:
    """The phase-space translation unitary T(Y) as a matrix.

    (T(Y) psi)(x) = e^{(i/hbar) eta (x - y/2)} psi(x - y); the shift acts
    by a Fourier phase ramp, exact on band-limited periodic data.
    """
    y, eta = float(Y[0]), float(Y[1])
    if abs(y) >= grid.box / 2.0:
        raise ValueError("translation leaves the safe half-box")
    S = _fourier_multiplier(grid.n, np.exp(-1j * grid.omega() * y))
    phase = np.exp(1j * eta * (grid.axis() - 0.5 * y) / grid.hbar)
    return OperatorMatrix(grid, phase[:, None] * S)


def coherent_state(Y, grid: GridSpec) -> WaveVector:
    """phi_Y = T(Y) phi_0 with phi_0(x) = (pi hbar)^{-1/4} e^{-x^2 / 2 hbar}."""
    y, eta = float(Y[0]), float(Y[1])
    x = grid.axis()
    vals = (pi * grid.hbar) ** -0.25 \
        * np.exp(-(x - y) ** 2 / (2.0 * grid.hbar)) \
        * np.exp(1j * eta * (x - 0.5 * y) / grid.hbar)
    return WaveVector(grid, vals)


def expectation(M: OperatorMatrix, psi: WaveVector) -> complex:
    """<psi, M psi> under the quadrature-weighted inner product."""
    return complex(np.vdot(psi.values, M.entries @ psi.values) * psi.grid.step)


def position_operator(grid: GridSpec) -> OperatorMatrix:
    return OperatorMatrix(grid, np.diag(grid.axis().astype(complex)))


def momentum_operator(grid: GridSpec) -> OperatorMatrix:
    return OperatorMatrix(grid, _fourier_multiplier(grid.n, grid.momenta()))


# ---------------------------------------------------------------- dynamics

def commutator_bracket(A: SymbolEvaluator, H: SymbolEvaluator, grid: GridSpec,
                       spectral_h: bool = False) -> OperatorMatrix:
    """(i/hbar) [Op(A), Op(H)]; set spectral_h for a polynomial H."""
    opa = quantize_kernel(A, grid)
    oph = quantize_kernel(H, grid, spectral=spectral_h)
    return commutator(opa, oph).scaled(1j / grid.hbar)


def heisenberg_evolve(A: OperatorMatrix, H: OperatorMatrix, t: float) -> OperatorMatrix:
    """A(t) = e^{i t H / hbar} A e^{-i t H / hbar}, via eigendecomposition.

    H must be Hermitian (checked); the evolution is unitary, so the
    spectrum of A is preserved.  Beside A and H it holds at most three
    complex N x N arrays: the eigenvectors are scaled and U conjugated in
    place.
    """
    if A.grid != H.grid:
        raise ValueError("operator grids do not match")
    if H.hermiticity_defect() > 1e-10:
        raise ValueError("Hamiltonian matrix is not Hermitian")
    evals, V = np.linalg.eigh(H.entries)
    Vh = V.conj().T
    V *= np.exp(1j * t * evals / H.grid.hbar)
    U = V @ Vh
    del V, Vh
    UA = U @ A.entries
    np.conjugate(U, out=U)                             # U.T is now the adjoint
    return OperatorMatrix(A.grid, UA @ U.T)


def _expm_series(M: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """(e^M, phi1(M)) with phi1(M) = sum M^k / (k+1)!, by scaling and squaring."""
    norm = float(np.max(np.abs(M)))
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    Ms = M / 2 ** s
    n = M.shape[0]
    E = np.eye(n)
    PH = np.eye(n)
    term = np.eye(n)
    k = 1
    while float(np.max(np.abs(term))) > tol:
        term = term @ Ms / k
        E = E + term
        PH = PH + term / (k + 1)
        k += 1
        if k > 60:
            break
    for _ in range(s):
        # e^{2Z} = (e^Z)^2 ; phi1(2Z) = (e^Z + I) phi1(Z) / 2
        PH = (E + np.eye(n)) @ PH / 2.0
        E = E @ E
    return E, PH


def quadratic_flow(H: PolySymbol, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine flow map (E, u) of dA/dt = {A, H} for quadratic H, d = 1.

    The characteristic system is dx/dt = -d_xi H, dxi/dt = +d_x H (the
    bracket convention of this package); the returned pair satisfies
    Phi_t(X) = E X + u.
    """
    if H.shape.d != 1 or H.shape.has_y or H.shape.has_hbar:
        raise ValueError("flow requires a d = 1 polynomial in X only")
    if H.degree() > 2:
        raise ValueError("quadratic flow needs deg H <= 2")

    def affine_parts(p):
        """The coefficients of x, xi and 1 in an affine real polynomial, as floats."""
        return tuple(p.num.get(e, (0, 0))[0] / p.den for e in ((1, 0), (0, 1), (0, 0)))

    hx, hxi = H.partial("x"), H.partial("xi")
    if any(im for p in (hx, hxi) for _, im in p.num.values()):
        raise ValueError("flow requires a real Hamiltonian")
    ax, axi, a0 = affine_parts(hxi)     # d_xi H
    bx, bxi, b0 = affine_parts(hx)      # d_x H
    M = np.array([[-ax, -axi], [bx, bxi]])
    v = np.array([-a0, b0])
    E, PH = _expm_series(t * M)
    u = t * (PH @ v)
    return E, u


def classical_evolve_quadratic(A: PolySymbol, H: PolySymbol, t: float) -> SymbolEvaluator:
    """A composed with the time-t flow of H (deg H <= 2), exact composition.

    The flow matrix involves transcendental functions of t, so the result
    carries float coefficients; the polynomial structure is exact.
    """
    E, u = quadratic_flow(H, t)
    return SymbolEvaluator.from_polysymbol(A).compose_affine(E, u)


def evolve_evaluator(A: SymbolEvaluator, H: PolySymbol, t: float) -> SymbolEvaluator:
    """Transport any evaluator along the time-t flow of a quadratic H."""
    E, u = quadratic_flow(H, t)
    return A.compose_affine(E, u)


def egorov_compare(A: SymbolEvaluator, H: PolySymbol, t: float, grid: GridSpec) -> dict:
    """Evolved Weyl symbol vs. classically transported symbol, quadratic H.

    The quantum side uses A(t) = e^{itH/hbar} Op(A) e^{-itH/hbar}, whose
    symbol is transported by the backward flow of the package's bracket
    convention; the classical side therefore composes with the time -t
    flow.  Exact in the continuum; the report is pure discretization.
    """
    opa = quantize_kernel(A, grid)
    oph = quantize_kernel(SymbolEvaluator.from_polysymbol(H), grid, spectral=True)
    evolved = heisenberg_evolve(opa, oph, t)
    del opa, oph
    sym = symbol_from_operator(evolved)
    del evolved

    transported = evolve_evaluator(A, H, -t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = sample(transported, sym.spec)
    mask = sym.spec.interior_mask()
    diff = float(np.max(np.abs((sym.samples - ref.samples)[mask])))
    scale = float(np.max(np.abs(ref.samples[mask])))
    return {
        "interior_sup_mismatch": diff,
        "reference_sup": scale,
        "relative_mismatch": diff / scale if scale > 0 else diff,
        "time": float(t),
    }
