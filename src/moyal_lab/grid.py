"""Numerical star products on a periodic phase-space grid (d = 1).

Symbols are sampled on [-L, L) x [-L, L) with N points per axis.  Two
independent discretizations of the product are provided and tested against
each other:

* `star_grid` expands the left factor in discrete Fourier modes and uses
  the exact collapse rule for each mode,
      e^{i k.X} * B = e^{i k.X} B(x + hbar k_xi / 2, xi - hbar k_x / 2),
  the fractional translations applied as Fourier phase ramps (exact on
  band-limited periodic data).  The mode sum is factorized by axis, so the
  time is O(N^3 log N) rather than the naive O(N^4 log N), and it runs
  one x-mode at a time through three reused N x N buffers, so the memory
  is O(N^2).

* `star_quadrature_point` discretizes the integral form
      (A*B)(X) = (pi hbar)^{-2} II e^{-(2i/hbar) sigma(u,v)} A(X+u) B(X+v) du dv
  at a single point (slow; used as an oracle in tests).

Interior norms use the central half box |x|, |xi| <= L/2, keeping
periodic wrap-around out of every comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evaluators import SymbolEvaluator
# the caps and checks that lived here stay importable from this module
from .limits import (GRID_WORK_CAP, ROW_BLOCK, RUN_BYTES_CAP, check_grid_bytes,  # noqa: F401
                     check_grid_work, check_lattice, check_series_orders)

BOUNDARY_DECAY = 1e-12
ORACLE_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Periodic lattice: N points per axis on [-L, L), plus hbar.

    The one lattice of the numeric engine: phase-space grids use it on both
    axes, operators and wavefunctions (`weylop`) on the position axis.
    """

    n: int
    box: float
    hbar: float

    def __post_init__(self):
        check_lattice(self.n, self.box, self.hbar)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "box", float(self.box))
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def step(self) -> float:
        return 2.0 * self.box / self.n

    def axis(self) -> np.ndarray:
        return -self.box + self.step * np.arange(self.n)

    def omega(self) -> np.ndarray:
        """Angular frequencies of the periodic grid."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.step)

    def momenta(self) -> np.ndarray:
        return self.hbar * self.omega()

    def meshes(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def interior_mask(self) -> np.ndarray:
        x = self.axis()
        keep = np.abs(x) <= self.box / 2.0
        return keep[:, None] & keep[None, :]


class GridSymbol:
    """Complex samples of a symbol; samples[i, j] = A(x_i, xi_j)."""

    __slots__ = ("spec", "samples")

    def __init__(self, spec: GridSpec, samples: np.ndarray):
        arr = np.ascontiguousarray(samples, dtype=complex)
        if arr.shape != (spec.n, spec.n):
            raise ValueError(f"samples must be {spec.n} x {spec.n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite samples")
        arr.flags.writeable = False
        self.spec = spec
        self.samples = arr

    def interior_sup(self) -> float:
        return float(np.max(np.abs(self.samples[self.spec.interior_mask()])))


def _check_specs(*gs: GridSymbol) -> GridSpec:
    spec = gs[0].spec
    for g in gs[1:]:
        if g.spec != spec:
            raise ValueError("grid specs do not match")
    return spec


def sample(f: SymbolEvaluator, spec: GridSpec) -> GridSymbol:
    """Sample an evaluator; warns when the box boundary is not quiet.

    Rows run in blocks of `ROW_BLOCK` into one preallocated output, so the
    evaluator's transients are ROW_BLOCK x N arrays.  Each block is a slice
    of the whole grid's meshes, so every value keeps its bits.
    """
    x = spec.axis()
    vals = np.empty((spec.n, spec.n), dtype=complex)
    for r0 in range(0, spec.n, ROW_BLOCK):
        vals[r0:r0 + ROW_BLOCK] = f(*np.meshgrid(x[r0:r0 + ROW_BLOCK], x, indexing="ij"))
    frame = max(np.max(np.abs(vals[0, :])), np.max(np.abs(vals[:, 0])))
    if frame > BOUNDARY_DECAY and np.max(np.abs(vals)) > 0:
        warnings.warn(f"symbol magnitude {frame:.3e} on the box boundary "
                      f"exceeds the decay guard {BOUNDARY_DECAY:.0e}",
                      stacklevel=2)
    return GridSymbol(spec, vals)


def star_grid(A: GridSymbol, B: GridSymbol) -> GridSymbol:
    """A * B by the factorized mode-shift sum (deterministic reduction).

    Time O(N^3 log N), memory O(N^2): the sum over the left factor's
    x-modes m runs one mode at a time through three N x N work buffers.
    Each mode is added in place, in m order, which rounds as the one-batch
    sum does (summing partials of several modes would not), and N is a
    power of two, so norm="forward" scales exactly as / N and * N would.
    """
    spec = _check_specs(A, B)
    n = spec.n
    om = spec.omega()

    C = np.fft.fft2(A.samples) / (n * n)              # index-space mode coefficients
    half = 0.5 * spec.hbar * om
    FB = np.fft.fft(B.samples, axis=1)
    phase = np.exp(1j * om[:, None] * half[None, :])  # [p, n]
    E = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # [m, a]
    out = np.zeros((n, n), dtype=complex)
    U, V, T = (np.empty((n, n), dtype=complex) for _ in range(3))
    for m in range(n):
        # Bs[a, b] = B(x_a, xi_b - hbar om_m / 2), then Bp[p, b]: its x-mode coefficients
        np.multiply(FB, np.exp(-1j * om * half[m]), out=U)
        np.fft.ifft(U, axis=1, out=V)
        np.fft.fft(V, axis=0, norm="forward", out=U)
        # W[p, b] = sum_n C[m, n] e^{i hbar om_p om_n / 2} e^{2 pi i n b / N}
        np.multiply(C[m], phase, out=V)
        np.fft.ifft(V, axis=1, norm="forward", out=T)
        np.multiply(U, T, out=V)
        np.fft.ifft(V, axis=0, norm="forward", out=T)   # T[a, b]
        np.einsum("a,ab->ab", E[m], T, out=U)
        np.add(out, U, out=out)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("star product produced non-finite values")
    return GridSymbol(spec, out)


def star_quadrature_point(A: SymbolEvaluator, B: SymbolEvaluator,
                          X, spec: GridSpec, refine_check: bool = True) -> complex:
    """Single-point oracle from the integral form of the product.

    Discretizes the double phase-space integral with the calibrated phase
    orientation exp(-(2i/hbar) sigma(u, v)); cost O(N^3) per point via the
    factorization of the oscillatory kernel.  When `refine_check` is set
    the value is recomputed at doubled resolution and a warning is issued
    if the two disagree beyond `ORACLE_TOL`.
    """
    x0, xi0 = float(X[0]), float(X[1])

    def compute(n: int) -> complex:
        step = 2.0 * spec.box / n
        u = -spec.box + step * np.arange(n)
        Ux, Uxi = np.meshgrid(u, u, indexing="ij")
        Av = A(x0 + Ux, xi0 + Uxi)
        Bv = B(x0 + Ux, xi0 + Uxi)
        c = 2.0 / spec.hbar
        E1 = np.exp(1j * c * np.outer(u, u))    # [u_x, v_xi]
        E2 = np.exp(-1j * c * np.outer(u, u))   # [v_x, u_xi]
        S = E1 @ Bv.T @ E2                      # [u_x, u_xi]
        val = np.sum(Av * S) * step ** 4
        return complex(val / (np.pi * spec.hbar) ** 2)

    coarse = compute(spec.n)
    if not refine_check:
        return coarse
    fine = compute(2 * spec.n)
    scale = max(abs(fine), 1.0)
    if abs(fine - coarse) > ORACLE_TOL * scale:
        warnings.warn(f"quadrature not converged: |I_N - I_2N| = "
                      f"{abs(fine - coarse):.3e}", stacklevel=2)
    return fine


def _spectral_partial(samples: np.ndarray, spec: GridSpec, axis: int, order: int) -> np.ndarray:
    if order == 0:
        return samples
    om = spec.omega()
    mult = (1j * om) ** order
    shape = (-1, 1) if axis == 0 else (1, -1)
    return np.fft.ifft(np.fft.fft(samples, axis=axis) * mult.reshape(shape), axis=axis)


def cj_grid(A: GridSymbol, B: GridSymbol, j: int) -> GridSymbol:
    """The j-th bidifferential coefficient by spectral differentiation.

    C_j = (-i/2)^j sum_{a+b=j} (-1)^b / (a! b!) (d_x^b d_xi^a A)(d_x^a d_xi^b B).
    """
    spec = _check_specs(A, B)
    if j < 0:
        raise ValueError("order must be >= 0")
    check_series_orders([j])
    from math import factorial
    acc = np.zeros_like(A.samples)
    for a in range(j + 1):
        b = j - a
        dA = _spectral_partial(_spectral_partial(A.samples, spec, 0, b), spec, 1, a)
        dB = _spectral_partial(_spectral_partial(B.samples, spec, 0, a), spec, 1, b)
        coeff = (-1.0) ** b / (factorial(a) * factorial(b))
        acc = acc + coeff * dA * dB
    return GridSymbol(spec, acc * (-0.5j) ** j)


def remainder_grid(A: GridSymbol, B: GridSymbol, order: int) -> GridSymbol:
    """R_order = A*B - sum_{j <= order} hbar^j C_j."""
    spec = _check_specs(A, B)
    acc = star_grid(A, B).samples.copy()
    for j in range(order + 1):
        acc -= spec.hbar ** j * cj_grid(A, B, j).samples
    return GridSymbol(spec, acc)


def remainder_scaling_scan(A: SymbolEvaluator, B: SymbolEvaluator,
                           orders, hbars, spec: GridSpec):
    """Sup-norm of the series remainder over an hbar sweep, with fitted slopes.

    Returns {"rows": [(order, hbar, sup)], "slopes": {order: slope}}.
    Sup-norms below 1e-12 are reported with slope None ("exact within
    noise"): linear inputs make every remainder vanish identically.
    """
    check_series_orders(orders)
    specs = [GridSpec(spec.n, spec.box, h) for h in hbars]     # every hbar checked before sampling
    rows = []
    slopes = {}
    sups: dict[int, list[tuple[float, float]]] = {o: [] for o in orders}
    for h, sp in zip(hbars, specs):
        by_order = _remainder_sups(A, B, max(orders), h, sp)
        for order in orders:
            rows.append((order, float(h), by_order[order]))
            sups[order].append((float(h), by_order[order]))
    for order in orders:
        pts = [(h, s) for h, s in sups[order] if s > 1e-12]
        if len(pts) < 2:
            slopes[order] = None
        else:
            lh = np.log([p[0] for p in pts])
            ls = np.log([p[1] for p in pts])
            slopes[order] = float(np.polyfit(lh, ls, 1)[0])
    return {"rows": rows, "slopes": slopes}


def _remainder_sups(A: SymbolEvaluator, B: SymbolEvaluator, top: int, h,
                    sp: GridSpec) -> list[float]:
    """Interior sup-norms of A*B - sum_{j <= order} h^j C_j for order = 0..top.

    The partial sum is carried from one order to the next, so one C_j is
    alive at a time; its additions run in j order, as a fresh sum would.
    """
    GA, GB = sample(A, sp), sample(B, sp)
    prod = star_grid(GA, GB).samples
    mask = sp.interior_mask()
    partial_sum = 0
    out = []
    for j in range(top + 1):
        partial_sum = partial_sum + h ** j * cj_grid(GA, GB, j).samples
        out.append(float(np.max(np.abs((prod - partial_sum)[mask]))))
    return out


def symplectic_fourier(A: GridSymbol) -> GridSymbol:
    """A_sigma(Y) = Int A(z) e^{-i sigma(Y, z)} dz on the same grid.

    sigma(Y, z) = eta z_x - y z_xi, so the transform is an ordinary 2-d
    Fourier transform with the frequency variables symplectically rotated.
    Evaluated by direct quadrature at the grid's own (y, eta) points, which
    keeps the output on the input lattice for any (N, L).
    """
    spec = A.spec
    z = spec.axis()
    Eeta = np.exp(-1j * np.outer(z, z))   # [eta, z_x]
    Ey = np.exp(1j * np.outer(z, z))      # [z_xi, y]
    out = (Eeta @ A.samples @ Ey).T * spec.step ** 2   # [y, eta]
    return GridSymbol(spec, out)


def poisson_bracket_grid(A: GridSymbol, B: GridSymbol) -> GridSymbol:
    """Spectral {A,B} = d_xi A d_x B - d_x A d_xi B."""
    spec = _check_specs(A, B)
    dxa = _spectral_partial(A.samples, spec, 0, 1)
    dxia = _spectral_partial(A.samples, spec, 1, 1)
    dxb = _spectral_partial(B.samples, spec, 0, 1)
    dxib = _spectral_partial(B.samples, spec, 1, 1)
    return GridSymbol(spec, dxia * dxb - dxa * dxib)


def moyal_bracket_grid(A: GridSymbol, B: GridSymbol) -> GridSymbol:
    """(i/hbar)(A*B - B*A)."""
    spec = _check_specs(A, B)
    com = star_grid(A, B).samples - star_grid(B, A).samples
    return GridSymbol(spec, 1j / spec.hbar * com)
