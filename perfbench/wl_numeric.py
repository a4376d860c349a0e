"""Workload `numeric`: the d = 1 grid and operator kernels.

A pass draws Gaussian widths, hbar and an evolution time from the seed and
runs, on fixed sizes:

    star_grid               gauss(a) * gauss(b) at N = 128, gauss(b) * gauss(c)
                            at N = 128, gauss(a) * gauss(c) at N = 256
    remainder_scaling_scan  N = 128, four hbar, orders 1 and 2
    quantize_kernel         gauss(c) at Nx = 1024, then symbol_from_operator
    egorov_compare          x gauss(w) under a harmonic H at Nx = 512
                            (it calls heisenberg_evolve)
    gridio                  save and load the N = 256 product and the
                            Nx = 1024 operator

All of the time goes to numpy (FFT, matmul, eigh).  The checks need only
numpy, so they run after each pass; their arrays are smaller than the
N = 256 product's temporaries, which set the peak.
"""

from __future__ import annotations

import importlib
import random
import shutil
from fractions import Fraction

BOX = 8.0                       # every grid is [-8, 8)
STAR_TOL = 1e-10                # closed-form product, interior, absolute
ROUNDTRIP_TOL = 1e-5            # the CLI's quantize --tol default
EGOROV_TOL = 1e-4               # the CLI's egorov --tol default
SPECTRUM_TOL = 1e-9             # eigenvalue drift under unitary evolution, relative
HARMONIC = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2))


class NumericWorkload:
    name = "numeric"

    def __init__(self, root, seed: int, out_dir, sizes=(128, 256, 1024, 512)):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.n_star, self.n_big, self.n_quant, self.n_egorov = sizes
        self.scratch = out_dir / "numeric-io"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        self._bind()
        self.star.calibration_check(1)
        self.inputs(0)
        # warm-up: every kernel once at a small size
        warm = NumericWorkload(self.root, self.seed, self.out_dir, sizes=(32, 32, 64, 64))
        warm._bind()
        warm.run_pass(warm.inputs(0))

    def _bind(self) -> None:
        import numpy as np

        # by module path: the package's `star` attribute is the function, not the module
        (self.ev, self.grid, self.gridio, self.polysym, self.star, self.weylop) = (
            importlib.import_module(f"moyal_lab.{m}")
            for m in ("evaluators", "grid", "gridio", "polysym", "star", "weylop"))
        self.np = np

    def inputs(self, index: int) -> dict:
        rng = random.Random(f"{self.seed}:numeric:{index}")
        return {
            "a": rng.uniform(0.6, 1.4), "b": rng.uniform(0.6, 1.4), "c": rng.uniform(0.6, 1.4),
            "hbar": rng.uniform(0.5, 0.9),
            "scan_hbar": rng.uniform(0.3, 0.5),
            "center": (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            "w": rng.uniform(0.4, 0.8),
            "omega": rng.choice(HARMONIC),
            "t": rng.uniform(0.3, 1.5),
        }

    # -- one pass --------------------------------------------------------------

    def run_pass(self, p: dict) -> list:
        grid, weylop, gridio, SE = self.grid, self.weylop, self.gridio, self.ev.SymbolEvaluator
        ops = []

        def attempt(label, fn, *args):
            try:
                ops.append((label, args, fn(*args)))
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append((label, args, exc))

        h = p["hbar"]
        for n, (a, b) in ((self.n_star, (p["a"], p["b"])), (self.n_star, (p["b"], p["c"])),
                          (self.n_big, (p["a"], p["c"]))):
            spec = grid.GridSpec(n, BOX, h)
            attempt("star_grid", lambda s=spec, a=a, b=b: grid.star_grid(
                grid.sample(SE.gauss(a), s), grid.sample(SE.gauss(b), s)))
        h0 = p["scan_hbar"]
        hbars = [h0, h0 / 2, h0 / 4, h0 / 8]
        attempt("remainder_scaling_scan", grid.remainder_scaling_scan, SE.gauss(p["a"]),
                SE.gauss(p["b"], center=p["center"]), [1, 2], hbars,
                grid.GridSpec(self.n_star, BOX, h0))
        xgrid = weylop.XGrid(self.n_quant, BOX, h)
        attempt("quantize_kernel", weylop.quantize_kernel, SE.gauss(p["c"]), xgrid)
        op = ops[-1][2]
        attempt("symbol_from_operator", weylop.symbol_from_operator, op)
        attempt("egorov_compare", weylop.egorov_compare, *self._egorov_inputs(p))
        product = ops[2][2]
        gpath, opath = self.scratch / "product", self.scratch / "operator"
        attempt("gridio.save", lambda: (gridio.save_grid_symbol(product, gpath),
                                        gridio.save_operator(op, opath)))
        attempt("gridio.load", lambda: (gridio.load_grid_symbol(gpath),
                                        gridio.load_operator(opath)))
        return ops

    def _egorov_inputs(self, p: dict) -> tuple:
        """x gauss(w), H = (omega / 2)(x^2 + xi^2), t and the operator grid."""
        P, SE = self.polysym, self.ev.SymbolEvaluator
        omega = p["omega"]
        H = P.PolySymbol(P.Shape(1), {(2, 0): omega / 2, (0, 2): omega / 2})
        return (SE.polynomial({(1, 0): 1.0}) * SE.gauss(p["w"]), H, p["t"],
                self.weylop.XGrid(self.n_egorov, BOX, p["hbar"]))

    def evolution(self, p: dict) -> list:
        """[(Op(A), A(t))] from heisenberg_evolve on egorov_compare's operators,
        made again after the pass for the spectrum check."""
        weylop = self.weylop
        A, H, t, xgrid = self._egorov_inputs(p)
        before = weylop.quantize_kernel(A, xgrid)
        oph = weylop.quantize_kernel(self.ev.SymbolEvaluator.from_polysymbol(H), xgrid,
                                     spectral=True)
        return [(before.entries, weylop.heisenberg_evolve(before, oph, t).entries)]

    # -- checks ------------------------------------------------------------------

    def after_pass(self, index: int, p: dict, ops) -> None:
        egorov = [res for label, _, res in ops if label == "egorov_compare"]
        evolved = self.evolution(p) if not isinstance(egorov[0], Exception) else []
        self.attempted += len(ops)
        self.failed += sum(1 for _, _, res in ops if isinstance(res, Exception))
        self.problems += [f"pass {index}: {msg}" for msg in check_pass(self.np, p, ops, evolved)]

    def finish(self) -> tuple[int, int, list]:
        shutil.rmtree(self.scratch, ignore_errors=True)
        return self.attempted, self.failed, self.problems


def _axis(np, n: int):
    return -BOX + (2.0 * BOX / n) * np.arange(n)


def _interior(np, n: int):
    keep = np.abs(_axis(np, n)) <= BOX / 2.0
    return keep[:, None] & keep[None, :]


def _gauss_closed(np, n: int, a: float):
    x = _axis(np, n)
    return np.exp(-a * (x[:, None] ** 2 + x[None, :] ** 2))


def check_pass(np, p: dict, ops, evolved) -> list:
    """Check one pass against closed forms and properties of the method."""
    problems = []
    res = {}
    for label, _, out in ops:
        if not isinstance(out, Exception):
            res.setdefault(label, []).append(out)
    h = p["hbar"]
    pairs = ((p["a"], p["b"]), (p["b"], p["c"]), (p["a"], p["c"]))
    for (_, _, S), (a, b) in zip(ops[:3], pairs):
        if isinstance(S, Exception):
            continue
        n = S.spec.n
        x = _axis(np, n)
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        g = 1.0 + a * b * h * h
        ref = np.exp(-(a + b) * r2 / g) / g
        err = float(np.max(np.abs(S.samples - ref)[_interior(np, n)]))
        if not err <= STAR_TOL:
            problems.append(f"star_grid N={n}: interior error {err:.3e} against the closed form")
    for scan in res.get("remainder_scaling_scan", []):
        slopes = scan["slopes"]
        s1, s2 = slopes.get(1), slopes.get(2)
        if s1 is None or s2 is None or not (s1 >= 1.5 and s2 >= 2.5 and s2 - s1 >= 0.5):
            problems.append(f"remainder slopes {slopes} do not grow with the order")
    for sym in res.get("symbol_from_operator", []):
        n = sym.spec.n
        ref = _gauss_closed(np, n, p["c"])
        mask = _interior(np, n)
        rel = float(np.max(np.abs(sym.samples - ref)[mask]) / np.max(np.abs(ref[mask])))
        if not rel <= ROUNDTRIP_TOL:
            problems.append(f"quantize round trip relative error {rel:.3e}")
    for rep in res.get("egorov_compare", []):
        if not rep["relative_mismatch"] <= EGOROV_TOL:
            problems.append(f"egorov mismatch {rep['relative_mismatch']:.3e}")
    for before, after in evolved:
        e0 = np.linalg.eigvalsh(0.5 * (before + before.conj().T))
        e1 = np.linalg.eigvalsh(0.5 * (after + after.conj().T))
        drift = float(np.max(np.abs(e1 - e0)) / max(np.max(np.abs(e0)), 1e-300))
        if not drift <= SPECTRUM_TOL:
            problems.append(f"heisenberg_evolve moved the spectrum by {drift:.3e}")
    saved_g, saved_op = ops[2][2], res.get("quantize_kernel", [None])[0]
    for loaded in res.get("gridio.load", []):
        for saved, back in zip((saved_g, saved_op), loaded):
            meta = saved.spec if hasattr(saved, "spec") else saved.grid
            meta_back = back.spec if hasattr(back, "spec") else back.grid
            data = saved.samples if hasattr(saved, "samples") else saved.entries
            data_back = back.samples if hasattr(back, "samples") else back.entries
            if not ((meta.n, meta.box, meta.hbar) == (meta_back.n, meta_back.box, meta_back.hbar)
                    and np.array_equal(data, data_back)):
                problems.append(f"gridio load of a {type(saved).__name__} differs from what was saved")
    return problems
