"""Command-line surface: moyal-lab <subcommand>.

Subcommands: star, bracket, gvh, mpc, remainder, quantize, egorov,
coherent.  Outputs are deterministic (sorted keys, exact rationals as
"p/q" strings, shortest round-trip floats); every JSON payload carries the
calibrated conventions table.  Exit codes: 0 success, 1 parse/config
error or out of memory, 2 numeric tolerance, floating-point failure or a
number too large for a float, 3 internal invariant failure or any other
error; every failure prints one "moyal-lab: ..." line to stderr and nothing
on stdout.

The environment variable MOYAL_LAB_THREADS sets the worker threads of the
numeric backends, 1 when unset, so that output does not depend on the
host's core count; it must be read before numpy loads, so the numeric
modules (evaluators, grid, gridio, weylop) are imported lazily inside the
handlers.  So is certify, with the exppoly it uses, inside `gvh` and `mpc`:
an exact `star` or `bracket` process loads neither, nor numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .conventions import CONVENTIONS
from .exprparse import check_exact_pair, lower_poly, parse_symbol, pretty
from .limits import ExprError, check_args, check_exact_rows, check_shifted_terms
from .polysym import PolySymbol
from .star import ConventionError, HbarSeries, calibration_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_INTERNAL = 3


# ------------------------------------------------------------- serialization

def poly_json(p: PolySymbol) -> list:
    """Terms in exponent order, each coefficient as reduced "p/q" strings read off the
    numerators over the symbol's one denominator."""
    shape, den = p.shape, p.den
    d = shape.d
    out = []
    for exps, parts in sorted(p.num.items()):
        term = {
            "alpha": [exps[shape.slot("x", k)] for k in range(d)],
            "beta": [exps[shape.slot("xi", k)] for k in range(d)],
        }
        if shape.has_y:
            term["y"] = [exps[shape.slot("y", k)] for k in range(d)]
            term["eta"] = [exps[shape.slot("eta", k)] for k in range(d)]
        if shape.has_hbar:
            term["hbar"] = exps[shape.slot("hbar")]
        for key, n in zip(("re", "im"), parts):
            g = math.gcd(n, den)
            term[key] = f"{n // g}/{den // g}"
        out.append(term)
    return out


def series_json(s: HbarSeries) -> dict:
    return {"orders": s.orders(),
            "coefficients": {str(j): poly_json(p) for j, p in sorted(s.coeffs.items())}}


def emit_json(payload: dict, args) -> None:
    payload = {"command": payload.pop("command"), "conventions": CONVENTIONS, **payload}
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:       # a NaN or an infinity in the payload
        raise FloatingPointError(str(exc)) from exc
    _write(text, args)


def emit_csv(rows: list[tuple], args) -> None:
    """Comma-separated rows; a float cell is written by `fmt` and must be finite."""
    if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
        raise FloatingPointError("non-finite value in the CSV output")
    _write("".join(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in rows), args)


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def fmt(x: float) -> str:
    return f"{x:.17g}"


# ------------------------------------------------------------- lowering helpers

def _poly_arg(text: str, d: int) -> tuple[PolySymbol, str]:
    """An exact operand and its canonical text, from one parse."""
    node = parse_symbol(text)
    return lower_poly(node, d=d), pretty(node)


def _poly_pair(a: str, b: str, d: int) -> tuple[PolySymbol, PolySymbol, str, str]:
    """Both operands of an exact product or bracket and their canonical texts, refused before
    lowering if too large, and after lowering if their kernel work is."""
    na, nb = parse_symbol(a), parse_symbol(b)
    check_exact_pair(na, nb, d)
    A, B = lower_poly(na, d=d), lower_poly(nb, d=d)
    check_exact_rows(A, B)
    return A, B, pretty(na), pretty(nb)


def _eval_arg(text: str):
    from .exprparse import lower_evaluator

    return lower_evaluator(parse_symbol(text))


# ------------------------------------------------------------- subcommands

def cmd_star(args) -> int:
    if args.mode == "exact":
        A, B, a_text, b_text = _poly_pair(args.A, args.B, args.d)
        from .star import moyal_product

        prod = moyal_product(A, B)
        emit_json({"command": "star", "mode": "exact", "d": args.d, "A": a_text, "B": b_text,
                   "result": series_json(prod)}, args)
        return EXIT_OK
    from .grid import GridSpec, sample, star_grid
    from .gridio import save_grid_symbol

    spec = GridSpec(args.N, args.L, args.hbar)
    GA = sample(_eval_arg(args.A), spec)
    GB = sample(_eval_arg(args.B), spec)
    S = star_grid(GA, GB)
    origin = S.samples[spec.n // 2, spec.n // 2]
    if args.save:
        save_grid_symbol(S, args.save)
    emit_json({"command": "star", "mode": "grid",
               "grid": {"N": spec.n, "L": spec.box, "hbar": spec.hbar},
               "result": {"interior_sup": float(S.interior_sup()),
                          "origin": {"re": float(origin.real), "im": float(origin.imag)},
                          "saved": bool(args.save)}}, args)
    return EXIT_OK


def cmd_bracket(args) -> int:
    from .star import _bracket_split, moyal_bracket
    from .polysym import poisson_bracket

    A, H, a_text, h_text = _poly_pair(args.A, args.H, args.d)
    result = {}
    if args.mode in ("poisson", "both"):
        result["poisson"] = poly_json(poisson_bracket(A, H))
    if args.mode in ("moyal", "both"):
        result["moyal"] = series_json(moyal_bracket(A, H))
    if args.mode == "truncated":
        truncated, discrepancy = _bracket_split(A, H, args.m)
        result["truncated"] = series_json(truncated)
        result["discrepancy"] = series_json(discrepancy)
        result["m"] = args.m
    emit_json({"command": "bracket", "mode": args.mode, "d": args.d, "A": a_text, "H": h_text,
               "result": result}, args)
    return EXIT_OK


def cmd_gvh(args) -> int:
    from .certify import gvh_certificate

    H, h_text = _poly_arg(args.H, args.d)
    # one kernel call per m whose witness order 2m + 3 is at most deg H
    check_shifted_terms(H, len(range(3, min(H.degree(), 2 * args.max_m + 3) + 1, 2)))
    results = []
    for m in range(args.max_m + 1):
        cert = gvh_certificate(H, m)
        entry = {"m": m, "equal": cert.equal, "degree": cert.degree}
        if not cert.equal:
            entry["failing_order"] = cert.failing_order
            entry["witness"] = poly_json(cert.witness)
        results.append(entry)
    emit_json({"command": "gvh", "d": args.d, "H": h_text, "results": results}, args)
    return EXIT_OK


def cmd_mpc(args) -> int:
    from .certify import mpc_identity_check

    H, h_text = _poly_arg(args.H, args.d)
    check_shifted_terms(H)
    rep = mpc_identity_check(H)
    result = {
        "lhs_closed_form": poly_json(rep.lhs_closed_form),
        "c0": poly_json(rep.c0),
        "c1": poly_json(rep.c1),
        "c2": poly_json(rep.c2),
        "taylor_defect_at_hbar_1": poly_json(rep.taylor_defect),
        "taylor_defect_vanishes": rep.taylor_defect.is_zero,
        "mirrored_shift_sign": rep.mirrored_shift_sign,
    }
    if rep.printed_c2_delta is not None:
        result["printed_c2_delta"] = poly_json(rep.printed_c2_delta)
        result["printed_c2_delta_vanishes"] = rep.printed_c2_delta.is_zero
    emit_json({"command": "mpc", "d": args.d, "H": h_text, "result": result}, args)
    return EXIT_OK


def cmd_remainder(args) -> int:
    from .grid import GridSpec, remainder_scaling_scan

    spec = GridSpec(args.N, args.L, args.hbars_list[0])
    res = remainder_scaling_scan(_eval_arg(args.A), _eval_arg(args.B),
                                 args.orders_list, args.hbars_list, spec)
    if args.format == "csv":
        slopes = res["slopes"]
        emit_csv([("order", "hbar", "sup_norm"), *res["rows"], ("order", "slope", ""),
                  *[(o, "exact-within-noise" if slopes[o] is None else slopes[o], "")
                    for o in args.orders_list]], args)
    else:
        emit_json({"command": "remainder",
                   "grid": {"N": args.N, "L": args.L},
                   "orders": args.orders_list, "hbars": args.hbars_list,
                   "result": {
                       "rows": [{"order": o, "hbar": h, "sup_norm": s}
                                for o, h, s in res["rows"]],
                       "slopes": {str(o): res["slopes"][o] for o in args.orders_list},
                   }}, args)
    return EXIT_OK


def cmd_quantize(args) -> int:
    import numpy as np

    from .grid import GridSpec, sample
    from .gridio import save_operator
    from .weylop import quantize_kernel, symbol_from_operator

    grid = GridSpec(args.Nx, args.L, args.hbar)
    ev = _eval_arg(args.A)
    if args.spectral and any(a.Q is None and a.poly[:, 1:].any() for a in ev.atoms):
        raise ValueError("--spectral: the round trip cannot recover a term in xi "
                         "without a Gaussian envelope")
    M = quantize_kernel(ev, grid, spectral=args.spectral)
    herm = M.hermiticity_defect()
    sym = symbol_from_operator(M)
    ref = sample(ev, sym.spec)
    mask = sym.spec.interior_mask()
    err = float(np.max(np.abs((sym.samples - ref.samples)[mask])))
    scale = float(np.max(np.abs(ref.samples[mask])))
    if scale > 0 and err / scale > args.tol:
        return _fail(EXIT_TOLERANCE, f"round-trip error {err:.3g} of scale {scale:.3g} exceeds "
                                     f"--tol {args.tol:g}")
    if args.save:
        save_operator(M, args.save)
    payload = {"command": "quantize",
               "grid": {"Nx": grid.n, "L": grid.box, "hbar": grid.hbar},
               "spectral": bool(args.spectral),
               "result": {"hermiticity_defect": herm,
                          "roundtrip_interior_sup_error": err,
                          "roundtrip_scale": scale,
                          "saved": bool(args.save)}}
    emit_json(payload, args)
    return EXIT_OK


def cmd_egorov(args) -> int:
    from .grid import GridSpec
    from .weylop import egorov_compare

    H, h_text = _poly_arg(args.H, 1)
    if H.degree() > 2:
        raise ExprError("egorov requires deg H <= 2", 0)
    grid = GridSpec(args.Nx, args.L, args.hbar)
    rep = egorov_compare(_eval_arg(args.A), H, args.t, grid)
    if rep["relative_mismatch"] > args.tol:
        return _fail(EXIT_TOLERANCE, f"relative mismatch {rep['relative_mismatch']:.3g} exceeds "
                                     f"--tol {args.tol:g}")
    emit_json({"command": "egorov",
               "grid": {"Nx": grid.n, "L": grid.box, "hbar": grid.hbar},
               "H": h_text, "t": args.t, "result": rep}, args)
    return EXIT_OK


def cmd_coherent(args) -> int:
    import warnings

    import numpy as np

    from .grid import GridSpec
    from .weylop import coherent_state, expectation, quantize_kernel

    y, eta = args.Y
    ev = _eval_arg(args.A)
    rows = []
    errs = []
    for hbar in args.hbars_list:
        grid = GridSpec(args.Nx, args.L, hbar)
        phi = coherent_state((y, eta), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op = quantize_kernel(ev, grid)
        e = expectation(op, phi)
        del op      # the next hbar's operator is built without this one alive
        val = complex(ev(np.array(y), np.array(eta)))
        err = abs(e - val)
        errs.append(err)
        rows.append({"hbar": hbar, "expectation": {"re": e.real, "im": e.imag},
                     "symbol_at_Y": {"re": val.real, "im": val.imag},
                     "abs_error": err})
    slope = None
    pts = [(h, e) for h, e in zip(args.hbars_list, errs) if e > 1e-14]
    if len(pts) >= 2:
        slope = float(np.polyfit(np.log([p[0] for p in pts]),
                                 np.log([p[1] for p in pts]), 1)[0])
    emit_json({"command": "coherent",
               "grid": {"Nx": args.Nx, "L": args.L},
               "Y": {"y": y, "eta": eta},
               "result": {"rows": rows, "slope": slope}}, args)
    return EXIT_OK


# ------------------------------------------------------------- dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="moyal-lab",
                description="Star products, bracket certificates, and Weyl "
                            "quantization on phase space")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, d=True):
        sp.add_argument("--out", help="write output to a file instead of stdout")
        if d:
            sp.add_argument("--d", type=int, default=1, help="phase-space dimension")

    sp = sub.add_parser("star", help="Moyal product, exact or on the grid")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--mode", choices=("exact", "grid"), default="exact")
    sp.add_argument("--N", type=int, default=64)
    sp.add_argument("--L", type=float, default=6.0)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--save", help="store the grid result (binary + sidecar)")
    common(sp)
    sp.set_defaults(func=cmd_star)

    sp = sub.add_parser("bracket", help="Poisson / Moyal / truncated brackets")
    sp.add_argument("--A", required=True)
    sp.add_argument("--H", required=True)
    sp.add_argument("--mode", choices=("poisson", "moyal", "truncated", "both"),
                    default="both")
    sp.add_argument("--m", type=int, default=0, help="truncation order")
    common(sp)
    sp.set_defaults(func=cmd_bracket)

    sp = sub.add_parser("gvh", help="bracket-equality certificates")
    sp.add_argument("--H", required=True)
    sp.add_argument("--max-m", dest="max_m", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_gvh)

    sp = sub.add_parser("mpc", help="conjugation-identity expansion report")
    sp.add_argument("--H", required=True)
    common(sp)
    sp.set_defaults(func=cmd_mpc)

    sp = sub.add_parser("remainder", help="series-remainder scaling scan")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--hbars", required=True)
    sp.add_argument("--N", type=int, default=64)
    sp.add_argument("--L", type=float, default=8.0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp, d=False)
    sp.set_defaults(func=cmd_remainder)

    sp = sub.add_parser("quantize", help="build a Weyl operator and round-trip it")
    sp.add_argument("--A", required=True)
    sp.add_argument("--Nx", type=int, default=128)
    sp.add_argument("--L", type=float, default=8.0)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--spectral", action="store_true",
                    help="exact periodic spectral lattice; the round trip recovers position "
                         "polynomials and Gaussian-enveloped terms, and a term in xi "
                         "without a Gaussian envelope exits 1")
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--save", help="store the operator (binary + sidecar)")
    common(sp, d=False)
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("egorov", help="quadratic quantum vs classical transport")
    sp.add_argument("--A", required=True)
    sp.add_argument("--H", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--Nx", type=int, default=256)
    sp.add_argument("--L", type=float, default=8.0)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-4)
    common(sp, d=False)
    sp.set_defaults(func=cmd_egorov)

    sp = sub.add_parser("coherent", help="coherent-state expectation sweep")
    sp.add_argument("--A", required=True)
    sp.add_argument("--Y", required=True, help="y,eta")
    sp.add_argument("--hbars", required=True)
    sp.add_argument("--Nx", type=int, default=256)
    sp.add_argument("--L", type=float, default=8.0)
    common(sp, d=False)
    sp.set_defaults(func=cmd_coherent)

    return p


def main(argv=None) -> int:
    import warnings

    threads = os.environ.get("MOYAL_LAB_THREADS") or "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    parser = build_parser()
    args = parser.parse_args(argv)
    # a failure prints its one line only; a success shows the warnings its run raised
    with warnings.catch_warnings(record=True) as caught:
        code = _run(args)
    if code == EXIT_OK:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(args) -> int:
    """The handler of `args`, once the front door (`limits.check_args`) admits them, with every
    failure mapped to its exit code and one line."""
    try:
        numeric = check_args(args)
        calibration_check(1)
        if not numeric:
            return args.func(args)      # exact handlers never load numpy
        import numpy as np

        with np.errstate(over="raise", invalid="raise"):    # exits 2, as FloatingPointError
            return args.func(args)
    except (ExprError, ValueError, OSError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_CONFIG, f"out of memory: {str(exc) or type(exc).__name__}")
    except (FloatingPointError, OverflowError) as exc:
        return _fail(EXIT_TOLERANCE, f"floating-point failure: {exc}")
    except ConventionError as exc:
        return _fail(EXIT_INTERNAL, f"internal invariant failure: {exc}")
    except Exception as exc:  # the last boundary: any other failure is a bug, reported in one line
        return _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")


def _fail(code: int, message: str) -> int:
    print("moyal-lab: " + " ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
