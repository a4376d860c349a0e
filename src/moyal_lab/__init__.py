"""Moyal star products, Weyl quantization, and bracket-equality certificates.

Exact engine (pure Python, complex-rational coefficients):
    crational, polysym, star, exppoly, certify
Numerical engine (numpy, d = 1):
    evaluators, grid, gridio, weylop
Surface:
    exprparse, cli

The numeric modules are imported lazily so the command-line entry point
can configure threading before numpy loads.
"""

from __future__ import annotations

from .conventions import CONVENTIONS
from .crational import CRational, I, i_power, neg_i_power
from .polysym import (PhasePoint, PolySymbol, Shape, ShapeError,
                      directional_power, linear_form, linear_form_symbolic,
                      poisson_bracket, symplectic_form)
from .star import (ConventionError, HbarSeries, bracket_discrepancy,
                   bracket_term, calibration_check, cj_coefficient,
                   moyal_bracket, moyal_bracket_series, moyal_product, star,
                   truncated_bracket)
from .exppoly import ExpPolySymbol, cj_exp, pure_exp_collapse, star_with_pure
from .certify import (Certificate, MpcReport, bracket_term_exp,
                      exp_test_bracket, expected_term_constant,
                      gvh_certificate, mpc_identity_check)

_NUMERIC = {name: mod for mod, names in (
    ("evaluators", "SymbolEvaluator GaussAtom poisson_bracket_eval bracket_term_eval window"),
    ("grid", "GridSpec GridSymbol sample star_grid star_quadrature_point cj_grid "
             "remainder_grid remainder_scaling_scan symplectic_fourier"),
    ("weylop", "XGrid WaveVector OperatorMatrix quantize_kernel quantize_via_covariant "
               "symbol_from_operator heisenberg_translation coherent_state expectation "
               "commutator_bracket heisenberg_evolve classical_evolve_quadratic egorov_compare"),
) for name in names.split()}


def __getattr__(name: str):
    mod = _NUMERIC.get(name)
    if mod is None:
        raise AttributeError(f"module 'moyal_lab' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)
