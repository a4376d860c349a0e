"""Moyal star products, Weyl quantization, and bracket-equality certificates.

Exact engine (pure Python, complex-rational coefficients):
    crational, polysym, star, exppoly, certify
Numerical engine (numpy, d = 1):
    evaluators, grid, gridio, weylop
Surface:
    exprparse, cli

Only conventions, crational, polysym and star load with the package, as
every subcommand needs them.  The names of exppoly, certify, evaluators,
grid and weylop load on first access (PEP 562), so a process imports only
the modules its subcommand runs, and the command-line entry point can
configure threading before numpy loads.
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

_LAZY = {name: mod for mod, names in (
    ("exppoly", "ExpPolySymbol cj_exp pure_exp_collapse star_with_pure"),
    ("certify", "Certificate MpcReport bracket_term_exp exp_test_bracket expected_term_constant "
                "gvh_certificate mpc_identity_check"),
    ("evaluators", "SymbolEvaluator GaussAtom poisson_bracket_eval bracket_term_eval window"),
    ("grid", "GridSpec GridSymbol sample star_grid star_quadrature_point cj_grid "
             "remainder_grid remainder_scaling_scan symplectic_fourier"),
    ("weylop", "XGrid WaveVector OperatorMatrix quantize_kernel quantize_via_covariant "
               "symbol_from_operator heisenberg_translation coherent_state expectation "
               "commutator_bracket heisenberg_evolve classical_evolve_quadratic egorov_compare"),
) for name in names.split()}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module 'moyal_lab' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)
