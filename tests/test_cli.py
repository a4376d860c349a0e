import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import moyal_lab
import moyal_lab.grid
from moyal_lab import cli

CLI = [sys.executable, "-m", "moyal_lab.cli"]


def run_cli(*argv):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True)


def test_gvh_subcommand_values():
    out = run_cli("gvh", "--H", "x^3", "--max-m", "2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert "conventions" in data
    res = {r["m"]: r for r in data["results"]}
    assert res[0]["equal"] is False
    assert res[0]["failing_order"] == 3
    # witness proportional to y^3: i y^3 / 4
    w = res[0]["witness"]
    assert w == [{"alpha": [0], "beta": [0], "y": [3], "eta": [0],
                  "re": "0/1", "im": "1/4"}]
    assert res[1]["equal"] is True
    assert res[2]["equal"] is True


def test_bracket_subcommand_values():
    out = run_cli("bracket", "--A", "xi^3", "--H", "x^3", "--mode", "both")
    data = json.loads(out.stdout)
    assert data["result"]["poisson"] == [
        {"alpha": [2], "beta": [2], "re": "9/1", "im": "0/1"}]
    moyal = data["result"]["moyal"]
    assert moyal["orders"] == [0, 2]
    assert moyal["coefficients"]["2"] == [
        {"alpha": [0], "beta": [0], "re": "-3/2", "im": "0/1"}]


def test_star_exact_calibration():
    out = run_cli("star", "--A", "x", "--B", "xi")
    data = json.loads(out.stdout)
    assert data["result"]["coefficients"]["1"] == [
        {"alpha": [0], "beta": [0], "re": "0/1", "im": "1/2"}]


def test_mpc_subcommand():
    out = run_cli("mpc", "--H", "x^3")
    data = json.loads(out.stdout)
    res = data["result"]
    assert res["taylor_defect_vanishes"] is False
    assert res["taylor_defect_at_hbar_1"] == [
        {"alpha": [0], "beta": [0], "y": [3], "eta": [0],
         "re": "-1/4", "im": "0/1"}]
    assert res["printed_c2_delta_vanishes"] is True   # x^3 has no mixed partials
    out2 = run_cli("mpc", "--H", "x^2*xi")
    assert json.loads(out2.stdout)["result"]["printed_c2_delta_vanishes"] is False


def test_determinism_byte_identical():
    a = run_cli("gvh", "--H", "x^4 + 3/2*x*xi", "--max-m", "1")
    b = run_cli("gvh", "--H", "x^4 + 3/2*x*xi", "--max-m", "1")
    assert a.stdout == b.stdout
    c = run_cli("remainder", "--A", "gauss(1)", "--B", "x*gauss(1)",
                "--orders", "1", "--hbars", "0.4,0.2", "--N", "32", "--L", "6",
                "--format", "csv")
    d = run_cli("remainder", "--A", "gauss(1)", "--B", "x*gauss(1)",
                "--orders", "1", "--hbars", "0.4,0.2", "--N", "32", "--L", "6",
                "--format", "csv")
    assert c.returncode == 0 and c.stdout == d.stdout


def test_exit_codes():
    assert run_cli("bracket", "--A", "x +", "--H", "x").returncode == 1
    assert run_cli("star", "--A", "gauss(1)", "--B", "x").returncode == 1  # exact mode
    assert run_cli("nonsense").returncode == 1
    # malformed values: a config error with a one-line message, never a
    # traceback or a silently empty result
    for argv in (["star", "--A", "gauss(1)", "--B", "gauss(1)", "--mode", "grid",
                  "--hbar", "nan"],
                 ["remainder", "--A", "gauss(1)", "--B", "gauss(1)", "--orders", "1",
                  "--hbars", ","],
                 ["coherent", "--A", "x^2", "--Y", "1,0", "--hbars", ","],
                 ["gvh", "--H", "x^3", "--max-m", "-1"],
                 ["remainder", "--A", "gauss(1)", "--B", "gauss(1)", "--orders", "-1",
                  "--hbars", "0.5,0.25", "--N", "32", "--format", "csv"]):
        out = run_cli(*argv)
        assert out.returncode == 1, argv
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and "Traceback" not in out.stderr


def _array_memory_error():
    """numpy's own allocation failure, built without allocating anything."""
    exceptions = getattr(np, "_core", None) or np.core
    return exceptions._exceptions._ArrayMemoryError((1024,) * 3, np.dtype(np.complex128))


@pytest.mark.parametrize("make_exc, code", [
    (lambda: MemoryError("no room"), 1),
    (_array_memory_error, 1),
    (lambda: FloatingPointError("invalid value encountered in multiply"), 2),
    (lambda: RuntimeError("unexpected\nstate"), 3),
    (lambda: KeyError("slot"), 3),
    (lambda: cli.ConventionError("sign drift"), 3),
])
def test_exit_code_contract_in_process(monkeypatch, capsys, make_exc, code):
    def failing_star_grid(*args, **kwargs):
        raise make_exc()

    monkeypatch.setattr(moyal_lab.grid, "star_grid", failing_star_grid)
    rc = cli.main(["star", "--A", "gauss(1)", "--B", "gauss(1)", "--mode", "grid",
                   "--N", "16", "--L", "6"])
    out, err = capsys.readouterr()
    assert rc == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("moyal-lab: ")
    assert "Traceback" not in err


def test_bare_memory_error_is_named(monkeypatch, capsys):
    # MemoryError() has no text; the one stderr line must still say what failed
    def failing_star_grid(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(moyal_lab.grid, "star_grid", failing_star_grid)
    rc = cli.main(["star", "--A", "gauss(1)", "--B", "gauss(1)", "--mode", "grid",
                   "--N", "16", "--L", "6"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.splitlines() == ["moyal-lab: out of memory: MemoryError"]


@pytest.mark.parametrize("symbol", ["xi^2", "x^2 + xi^2", "x*xi"])
def test_quantize_spectral_rejects_momentum_polynomials(capsys, symbol):
    # the round trip cannot recover a term in xi without a Gaussian envelope
    rc = cli.main(["quantize", "--A", symbol, "--Nx", "64", "--L", "8", "--spectral"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("moyal-lab: --spectral")


@pytest.mark.parametrize("symbol", ["x^2", "gauss(1)", "xi*gauss(1)"])
def test_quantize_spectral_accepts_position_and_enveloped_symbols(capsys, symbol):
    # x^2 does not decay at the box edge, so the boundary-decay guard warns
    decay = pytest.warns(UserWarning, match="box boundary") if symbol == "x^2" else contextlib.nullcontext()
    with decay:
        rc = cli.main(["quantize", "--A", symbol, "--Nx", "64", "--L", "8", "--spectral"])
    res = json.loads(capsys.readouterr().out)["result"]
    assert rc == 0
    assert res["roundtrip_interior_sup_error"] <= 1e-5 * res["roundtrip_scale"]
    if symbol == "x^2":
        assert res == {"hermiticity_defect": 0.0, "roundtrip_interior_sup_error": 0.0,
                       "roundtrip_scale": 16.0, "saved": False}


@pytest.mark.parametrize("argv", [
    ["quantize", "--A", "gauss(1)", "--Nx", "16384"],
    ["egorov", "--A", "x*gauss(1/4)", "--H", "1/2*x^2 + 1/2*xi^2", "--t", "0.7", "--Nx", "16384"],
    ["coherent", "--A", "x^2", "--Y", "1,0.5", "--hbars", "0.5", "--Nx", "16384"],
], ids=lambda argv: argv[0])
def test_operator_runs_beyond_the_memory_cap_exit_before_allocating(argv):
    # the closed-form peak is checked before any N x N array exists
    start = time.perf_counter()
    out = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 1 and out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("moyal-lab: Nx = 16384 needs about ") and "GiB" in out.stderr


@pytest.mark.parametrize("power", [3000, 100000000])
def test_exact_degree_beyond_the_cap_exits_before_expanding(power):
    # the degree bound is read off the expression; no power is expanded
    A = f"x^{power}*xi^{power}"
    start = time.perf_counter()
    out = run_cli("star", "--A", A, "--B", A)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.splitlines() == [
        f"moyal-lab: degree bound {2 * power} exceeds the exact engine's cap of 64 (at position 0)"]


DENSE_D3 = "(x1+x2+x3+xi1+xi2+xi3+{})^12"      # 18,564 terms each


@pytest.mark.parametrize("argv, message", [
    (["star", "--A", "2^100000000", "--B", "x"],
     "coefficient bound of 200000000 bits exceeds the exact engine's cap of 4096 bits (at position 0)"),
    (["star", "--d", "3", "--A", DENSE_D3.format(1), "--B", DENSE_D3.format(2)],
     "term-pair estimate 344622096 exceeds the exact engine's cap of 1000000"),
    (["bracket", "--d", "3", "--A", DENSE_D3.format(1), "--H", DENSE_D3.format(2), "--mode", "poisson"],
     "term-pair estimate 344622096 exceeds the exact engine's cap of 1000000"),
    (["star", "--d", "1000000000", "--A", "x1", "--B", "xi1"],
     "dimension 1000000000 exceeds the exact engine's cap of 64"),
    (["mpc", "--d", "65", "--H", "x1^3"], "dimension 65 exceeds the exact engine's cap of 64"),
    (["star", "--d", "-1", "--A", "x^2", "--B", "xi"], "dimension must be >= 1, got -1"),
    (["gvh", "--H", "x^3", "--max-m", "1000000000"], "--max-m must be at most 31: every H within the degree cap of 64 is Equal from there on"),
    (["mpc", "--H", "(x+xi+1)^64"], "shifted-term estimate 814385 exceeds the exact engine's cap of 100000"),
    (["gvh", "--H", "(x+xi+1)^64", "--max-m", "3"],
     "shifted-term estimate 814385 exceeds the exact engine's cap of 100000"),
], ids=["literal-power", "star-pairs", "bracket-pairs", "star-dimension", "mpc-dimension",
        "negative-dimension", "gvh-max-m", "mpc-shifted-terms", "gvh-shifted-terms"])
def test_exact_size_caps_exit_before_expanding(capsys, argv, message):
    # coefficient bits and term pairs are read off the expressions; nothing is lowered but the
    # one operand of gvh and mpc, whose shifted terms are counted before any shift is built
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"moyal-lab: {message}"]


@pytest.mark.parametrize("argv", [
    ["star", "--A", "(x+xi+1)^40", "--B", "(x+xi+2)^40"],
    ["bracket", "--A", "(x+xi+1)^40", "--H", "(x+xi+2)^40", "--mode", "moyal"],
], ids=lambda argv: argv[0])
def test_exact_pair_rows_beyond_the_cap_exit_after_lowering(capsys, argv):
    # 861 x 861 terms pass the pair cap, but each pair reaches 41 orders
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "moyal-lab: pair-row estimate 30394161 exceeds the exact engine's cap of 2000000"]


D8_POWER = "(x1+x2+x3+x4+x5+x6+x7+x8+xi1+xi2+xi3+xi4+xi5+xi6+xi7+xi8+1)^12"
D2_PRODUCT = "(x1+x2+xi1+xi2+1)^16*(x1+x2+xi1+xi2+2)^16"     # 4,845 terms in each factor


@pytest.mark.parametrize("argv, pairs", [
    (["gvh", "--d", "8", "--H", D8_POWER], 1268421),
    (["mpc", "--d", "8", "--H", D8_POWER], 1268421),
    (["star", "--d", "2", "--A", D2_PRODUCT, "--B", "1"], 23474025),
    (["gvh", "--d", "2", "--H", D2_PRODUCT], 23474025),
], ids=["gvh-d8-power", "mpc-d8-power", "star-d2-product", "gvh-d2-product"])
def test_lowering_refuses_a_product_above_the_pair_cap(argv, pairs):
    # the expression's bounds cap degree and bits, not the terms of each product formed while
    # lowering: these ran for more than 20 s each before they printed or were refused
    start = time.perf_counter()
    out = run_cli(*argv)
    assert time.perf_counter() - start < 5.0
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.splitlines() == [
        f"moyal-lab: term-pair estimate {pairs} exceeds the exact engine's cap of 1000000"]


@pytest.mark.parametrize("argv, message", [
    (["star", "--mode", "grid", "--A", "2^100000000*gauss(1)", "--B", "gauss(1)", "--N", "16"],
     "coefficient bound of 200000001 bits exceeds the exact engine's cap of 4096 bits (at position 0)"),
    (["quantize", "--A", "x^100*gauss(1)", "--Nx", "16"],
     "degree bound 100 exceeds the exact engine's cap of 64 (at position 0)"),
], ids=["star-grid", "quantize"])
def test_grid_lowering_caps_exit_before_expanding(capsys, argv, message):
    # numeric symbols lower exactly, so the exact caps bound them before any power expands
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"moyal-lab: {message}"]


@pytest.mark.parametrize("argv", [
    ["star", "--mode", "grid", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "8192"],
    ["remainder", "--A", "gauss(1)", "--B", "gauss(1)", "--orders", "1", "--hbars", "0.5",
     "--N", "8192"],
], ids=lambda argv: argv[0])
def test_grid_runs_beyond_the_memory_cap_exit_before_sampling(argv):
    start = time.perf_counter()
    out = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.splitlines() == [
        "moyal-lab: N = 8192 needs about 11.0 GiB, above the 4 GiB cap of a grid run"]


def _sample_calls(monkeypatch) -> list:
    """Record every grid sampling the CLI makes from here on."""
    calls, sample = [], moyal_lab.grid.sample
    monkeypatch.setattr(moyal_lab.grid, "sample", lambda *a: calls.append(a) or sample(*a))
    return calls


@pytest.mark.parametrize("argv, message", [
    (["--orders", "1", "--hbars", "0.5,-1"], "box half-length and hbar must be finite and positive"),
    (["--orders", "1,171", "--hbars", "0.5"],
     "series order 171 exceeds 170, the largest whose weights 1/(a! b!) are floats"),
], ids=["second-hbar", "order-171"])
def test_remainder_checks_hbars_and_orders_before_sampling(monkeypatch, capsys, argv, message):
    calls = _sample_calls(monkeypatch)
    argv = ["remainder", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "256"] + argv
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"moyal-lab: {message}"] and calls == []


def test_bracket_truncated_computes_the_bracket_once(monkeypatch, capsys):
    from moyal_lab.star import bracket_discrepancy, truncated_bracket

    star_module = sys.modules["moyal_lab.star"]     # the package's `star` is the function
    A, H = "xi^5 - 1/2*x^3*xi^2", "x^5 + 2*x*xi^3"
    pa, ph = (cli.lower_poly(cli.parse_symbol(t)) for t in (A, H))
    counted, bracket = [], star_module.moyal_bracket
    monkeypatch.setattr(star_module, "moyal_bracket", lambda *a: counted.append(a) or bracket(*a))
    assert cli.main(["bracket", "--A", A, "--H", H, "--mode", "truncated", "--m", "1"]) == 0
    out, err = capsys.readouterr()
    assert counted.count((pa, ph)) == 1 and err == ""     # the other call is the calibration
    # the same bytes as the two public functions, each computing the full bracket
    expected = {"command": "bracket", "mode": "truncated", "d": 1,
                "A": cli.pretty(cli.parse_symbol(A)), "H": cli.pretty(cli.parse_symbol(H)),
                "result": {"truncated": cli.series_json(truncated_bracket(pa, ph, 1)),
                           "discrepancy": cli.series_json(bracket_discrepancy(pa, ph, 1)),
                           "m": 1}}
    cli.emit_json(expected, None)
    assert out == capsys.readouterr()[0]
    assert json.loads(out)["result"]["discrepancy"]["orders"] == [4]


# boundary-quiet on [-8, 8) (a warning would add lines to stderr), and inputs the caps refuse
# or whose numbers do not fit a float
QUIET_SYMBOLS = ["gauss(1)", "x*gauss(2)", "xi^2*gauss(1) - 1/3*gauss(3)", "(x + xi)^3*gauss(1)"]
HUGE_SYMBOLS = ([f"x^{k}*gauss(1)" for k in (65, 3000, 10 ** 8)]
                + [f"(x + xi)^{k}*gauss(1)" for k in (65, 10 ** 8)]
                + [f"2^{k}*gauss(1)" for k in (2000, 4097, 10 ** 8)]
                + [f"1{'0' * k}*gauss(1)" for k in (2000, 5000)]
                + [f"gauss({'9' * 400})"])
BAD_VALUES = {"N": [0, -16, 48, 100, 1 << 20], "L": ["nan", "inf", "0", "-8"],
              "hbar": ["nan", "inf", "0", "-1"],
              "hbars": ["", ",", "-0.5", "0.5,-0.25", "nan,0.5", "inf"],
              "orders": ["", ",", "-1", "1,-2"]}


@st.composite
def grid_argv(draw):
    """A `star --mode grid` or `remainder` argv: valid numbers (N <= 64) with at most one
    field replaced by a malformed value, and quiet or huge symbols."""
    symbols = st.one_of(st.sampled_from(QUIET_SYMBOLS), st.sampled_from(HUGE_SYMBOLS))
    cmd = draw(st.sampled_from(["star", "remainder"]))
    fields = {"A": draw(symbols), "B": draw(symbols), "N": draw(st.sampled_from([16, 32, 64])),
              "L": "8"}
    if cmd == "star":
        fields.update(mode="grid", hbar=draw(st.sampled_from(["1", "0.5"])))
    else:
        fields.update(hbars="0.5,0.25", orders=draw(st.sampled_from(["1,2", "0"])),
                      format=draw(st.sampled_from(["json", "csv"])))
    bad = draw(st.one_of(st.none(), st.sampled_from([f for f in BAD_VALUES if f in fields])))
    if bad:
        fields[bad] = draw(st.sampled_from(BAD_VALUES[bad]))
    return [cmd] + [f"--{k}={v}" for k, v in fields.items()]


@given(grid_argv())
def test_grid_argv_fuzz(argv):
    # every grid invocation ends in a documented code with at most one stderr line
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert time.perf_counter() - start < 5.0
    assert rc in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    assert not caught
    assert (rc == 0) == bool(out.getvalue())


# operator runs: at most one option malformed, non-finite, huge or a list of the wrong length
OPERATOR_BAD_VALUES = {"Nx": [0, -16, 48, 100, 16384, "1e3"], "L": ["nan", "inf", "0", "-8", "1e300"],
                       "hbar": ["nan", "inf", "0", "-1", "1e300"],
                       "hbars": ["", ",", "-0.5", "0.5,-0.25", "nan,0.5", "inf", "1e300"],
                       "Y": ["", "1", "1,0.5,2", "nan,0", "1,inf", "1e308,0", "1,x"],
                       "t": ["nan", "inf", "-inf", "1e300", "x"],
                       "tol": ["nan", "inf", "-1", "1e308", "x"]}


def _refuse_constant(name):
    raise ValueError(f"{name} in the output")


@st.composite
def operator_argv(draw):
    """A `quantize`, `egorov` or `coherent` argv: valid numbers (Nx <= 64) and boundary-quiet
    symbols, with at most one field replaced by a malformed or huge value."""
    cmd = draw(st.sampled_from(["quantize", "egorov", "coherent"]))
    fields = {"A": draw(st.sampled_from(QUIET_SYMBOLS)), "Nx": draw(st.sampled_from([32, 64])),
              "L": "8"}
    if cmd == "coherent":
        fields.update(Y=draw(st.sampled_from(["1,0.5", "-0.5,0"])), hbars="0.5,0.25")
    else:
        fields.update(hbar=draw(st.sampled_from(["1", "0.5"])),
                      tol=draw(st.sampled_from(["1e-5", "0.1"])))
    if cmd == "egorov":
        fields.update(H=draw(st.sampled_from(["1/2*x^2 + 1/2*xi^2", "x*xi", "xi^2"])),
                      t=draw(st.sampled_from(["0.5", "-0.25"])))
    bad = draw(st.one_of(st.none(), st.sampled_from([f for f in OPERATOR_BAD_VALUES if f in fields])))
    if bad:
        fields[bad] = draw(st.sampled_from(OPERATOR_BAD_VALUES[bad]))
    return [cmd] + [f"--{k}={v}" for k, v in fields.items()]


@given(operator_argv())
def test_operator_argv_fuzz(argv):
    # a success prints finite JSON; a failure prints one stderr line and nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:      # argparse refuses a malformed option value
            rc = exc.code
    assert time.perf_counter() - start < 5.0
    assert rc in (0, 1, 2, 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if rc == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("argv, code, message", [
    (["coherent", "--A", "x^2", "--Y", "1e308,0", "--hbars", "0.5", "--Nx", "16"], 2,
     "floating-point failure: overflow encountered in "),
    (["coherent", "--A", "x^2", "--Y", "1,0.5,2", "--hbars", "0.5", "--Nx", "16"], 1,
     "--Y needs two finite numbers y,eta"),
    (["egorov", "--A", "x*gauss(1/4)", "--H", "x^2", "--t", "1e300", "--Nx", "16"], 2,
     "floating-point failure: overflow encountered in "),
    (["quantize", "--A", "gauss(1)", "--tol", "nan", "--Nx", "16"], 1,
     "--tol must be finite and >= 0"),
    (["egorov", "--A", "x*gauss(1/4)", "--H", "x^2", "--t", "nan", "--Nx", "16"], 1,
     "--t must be finite"),
    (["egorov", "--A", "x*gauss(1/4)", "--H", "1/2*x^2 + 1/2*xi^2", "--t", "1e20", "--Nx", "16"], 2,
     "floating-point failure: "),
], ids=["coherent-huge-Y", "coherent-three-Y", "egorov-huge-t", "quantize-nan-tol", "egorov-nan-t",
        "egorov-flow-det"])
def test_operator_inputs_exit_with_one_line(capsys, argv, code, message):
    # numpy overflow and invalid operations are errors, not warnings, and bad numbers are
    # refused before any work
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)    # Nx = 16 reaches the momentum band edge
        assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(f"moyal-lab: {message}")


def test_tolerance_failure_prints_one_line_and_no_report(capsys):
    assert cli.main(["quantize", "--A", "gauss(1)", "--Nx", "32", "--L", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "moyal-lab: round-trip error 2.45e-05 of scale 1 exceeds --tol 1e-05"]


def test_failing_run_prints_only_its_one_line():
    # Nx = 16 trips the band-edge guard, and the round trip then fails: the warning is dropped
    out = run_cli("quantize", "--A", "gauss(1)", "--Nx", "16")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines() == [
        "moyal-lab: round-trip error 0.00607 of scale 1 exceeds --tol 1e-05"]


def test_successful_run_shows_its_warnings_as_python_prints_them():
    # x^2 does not decay at the box edge: the run exits 0 and shows the boundary warning,
    # attributed to the handler's sampling line, then its source line
    out = run_cli("quantize", "--A", "x^2", "--Nx", "128", "--spectral")
    assert out.returncode == 0 and json.loads(out.stdout)["result"]["roundtrip_scale"] == 16.0
    source = "ref = sample(ev, sym.spec)"
    with open(cli.__file__) as fh:
        lineno = next(i for i, line in enumerate(fh, 1) if line.strip() == source)
    first, second = out.stderr.splitlines()
    assert first.endswith(f"cli.py:{lineno}: UserWarning: symbol magnitude 6.400e+01 on the box "
                          "boundary exceeds the decay guard 1e-12")
    assert second == "  " + source


@pytest.mark.parametrize("sup, slope", [(float("nan"), 2.0), (0.5, float("nan")),
                                        (float("inf"), float("nan"))])
def test_remainder_csv_refuses_nonfinite_values(capsys, monkeypatch, sup, slope):
    monkeypatch.setattr(moyal_lab.grid, "remainder_scaling_scan",
                        lambda *args: {"rows": [(1, 0.5, sup)], "slopes": {1: slope}})
    rc = cli.main(["remainder", "--A", "gauss(1)", "--B", "gauss(1)", "--orders", "1",
                   "--hbars", "0.5", "--N", "16", "--format", "csv"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == ["moyal-lab: floating-point failure: non-finite value in the CSV "
                                "output"]


def test_nonfinite_payload_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(moyal_lab.grid.GridSymbol, "interior_sup", lambda self: float("nan"))
    rc = cli.main(["star", "--mode", "grid", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "16",
                   "--L", "6"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("moyal-lab: floating-point failure: Out of range float values")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["star", "--A", "x", "--B", "xi"], ["bracket", "--A", "x", "--H", "xi"], ["gvh", "--H", "x^3"],
    ["mpc", "--H", "x^3"], ["quantize", "--A", "gauss(1)"],
    ["egorov", "--A", "x*gauss(1/4)", "--H", "x^2", "--t", "0.5"],
    ["coherent", "--A", "x^2", "--Y", "1,0.5", "--hbars", "0.5"],
], ids=lambda argv: argv[0])
def test_format_is_a_remainder_option_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.splitlines() == ["moyal-lab: error: unrecognized arguments: --format csv"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_remainder_accepts_format(capsys, fmt):
    argv = ["remainder", "--A", "gauss(1)", "--B", "x*gauss(1)", "--orders", "1",
            "--hbars", "0.4,0.2", "--N", "32", "--L", "6", "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out.splitlines()[0] == "order,hbar,sup_norm"
    else:
        assert json.loads(out)["command"] == "remainder"


@pytest.mark.parametrize("argv, message", [
    (["star", "--mode", "grid", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "4096"],
     "N = 4096 with 1 star product(s) needs about 8.25e+11 grid operations (N^3 log2 N each), "
     "above the cap of 1.07e+10, one product at N = 1024"),
    (["star", "--mode", "grid", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "2048"],
     "N = 2048 with 1 star product(s) needs about 9.45e+10 grid operations (N^3 log2 N each), "
     "above the cap of 1.07e+10, one product at N = 1024"),
    (["remainder", "--A", "gauss(1)", "--B", "gauss(1)", "--orders", "1", "--hbars", "0.5,0.25",
      "--N", "1024"],
     "N = 1024 with 2 star product(s) needs about 2.15e+10 grid operations (N^3 log2 N each), "
     "above the cap of 1.07e+10, one product at N = 1024"),
], ids=["star-4096", "star-2048", "remainder-1024"])
def test_grid_runs_beyond_the_work_cap_exit_before_sampling(monkeypatch, capsys, argv, message):
    # star_grid costs O(N^3 log N): the memory cap admits N = 4096, the work cap does not
    calls = _sample_calls(monkeypatch)
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"moyal-lab: {message}"] and calls == []


# exact operands: malformed text, inputs the caps refuse for every subcommand, operand pairs
# refused by the pair caps, and one-operand inputs near and above the shifted-term cap
MALFORMED_EXPRS = ["", "x +", "(x", "x^-1", "x^^2", "2/0", "gauss(1)", "eta", "hbar", "xi0", "q",
                   "x**2", "1/2/3", ")", "1.5", "x1", "xi4"]
REFUSED_EXPRS = (["x^65", "(x + xi)^65", "x^3000*xi^3000", "(x + 1)^100000000", "2^5000",
                  "2^100000000", "1" + "0" * 2000, "x^99999999999999999999999"])
REFUSED_PAIRS = [(DENSE_D3.format(1), DENSE_D3.format(2)), ("(x+xi+1)^40", "(x+xi+2)^40")]
SHIFTED_TERMS_EXPRS = {1: ["(x+xi+1)^64", "(x+xi+1)^40", "(x-2*xi+1/3)^20"],
                       2: ["(x1+x2+xi1+xi2+1)^16", "(x1+xi2+1)^20"],
                       3: ["(x1+x2+x3+xi1+xi2+xi3+1)^9", "(x1+x2+x3+xi1+xi2+xi3+1)^5"]}
EXACT_BAD_VALUES = {"d": ["0", "-1", "65", "1000000000", "x", ""],
                    "m": ["-1", "10000000000000", "one"],
                    "max-m": ["-1", "32", "1000000000", "1.5"]}


def exact_exprs(d: int):
    """Sums of products of (sums of) variables and rationals to powers up to 3, in dimension d."""
    names = ["x", "xi"] if d == 1 else [f"{b}{k}" for b in ("x", "xi") for k in range(1, d + 1)]
    atoms = st.sampled_from(names + ["1", "2", "1/3", "5/2"])
    factors = st.one_of(atoms, st.builds("({} - {})".format, atoms, atoms),
                        st.builds("({} + {})".format, atoms, atoms))
    powers = st.builds("{}^{}".format, factors, st.integers(0, 3))
    products = st.lists(powers, min_size=1, max_size=2).map("*".join)
    return st.lists(products, min_size=1, max_size=3).map(" - ".join)


@st.composite
def exact_argv(draw):
    """A `star` (exact), `bracket`, `gvh` or `mpc` argv: generated operands in d = 1..3 or
    malformed and refused ones, with at most one option replaced by a malformed or huge value."""
    cmd, d = draw(st.sampled_from(["star", "bracket", "gvh", "mpc"])), draw(st.integers(1, 3))
    operands = st.one_of(exact_exprs(d), exact_exprs(d), st.sampled_from(MALFORMED_EXPRS),
                         st.sampled_from(REFUSED_EXPRS))
    fields = {"d": str(d)}
    if cmd in ("star", "bracket"):
        pair = draw(st.one_of(st.tuples(operands, operands), st.sampled_from(REFUSED_PAIRS)))
        fields.update(zip(("A", "B" if cmd == "star" else "H"), pair))
        if cmd == "bracket":
            fields.update(mode=draw(st.sampled_from(["poisson", "moyal", "truncated", "both"])),
                          m=draw(st.sampled_from(["0", "1", "2"])))
    else:
        fields["H"] = draw(st.one_of(operands, st.sampled_from(SHIFTED_TERMS_EXPRS[d])))
        if cmd == "gvh":
            fields["max-m"] = draw(st.sampled_from(["0", "1", "3"]))
    bad = draw(st.one_of(st.none(), st.sampled_from([f for f in EXACT_BAD_VALUES if f in fields])))
    if bad:
        fields[bad] = draw(st.sampled_from(EXACT_BAD_VALUES[bad]))
    return [cmd] + [f"--{k}={v}" for k, v in fields.items()]


@given(exact_argv())
def test_exact_argv_fuzz(argv):
    # every exact invocation ends in a documented code with at most one stderr line
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:      # argparse refuses a malformed option value
            rc = exc.code
    assert time.perf_counter() - start < 5.0
    assert rc in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    assert (rc == 0) == bool(out.getvalue())


THREAD_VARS = ("MOYAL_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_numeric_output_does_not_depend_on_the_thread_setting():
    # with MOYAL_LAB_THREADS unset the numeric backends run on one thread, as with 1
    argv = CLI + ["egorov", "--A", "x*gauss(1/4)", "--H", "1/2*x^2 + 1/2*xi^2", "--t", "0.7854"]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    unset = subprocess.run(argv, capture_output=True, text=True, env=env)
    one = subprocess.run(argv, capture_output=True, text=True, env={**env, "MOYAL_LAB_THREADS": "1"})
    assert unset.returncode == one.returncode == 0
    assert unset.stdout == one.stdout and unset.stdout


def test_exact_degree_cap_admits_degree_forty(capsys):
    assert cli.main(["star", "--A", "(x+xi)^40", "--B", "x*xi"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["result"]["orders"] == [0, 1, 2]
    # 861 x 861 estimated term pairs (41 x 41 actual), under the pair cap
    assert cli.main(["star", "--A", "(x+xi)^40", "--B", "(x+2*xi)^40"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["result"]["orders"] == list(range(41))


@pytest.mark.parametrize("argv", [
    ["star", "--A", "x^3", "--B", "xi^2"],
    ["bracket", "--A", "xi^3", "--H", "x^3", "--mode", "both"],
    ["gvh", "--H", "x^3", "--max-m", "2"],
    ["mpc", "--H", "x^3"],
], ids=lambda argv: argv[0])
def test_exact_subcommands_leave_numpy_unloaded(argv):
    # numeric modules load lazily, after MOYAL_LAB_THREADS is read; exact work never needs them
    probe = ("import sys; from moyal_lab.cli import main; rc = main(sys.argv[1:]); "
             "sys.stderr.write(f'exit {rc}, numpy loaded: {\"numpy\" in sys.modules}')")
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert out.stderr == "exit 0, numpy loaded: False"


# the benchmark's launch line, behind a hook that lists the loaded modules at exit
LAUNCH = "import sys; from moyal_lab.cli import main; sys.exit(main())"
LIST_MODULES = ("import atexit, sys; "
                "atexit.register(lambda: sys.stderr.write('\\nmodules: ' + ' '.join(sys.modules)))")


def _loaded_modules(code: str, *argv) -> set:
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "MOYAL_LAB_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    return set(out.stderr.rsplit("modules: ", 1)[1].split())


@pytest.mark.parametrize("argv, loads_certify", [
    (["star", "--A", "x", "--B", "xi"], False),
    (["bracket", "--A", "xi^3", "--H", "x^3"], False),
    (["gvh", "--H", "x^3", "--max-m", "2"], True),
    (["mpc", "--H", "x^3"], True),
], ids=["star", "bracket", "gvh", "mpc"])
def test_cold_start_loads_only_what_the_subcommand_runs(argv, loads_certify):
    # modules a bare interpreter already holds are not the program's cost
    loaded = (_loaded_modules(f"{LIST_MODULES}; {LAUNCH}", *argv)
              - _loaded_modules(f"{LIST_MODULES}; pass"))
    assert "moyal_lab.star" in loaded and "numpy" not in loaded
    assert ("moyal_lab.certify" in loaded) == ("moyal_lab.exppoly" in loaded) == loads_certify
    if not loads_certify:
        assert not loaded & {"dataclasses", "inspect"}


# every name that `moyal_lab` exported by eager import before its certify and exppoly names
# joined the lazy table
PACKAGE_EXPORTS = {
    "conventions": "CONVENTIONS",
    "crational": "CRational I i_power neg_i_power",
    "polysym": "PhasePoint PolySymbol Shape ShapeError directional_power linear_form "
               "linear_form_symbolic poisson_bracket symplectic_form",
    "star": "ConventionError HbarSeries bracket_discrepancy bracket_term calibration_check "
            "cj_coefficient moyal_bracket moyal_bracket_series moyal_product star "
            "truncated_bracket",
    "exppoly": "ExpPolySymbol cj_exp pure_exp_collapse star_with_pure",
    "certify": "Certificate MpcReport bracket_term_exp exp_test_bracket expected_term_constant "
               "gvh_certificate mpc_identity_check",
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_exports_resolve_to_their_modules_objects(module):
    own = importlib.import_module(f"moyal_lab.{module}")
    for name in PACKAGE_EXPORTS[module].split():
        scope = {}
        exec(f"from moyal_lab import {name}", scope)
        assert getattr(moyal_lab, name) is scope[name] is getattr(own, name), name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        moyal_lab.no_such_name
    with pytest.raises(ImportError):
        exec("from moyal_lab import no_such_name", {})


def test_output_to_file(tmp_path):
    path = tmp_path / "out.json"
    out = run_cli("bracket", "--A", "x", "--H", "xi", "--out", str(path))
    assert out.returncode == 0 and out.stdout == ""
    data = json.loads(path.read_text())
    assert data["result"]["poisson"] == [
        {"alpha": [0], "beta": [0], "re": "-1/1", "im": "0/1"}]


def test_grid_star_and_save(tmp_path):
    path = tmp_path / "prod"
    out = run_cli("star", "--A", "gauss(1)", "--B", "gauss(1)", "--mode", "grid",
                  "--N", "32", "--L", "6", "--save", str(path))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["result"]["saved"] is True
    assert (tmp_path / "prod.bin").exists() and (tmp_path / "prod.json").exists()


def test_quantize_subcommand():
    out = run_cli("quantize", "--A", "gauss(1)", "--Nx", "64", "--L", "8")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["result"]["hermiticity_defect"] < 1e-10
    assert data["result"]["roundtrip_interior_sup_error"] < 1e-5


def test_quantize_saves_the_operator(tmp_path):
    from moyal_lab.grid import GridSpec
    from moyal_lab.gridio import load_operator
    from moyal_lab.weylop import quantize_kernel

    path = tmp_path / "op"
    out = run_cli("quantize", "--A", "gauss(1)", "--Nx", "64", "--L", "8", "--save", str(path))
    assert out.returncode == 0 and json.loads(out.stdout)["result"]["saved"] is True
    M = load_operator(path)
    assert M.grid == GridSpec(64, 8.0, 1.0)
    assert np.array_equal(M.entries, quantize_kernel(cli._eval_arg("gauss(1)"), M.grid).entries)


def test_egorov_subcommand():
    out = run_cli("egorov", "--A", "x*gauss(1/4)", "--H", "1/2*x^2 + 1/2*xi^2",
                  "--t", "0.785398", "--Nx", "128", "--L", "8")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["result"]["relative_mismatch"] < 1e-4
    # cubic H rejected with a config error
    bad = run_cli("egorov", "--A", "x*gauss(1/4)", "--H", "x^3", "--t", "0.1")
    assert bad.returncode == 1


def test_coherent_subcommand():
    out = run_cli("coherent", "--A", "x^2", "--Y", "1,0.5",
                  "--hbars", "0.25,0.5,1", "--Nx", "128", "--L", "8")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    for row in data["result"]["rows"]:
        expected = 1.0 + row["hbar"] / 2.0
        assert abs(row["expectation"]["re"] - expected) < 1e-6


# one refusal per rule of the front door (`limits.check_args`), each before numpy loads
GRID_AB = ["--A", "gauss(1)", "--B", "gauss(1)"]
FRONT_DOOR_REFUSALS = [
    (["star", "--mode", "grid", *GRID_AB, "--N", "48"], "grid size must be a power of two, at least 16"),
    (["quantize", "--A", "gauss(1)", "--Nx", "100"], "grid size must be a power of two, at least 16"),
    (["star", "--mode", "grid", *GRID_AB, "--L", "nan"],
     "box half-length and hbar must be finite and positive"),
    (["star", "--mode", "grid", *GRID_AB, "--hbar", "nan"],
     "box half-length and hbar must be finite and positive"),
    (["remainder", *GRID_AB, "--orders", "1", "--hbars", "0.5,-1"],
     "box half-length and hbar must be finite and positive"),
    (["remainder", *GRID_AB, "--orders", "171", "--hbars", "0.5"],
     "series order 171 exceeds 170, the largest whose weights 1/(a! b!) are floats"),
    (["star", "--mode", "grid", *GRID_AB, "--N", "8192"],
     "N = 8192 needs about 11.0 GiB, above the 4 GiB cap of a grid run"),
    (["star", "--mode", "grid", *GRID_AB, "--N", "2048"],
     "N = 2048 with 1 star product(s) needs about 9.45e+10 grid operations (N^3 log2 N each), "
     "above the cap of 1.07e+10, one product at N = 1024"),
    (["quantize", "--A", "gauss(1)", "--Nx", "8192"],
     "Nx = 8192 needs about 4.1 GiB, above the 4 GiB cap of an operator run"),
    (["star", "--A", "x", "--B", "xi", "--save", "prod"],
     "--save stores a grid product: it needs --mode grid"),
    (["star", "--mode", "grid", *GRID_AB, "--d", "3"], "--mode grid runs in dimension 1 only, got --d 3"),
]


@pytest.mark.parametrize("argv, message", FRONT_DOOR_REFUSALS,
                         ids=["N-48", "Nx-100", "L-nan", "hbar-nan", "hbars-negative", "orders-171",
                              "grid-bytes", "grid-work", "operator-bytes", "save-exact", "d-grid"])
def test_front_door_refuses_before_numpy_loads(tmp_path, argv, message):
    probe = ("import sys; from moyal_lab.cli import main; rc = main(sys.argv[1:]); "
             "sys.stderr.write(f'exit {rc}, numpy loaded: {\"numpy\" in sys.modules}')")
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "MOYAL_LAB_THREADS": "1"})
    assert out.stdout == "" and list(tmp_path.iterdir()) == []
    assert out.stderr.splitlines() == [f"moyal-lab: {message}", "exit 1, numpy loaded: False"]


def test_save_needs_grid_mode(tmp_path, capsys):
    # an exact product has no grid to store: refused, not silently ignored
    path = tmp_path / "prod"
    assert cli.main(["star", "--A", "x", "--B", "xi", "--save", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "moyal-lab: --save stores a grid product: it needs --mode grid"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d", ["3", "0"])
def test_grid_star_refuses_other_dimensions(capsys, d):
    assert cli.main(["star", "--mode", "grid", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "16",
                     "--d", d]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        f"moyal-lab: --mode grid runs in dimension 1 only, got --d {d}"]


def test_grid_star_in_dimension_one_and_exact_dimensions_run(capsys):
    argv = ["star", "--mode", "grid", "--A", "gauss(1)", "--B", "gauss(1)", "--N", "16"]
    assert cli.main(argv + ["--d", "1"]) == 0
    with_d = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == with_d
    assert cli.main(["star", "--d", "2", "--A", "x1", "--B", "xi2"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["d"] == 2


def _benchmark_supports():
    """The H supports of the `exact` benchmark classes, as polynomials with unit coefficients."""
    import importlib.util
    from fractions import Fraction

    from moyal_lab.polysym import PolySymbol, Shape

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "wl_exact.py")
    spec = importlib.util.spec_from_file_location("wl_exact", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return [PolySymbol(Shape(d), {e: Fraction(1) for e in wl.support(d, deg, n, "H")})
            for d, deg, n in wl.CLASSES]


def test_shifted_term_estimate_counts_the_taylor_shift():
    # a term x^a xi^b shifts to the (a + 1)(b + 1) terms x^(a-c) y^c xi^(b-e) eta^e, and each
    # of them names its source term, so for H in X alone the estimate is the shift's size
    from moyal_lab.limits import check_shifted_terms
    from moyal_lab.polysym import PolySymbol, Shape

    operands = ([cli.lower_poly(cli.parse_symbol("x^3"))] + _benchmark_supports()
                + [cli.lower_poly(cli.parse_symbol(e), d=d)
                   for d, exprs in SHIFTED_TERMS_EXPRS.items() for e in exprs])
    checked = 0
    for H in operands:
        try:
            estimate = check_shifted_terms(H)
        except ValueError:      # above the cap: the CLI never builds this shift
            continue
        d = H.shape.d
        xy = Shape(d, True, False)
        shift = [PolySymbol.var(xy, b, k) for b in ("y", "eta") for k in range(d)]
        assert len(H.promoted(xy).translated(shift).num) == estimate
        checked += 1
    assert checked == 8


# the options each subcommand declares, from the one table that builds the parser and the front
# door: an option given on the command line that the run's mode does not read is refused
NUMPY_PROBE = ("import sys; from moyal_lab.cli import main; rc = main(sys.argv[1:]); "
               "sys.stderr.write(f'exit {rc}, numpy loaded: {\"numpy\" in sys.modules}')")
OPERANDS = {"--A": "x", "--B": "xi", "--H": "x^3", "--t": "0.5", "--orders": "1", "--Y": "1,0.5",
            "--hbars": "0.5"}
UNREAD_VALUES = {int: "16", float: "0.5", str: "prod"}     # each valid where the option is read


def _unread_options() -> list:
    """(argv, option, the mode that reads it) for every subcommand, mode and unread option."""
    from moyal_lab.limits import COMMANDS, OPTIONS, REQUIRED

    cases = []
    for cmd, (_, modes, _) in COMMANDS.items():
        needed = [arg for flag, (_, defaults, *_) in OPTIONS.items()
                  if defaults.get(cmd) is REQUIRED for arg in (flag, OPERANDS[flag])]
        for mode in modes:
            chosen = ["--mode", mode] if len(modes) > 1 else []
            cases += [([cmd, *chosen, *needed, flag, UNREAD_VALUES[kind]], flag, reads)
                      for flag, (kind, defaults, reads, _, _) in OPTIONS.items()
                      if cmd in defaults and reads not in (None, mode)]
    return cases


UNREAD_OPTIONS = _unread_options()


@pytest.mark.parametrize("argv, flag, reads", UNREAD_OPTIONS,
                         ids=[f"{argv[0]}-{argv[2]}-{flag[2:]}" for argv, flag, _ in UNREAD_OPTIONS])
def test_unread_option_exits_before_numpy_loads(tmp_path, argv, flag, reads):
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "MOYAL_LAB_THREADS": "1"})
    assert out.stdout == "" and list(tmp_path.iterdir()) == []
    line, probe = out.stderr.splitlines()
    assert probe == "exit 1, numpy loaded: False"
    assert line.startswith(f"moyal-lab: {flag} ") and line.endswith(f": it needs --mode {reads}")


def test_unread_options_cover_grid_star_and_truncated_bracket_options():
    assert sorted((argv[0], argv[2], flag) for argv, flag, _ in UNREAD_OPTIONS) == [
        ("bracket", "both", "--m"), ("bracket", "moyal", "--m"), ("bracket", "poisson", "--m"),
        ("star", "exact", "--L"), ("star", "exact", "--N"), ("star", "exact", "--hbar"),
        ("star", "exact", "--save")]


@pytest.mark.parametrize("argv, message", [
    (["bracket", "--A", "x", "--H", "xi", "--mode", "truncated", "--m", "-1"],
     "truncation order must be >= 0"),
    (["star", "--d", "0", "--A", "x", "--B", "xi"], "dimension must be >= 1, got 0"),
    (["star", "--d", "65", "--A", "x1", "--B", "xi1"],
     "dimension 65 exceeds the exact engine's cap of 64"),
    (["bracket", "--d", "-1", "--A", "x", "--H", "xi"], "dimension must be >= 1, got -1"),
    (["gvh", "--d", "1000000000", "--H", "x1^3"],
     "dimension 1000000000 exceeds the exact engine's cap of 64"),
    (["mpc", "--d", "0", "--H", "x^3"], "dimension must be >= 1, got 0"),
    (["star", "--mode", "grid", "--d", "0", *GRID_AB, "--N", "16"],
     "--mode grid runs in dimension 1 only, got --d 0"),
    (["star", "--mode", "grid", "--d", "65", *GRID_AB, "--N", "16"],
     "--mode grid runs in dimension 1 only, got --d 65"),
], ids=["m-negative", "star-d-0", "star-d-65", "bracket-d-negative", "gvh-d-huge", "mpc-d-0",
        "grid-d-0", "grid-d-65"])
def test_option_rules_refuse_before_any_operand_is_parsed(monkeypatch, capsys, argv, message):
    parsed = []
    monkeypatch.setattr(cli, "parse_symbol", lambda *a: parsed.append(a))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"moyal-lab: {message}"] and parsed == []


def test_gvh_takes_every_witness_from_one_kernel_call(monkeypatch, capsys):
    from moyal_lab import certify

    text, max_m = "(x+xi+1)^12", 7
    H = cli.lower_poly(cli.parse_symbol(text))
    results = []
    for m in range(max_m + 1):      # one single-order kernel call per m
        cert = certify.gvh_certificate(H, m)
        entry = {"m": m, "equal": cert.equal, "degree": cert.degree}
        if not cert.equal:
            entry.update(failing_order=cert.failing_order, witness=cli.poly_json(cert.witness))
        results.append(entry)
    cli.emit_json({"command": "gvh", "d": 1, "H": cli.pretty(cli.parse_symbol(text)),
                   "results": results}, None)
    expected = capsys.readouterr().out
    orders, kernel = [], certify._bidifferential
    monkeypatch.setattr(certify, "_bidifferential",
                        lambda *a, **k: orders.append(list(a[2])) or kernel(*a, **k))
    assert cli.main(["gvh", "--H", text, "--max-m", str(max_m)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out == expected and orders == [[3, 5, 7, 9, 11]]
    assert [r["equal"] for r in json.loads(out)["results"]] == [False] * 5 + [True] * 3


@pytest.mark.parametrize("save", [False, True], ids=["no-save", "save"])
def test_grid_star_loads_gridio_only_to_save(tmp_path, save):
    argv = ["star", "--mode", "grid", *GRID_AB, "--N", "16"]
    argv += ["--save", str(tmp_path / "prod")] if save else []
    loaded = _loaded_modules(f"{LIST_MODULES}; {LAUNCH}", *argv)
    assert "moyal_lab.grid" in loaded and ("moyal_lab.gridio" in loaded) == save
    assert sorted(p.name for p in tmp_path.iterdir()) == (["prod.bin", "prod.json"] if save else [])


def _readme_examples() -> list:
    """The invocations of the code block under README's "Command line", each as its argv."""
    import shlex

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[1])
def test_readme_examples_run(monkeypatch, capsys, argv):
    import csv

    monkeypatch.setenv("MOYAL_LAB_THREADS", "1")
    assert argv[0] == "moyal-lab" and cli.main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[-2:] == ["--format", "csv"]:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["order", "hbar", "sup_norm"] and all(len(r) == 3 for r in rows)
    else:
        assert json.loads(out)["command"] == argv[1]


def test_readme_has_the_nine_examples():
    assert [argv[1] for argv in _readme_examples()] == [
        "star", "star", "bracket", "gvh", "mpc", "remainder", "quantize", "egorov", "coherent"]


# a repeated hbar would give a slope fitted to one point counted twice
REPEATED_HBARS = [
    ["coherent", "--A", "x^2", "--Y", "1,0.5", "--hbars", "0.5,0.5", "--Nx", "64"],
    ["remainder", "--A", "gauss(1)", "--B", "x*gauss(1)", "--orders", "1", "--hbars", "0.5,0.5",
     "--N", "32", "--format", "csv"],
]


@pytest.mark.parametrize("argv", REPEATED_HBARS, ids=["coherent", "remainder"])
def test_repeated_hbars_exit_before_numpy_loads(tmp_path, argv):
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "MOYAL_LAB_THREADS": "1"})
    assert out.stdout == ""
    assert out.stderr.splitlines() == ["moyal-lab: hbar values must be distinct, got [0.5, 0.5]",
                                       "exit 1, numpy loaded: False"]


@pytest.mark.parametrize("argv, hbar, defect", [
    (["coherent", "--A", "1", "--Y", "0,0", "--hbars", "1,1e-300", "--Nx", "64"], "1e-300",
     "1.41e+149"),
    (["coherent", "--A", "x^2", "--Y", "1,0", "--hbars", "1e-3,1e-4", "--Nx", "64"], "0.001", "3.46"),
    (["coherent", "--A", "x^2", "--Y", "6,0", "--hbars", "0.5,1"], "0.5", "-4.07e-05"),
], ids=["hbar-below-grid", "hbar-small", "state-at-box-edge"])
def test_coherent_refuses_a_state_the_grid_cannot_hold(capsys, argv, hbar, defect):
    # a state narrower than a grid step, or cut off at the box edge, gave wrong expectations
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        f"moyal-lab: coherent state at hbar {hbar}: squared norm on the grid minus 1 is {defect}, "
        f"beyond 1e-08"]


@pytest.mark.parametrize("Y, share", [("0,7.9", "0.00084"), ("0,6", "0.133")])
def test_coherent_refuses_a_state_the_grid_aliases(capsys, Y, share):
    # eta/hbar past the grid's Nyquist keeps the squared norm but folds the state back: at
    # hbar 0.5 the abs errors were 40.4 and 1.97, where hbar/2 = 0.25 is expected
    assert cli.main(["coherent", "--A", "xi^2", "--Y", Y, "--hbars", "0.5,1", "--Nx", "64"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        f"moyal-lab: coherent state at hbar 0.5: share {share} of its squared norm in the grid's "
        f"Nyquist bin, beyond 1e-08: the grid aliases it"]


def test_coherent_admits_a_state_the_grid_resolves(capsys):
    assert cli.main(["coherent", "--A", "xi^2", "--Y", "0,2", "--hbars", "0.5,1", "--Nx", "64"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert [round(r["abs_error"], 9) for r in result["rows"]] == [0.25, 0.5]
    assert abs(result["slope"] - 1.0) < 1e-9


def _help(parser, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("cmd", list(cli.COMMANDS))
def test_parser_builds_only_the_named_subcommand_with_the_full_help(cmd):
    full = cli.build_parser([])
    own = cli.build_parser([cmd, "--help"])
    assert _help(own, [cmd, "--help"]) == _help(full, [cmd, "--help"])
    assert _help(own, ["--help"]) == _help(full, ["--help"])
    # the other subcommands are listed, without their options
    for other in cli.COMMANDS.keys() - {cmd}:
        assert "--out" not in _help(own, [other, "--help"])
        assert "--out" in _help(full, [other, "--help"])
