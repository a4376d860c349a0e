"""Workload `cli`: the README examples as fresh `moyal-lab` processes.

A pass runs the nine README example invocations and four malformed ones,
one process after another, each single-threaded through the documented
MOYAL_LAB_THREADS=1.  The seed only orders the invocations within a pass.

A README example passes when it exits 0 with nothing on stderr and its
output holds the values checked below.  A malformed invocation passes when
it exits with a documented code (1 or 2), prints one line on stderr with
no traceback, and writes nothing to stdout; each of the four fails today
and is counted in `failed`.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

LAUNCH = "import sys; from moyal_lab.cli import main; sys.exit(main())"

# (key, argv): the README's "Command line" section, in order
EXAMPLES = (
    ("star_exact", ["star", "--A", "x", "--B", "xi"]),
    ("star_grid", ["star", "--A", "gauss(1)", "--B", "gauss(1)", "--mode", "grid",
                   "--N", "64", "--L", "6"]),
    ("bracket", ["bracket", "--A", "xi^3", "--H", "x^3", "--mode", "both"]),
    ("gvh", ["gvh", "--H", "x^3", "--max-m", "2"]),
    ("mpc", ["mpc", "--H", "x^3"]),
    ("remainder", ["remainder", "--A", "gauss(1)", "--B", "x*gauss(1)", "--orders", "1,2",
                   "--hbars", "0.8,0.4,0.2,0.1", "--N", "128", "--L", "8", "--format", "csv"]),
    ("quantize", ["quantize", "--A", "gauss(1)", "--Nx", "128", "--L", "8"]),
    ("egorov", ["egorov", "--A", "x*gauss(1/4)", "--H", "1/2*x^2 + 1/2*xi^2", "--t", "0.7854"]),
    ("coherent", ["coherent", "--A", "x^2", "--Y", "1,0.5", "--hbars", "0.25,0.5,1"]),
)

# each fails today: an uncaught FloatingPointError (GridSpec accepts hbar=nan),
# an IndexError in cmd_remainder, and two silent empty results with exit 0
MALFORMED = (
    ("bad_hbar_nan", ["star", "--A", "gauss(1)", "--B", "gauss(1)", "--mode", "grid",
                      "--hbar", "nan"]),
    ("bad_remainder_hbars", ["remainder", "--A", "gauss(1)", "--B", "gauss(1)",
                             "--orders", "1", "--hbars", ","]),
    ("bad_gvh_max_m", ["gvh", "--H", "x^3", "--max-m", "-1"]),
    ("bad_coherent_hbars", ["coherent", "--A", "x^2", "--Y", "1,0", "--hbars", ","]),
)

SETUP_ARGV = EXAMPLES[0][1]


class CliWorkload:
    name = "cli"

    def __init__(self, root, seed: int, out_dir, child_env: dict):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.env = dict(child_env, MOYAL_LAB_THREADS="1",
                        PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                                 child_env.get("PYTHONPATH")])))
        self.first_stdout: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def invoke(self, argv: list, tracer=None, parent: int = -1, key: str = "") -> dict:
        """Run one moyal-lab process; with a tracer, through the span-recording launcher."""
        env = self.env
        if tracer is None:
            cmd = [sys.executable, "-c", LAUNCH, *argv]
        else:
            spans = self.out_dir / f"cli-child-{os.getpid()}.json"
            env = dict(env, PERFBENCH_SPANS=str(spans))
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=self.root, capture_output=True, text=True,
                              timeout=120)
        end = time.perf_counter()
        out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if tracer is not None:
            idx = tracer.add_closed(f"cli.{key}", start, end, parent)
            if spans.exists():
                child = json.loads(spans.read_text())
                spans.unlink()
                # child perf_counter -> shared monotonic clock -> this process's perf_counter
                shift = child["offset"] - (time.monotonic() - time.perf_counter())
                tracer.add_closed("cli.startup", start, child["main"] + shift, idx)
                base = len(tracer.spans)
                for name, s, e, p in child["spans"]:
                    tracer.add_closed(name, s + shift, e + shift, idx if p < 0 else base + p)
        return out

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """The benchmark's own set-up; the CLI's set-up is timed by `setup_once`."""

    def setup_once(self) -> float:
        """One cold invocation, process start to exit."""
        start = time.perf_counter()
        out = self.invoke(SETUP_ARGV)
        if out["rc"] != 0:
            raise RuntimeError(f"moyal-lab {' '.join(SETUP_ARGV)} exited {out['rc']}: "
                               f"{out['stderr'].strip()[-300:]}")
        return time.perf_counter() - start

    def inputs(self, index: int) -> list:
        order = list(EXAMPLES + MALFORMED)
        random.Random(f"{self.seed}:cli:{index}").shuffle(order)
        return order

    # -- one pass --------------------------------------------------------------

    def run_pass(self, order, tracer=None, parent: int = -1) -> list:
        return [(key, argv, self.invoke(argv, tracer, parent, key)) for key, argv in order]

    # -- checks ------------------------------------------------------------------

    def after_pass(self, index: int, order, ops) -> None:
        self.attempted += len(ops)
        for key, argv, out in ops:
            if key.startswith("bad_"):
                if not malformed_ok(out):
                    self.failed += 1
                continue
            if out["rc"] != 0:
                self.failed += 1
                continue
            problems = check_example(key, out)
            first = self.first_stdout.setdefault(key, out["stdout"])
            if out["stdout"] != first:
                problems.append("output differs from the first pass of this run")
            self.problems += [f"pass {index} {key}: {p}" for p in problems]

    def finish(self) -> tuple[int, int, list]:
        return self.attempted, self.failed, self.problems


def malformed_ok(out: dict) -> bool:
    """Exit 1 or 2, one line on stderr, no traceback, nothing on stdout."""
    err = out["stderr"]
    return (out["rc"] in (1, 2) and out["stdout"] == "" and err.count("\n") <= 1
            and err.strip() != "" and "Traceback" not in err)


def _terms(terms: list) -> dict:
    """JSON polynomial terms as {(alpha, beta, y, eta, hbar): (re, im)}."""
    out = {}
    for t in terms:
        key = (tuple(t["alpha"]), tuple(t["beta"]), tuple(t.get("y", ())),
               tuple(t.get("eta", ())), t.get("hbar", 0))
        out[key] = (Fraction(t["re"]), Fraction(t["im"]))
    return out


def _mono(x=0, xi=0, y=None, eta=None, hbar=0):
    return ((x,), (xi,), () if y is None else (y,), () if eta is None else (eta,), hbar)


def check_example(key: str, out: dict) -> list:
    """Values the README states, derived by hand from the definitions."""
    problems = []
    if out["stderr"]:
        problems.append(f"unexpected stderr: {out['stderr'].strip()[:200]}")
    text = out["stdout"]
    try:
        data = None if key == "remainder" else json.loads(text)
    except ValueError:
        return problems + ["output is not JSON"]
    F = Fraction
    if key == "star_exact":
        # x * xi = x xi + i hbar / 2
        coeffs = data["result"]["coefficients"]
        got = {j: _terms(t) for j, t in coeffs.items()}
        want = {"0": {_mono(1, 1): (F(1), F(0))}, "1": {_mono(): (F(0), F(1, 2))}}
        if got != want:
            problems.append(f"x*xi series {got}")
    elif key == "bracket":
        # {xi^3, x^3} = 9 x^2 xi^2; Moyal tail -3/2 hbar^2
        res = data["result"]
        if _terms(res["poisson"]) != {_mono(2, 2): (F(9), F(0))}:
            problems.append("Poisson bracket is not 9 x^2 xi^2")
        moyal = {j: _terms(t) for j, t in res["moyal"]["coefficients"].items()}
        if moyal != {"0": {_mono(2, 2): (F(9), F(0))}, "2": {_mono(): (F(-3, 2), F(0))}}:
            problems.append(f"Moyal bracket {moyal}")
    elif key == "gvh":
        # deg 3: m = 0 fails at order 3 with witness i y^3 / 4, m = 1, 2 are Equal
        res = {r["m"]: r for r in data["results"]}
        r0 = res.get(0, {})
        if (sorted(res) != [0, 1, 2] or r0.get("equal") is not False
                or r0.get("failing_order") != 3
                or _terms(r0.get("witness", [])) != {_mono(y=3, eta=0): (F(0), F(1, 4))}
                or not (res.get(1, {}).get("equal") and res.get(2, {}).get("equal"))):
            problems.append(f"certificates {data['results']}")
    elif key == "mpc":
        # (Y.grad x^3)(X + hbar Y/2) = 3 (x + hbar y/2)^2 y
        res = data["result"]
        want = {_mono(2, 0, 1, 0, 0): (F(3), F(0)), _mono(1, 0, 2, 0, 1): (F(3), F(0)),
                _mono(0, 0, 3, 0, 2): (F(3, 4), F(0))}
        if _terms(res["lhs_closed_form"]) != want:
            problems.append("closed form is not 3 (x + hbar y/2)^2 y")
        if res["taylor_defect_vanishes"] is not False:
            problems.append("taylor defect vanishes for a cubic")
    elif key == "star_grid":
        # gauss(1) * gauss(1) = exp(-|X|^2) / 2 at hbar = 1
        o = data["result"]["origin"]
        if abs(o["re"] - 0.5) > 1e-12 or abs(o["im"]) > 1e-12:
            problems.append(f"origin value {o}")
    elif key == "coherent":
        # <Op(x^2)> in the coherent state at (y, eta) is y^2 + hbar/2
        rows = data["result"]["rows"]
        if [r["hbar"] for r in rows] != [0.25, 0.5, 1.0]:
            problems.append("rows do not cover the hbar list")
        for r in rows:
            if abs(r["abs_error"] - r["hbar"] / 2) > 1e-9:
                problems.append(f"coherent error {r['abs_error']} at hbar {r['hbar']}")
    elif key == "quantize":
        r = data["result"]
        if not r["roundtrip_interior_sup_error"] <= 1e-5 * r["roundtrip_scale"]:
            problems.append(f"round trip error {r['roundtrip_interior_sup_error']}")
    elif key == "egorov":
        if not data["result"]["relative_mismatch"] <= 1e-4:
            problems.append(f"egorov mismatch {data['result']['relative_mismatch']}")
    elif key == "remainder":
        slopes = {}
        for line in text.splitlines():
            parts = line.split(",")
            if len(parts) == 3 and parts[2] == "" and parts[0] in ("1", "2"):
                try:
                    slopes[int(parts[0])] = float(parts[1])
                except ValueError:
                    problems.append(f"order {parts[0]} slope reads {parts[1]!r}")
        if not (len(slopes) == 2 and slopes[1] >= 1.5 and slopes[2] >= 2.5
                and slopes[2] > slopes[1]):
            problems.append(f"remainder slopes {slopes} do not grow with the order")
    return problems
