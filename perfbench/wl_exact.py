"""Workload `exact`: dense polynomial pairs through the exact engine.

For each size class (d, deg, terms) a pass takes a pair (A, H) of dense
polynomials with small rational coefficients and runs

    moyal_bracket(A, H)
    gvh_certificate(H, m)   for m = 0 .. first m with deg H <= 2m + 2
    exp_test_bracket(H)
    mpc_identity_check(H)

The monomial supports are fixed; the seed draws fresh coefficients for
every pass, so every pass does the same amount of exact arithmetic (Fraction
products inside the bidifferential sums) and none of it is numpy or process
start.  Each pass's results are stored on disk as plain exponent -> (re, im)
maps and checked after the timed passes, in checker processes that load
sympy and the test suite's brute oracle, so neither counts towards the
workload's peak memory.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

# (d, deg, terms): terms of total degree <= deg, at least one of degree deg
CLASSES = ((1, 10, 30), (2, 5, 50), (2, 6, 90), (3, 4, 100))
NUMERATORS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
CHECK_WORKERS = 2               # the checks run after the timed passes, one per vCPU
CHECK_TIMEOUT_S = 120


def first_equal_m(deg: int) -> int:
    """The first truncation order m with deg <= 2m + 2."""
    return max(0, (deg - 1) // 2)


def support(d: int, deg: int, nterms: int, tag: str) -> list:
    """`nterms` exponent tuples of total degree <= deg, one of them of degree deg.

    The supports do not depend on the seed, so every pass and every seed does
    the same amount of exact arithmetic; the seed draws the coefficients.
    """
    rng = random.Random(f"exact-support:{d}:{deg}:{nterms}:{tag}")
    mons = [e for e in itertools.product(range(deg + 1), repeat=2 * d) if sum(e) <= deg]
    top = rng.choice([e for e in mons if sum(e) == deg])
    return [top] + rng.sample([e for e in mons if e != top], nterms - 1)


def plain(poly) -> dict:
    """A PolySymbol as {exponents: (re, im)} with Fraction parts."""
    return {e: (c.re, c.im) for e, c in poly.terms.items()}


class ExactWorkload:
    name = "exact"

    def __init__(self, root, seed: int, out_dir, classes=CLASSES):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.classes = classes
        self.supports = [(support(d, deg, n, "A"), support(d, deg, n, "H")) for d, deg, n in classes]
        self.stored: list = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        self._bind()
        star, certify, polysym = self.star, self.certify, self.polysym
        star.calibration_check(1)
        self.inputs(0)
        # warm-up: one small instance of every operation of a pass
        shape = polysym.Shape(1)
        x = polysym.PolySymbol.var(shape, "x")
        xi = polysym.PolySymbol.var(shape, "xi")
        H = x ** 3 + xi ** 2
        star.moyal_bracket(x * xi ** 2, H)
        certify.gvh_certificate(H, 0)
        certify.exp_test_bracket(H)
        certify.mpc_identity_check(H)

    def _bind(self) -> None:
        # by module path: the package's `star` attribute is the function, not the module
        self.star, self.certify, self.polysym = (importlib.import_module(f"moyal_lab.{m}")
                                                 for m in ("star", "certify", "polysym"))

    def inputs(self, index: int) -> list:
        """Pass `index`: fixed supports, fresh coefficients from the seed."""
        rng = random.Random(f"{self.seed}:exact:{index}")
        P = self.polysym
        pairs = []
        for (d, deg, _), supports in zip(self.classes, self.supports):
            A, H = (P.PolySymbol(P.Shape(d), {e: Fraction(rng.choice(NUMERATORS), rng.randint(1, 4))
                                              for e in support}) for support in supports)
            pairs.append((d, deg, A, H))
        return pairs

    # -- one pass --------------------------------------------------------------

    def run_pass(self, pairs) -> list:
        """Run every operation; returns [(op, args, result or exception)]."""
        star, certify = self.star, self.certify
        ops = []

        def attempt(label, fn, *args):
            try:
                ops.append((label, args, fn(*args)))
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append((label, args, exc))

        for d, deg, A, H in pairs:
            attempt("moyal_bracket", star.moyal_bracket, A, H)
            for m in range(first_equal_m(deg) + 1):
                attempt("gvh_certificate", certify.gvh_certificate, H, m)
            attempt("exp_test_bracket", certify.exp_test_bracket, H)
            attempt("mpc_identity_check", certify.mpc_identity_check, H)
        return ops

    def after_pass(self, index: int, pairs, ops) -> None:
        """Store plain copies of the results; they are checked in `finish`."""
        # a traced run makes each pass twice, so the file is named by the store count
        path = self.out_dir / f"exact-pass-{len(self.stored)}.pickle"
        with open(path, "wb") as fh:
            pickle.dump(records(ops), fh)
        self.stored.append((index, path))

    # -- checks ------------------------------------------------------------------

    def finish(self) -> tuple[int, int, list]:
        """Check every stored pass after the timing, in CHECK_WORKERS checker
        processes that this process waits for on every path out."""
        jobs = [(index, str(path)) for index, path in self.stored]
        self.stored = []
        # a traced run stores each pass index twice, so results go by job position
        shares = [range(k, len(jobs), CHECK_WORKERS) for k in range(min(CHECK_WORKERS, len(jobs)))]
        procs = []
        try:
            for share in shares:
                spec = json.dumps({"root": str(self.root), "seed": self.seed,
                                   "classes": self.classes, "jobs": [jobs[k] for k in share]})
                procs.append(subprocess.Popen([sys.executable, str(Path(__file__).resolve()), spec],
                                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                              text=True))
            outs = [proc.communicate(timeout=CHECK_TIMEOUT_S)[0] for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        for proc in procs:
            if proc.returncode != 0:
                raise RuntimeError(f"exact checker exited {proc.returncode}")
        results = [None] * len(jobs)
        for share, out in zip(shares, outs):
            for k, res in zip(share, json.loads(out.splitlines()[-1])):
                results[k] = res
        attempted = sum(a for a, _, _ in results)
        failed = sum(f for _, f, _ in results)
        problems = [f"pass {index}: {p}" for (index, _), (_, _, probs) in zip(jobs, results)
                    for p in probs]
        return attempted, failed, problems


def check_stored(root, seed: int, classes, index: int, path: Path) -> tuple[int, int, list]:
    """Check one stored pass (runs in a checker process)."""
    wl = ExactWorkload(root, seed, None, classes)
    wl._bind()
    with open(path, "rb") as fh:
        recs = pickle.load(fh)
    path.unlink()
    return check_pass(wl.inputs(index), recs, root)


def records(ops) -> list:
    """A pass's results as plain data: [(op, record or None if it raised)]."""
    out = []
    for label, args, res in ops:
        if isinstance(res, Exception):
            out.append((label, None))
        elif label == "moyal_bracket":
            out.append((label, {j: plain(p) for j, p in res.coeffs.items()}))
        elif label == "gvh_certificate":
            out.append((label, (args[1], res.equal, res.degree, res.failing_order,
                                None if res.witness is None else plain(res.witness))))
        elif label == "exp_test_bracket":
            out.append((label, plain(res)))
        else:
            out.append((label, (plain(res.lhs_closed_form), plain(res.c0),
                                res.taylor_defect.is_zero)))
    return out


# ---------------------------------------------------------------- independent checks

def _oracle(root):
    import sys

    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import brute_oracle

    return brute_oracle


class SympyRing:
    """Real polynomials in (x, xi, y, eta, hbar) over QQ, in sympy."""

    def __init__(self, d: int):
        from sympy import QQ, ring

        names = ([f"x{k}" for k in range(d)] + [f"xi{k}" for k in range(d)]
                 + [f"y{k}" for k in range(d)] + [f"eta{k}" for k in range(d)] + ["hbar"])
        self.d = d
        self.QQ = QQ
        self.R, *self.gens = ring(",".join(names), QQ)
        self.X = self.gens[:2 * d]
        self.Y = self.gens[2 * d:4 * d]
        self.hbar = self.gens[-1]

    def from_x_poly(self, terms: dict):
        """An X-only polynomial {exps (length 2d): Fraction} lifted into the ring."""
        pad = (0,) * (2 * self.d + 1)
        return self.R.from_dict({e + pad: self.QQ(c.numerator, c.denominator)
                                 for e, c in terms.items()})

    def y_grad(self, p):
        """(Y . grad_X) p."""
        out = self.R.zero
        for X, Y in zip(self.X, self.Y):
            out += Y * p.diff(X)
        return out

    def shifted(self, p, sign: int):
        """p(X + sign * hbar * Y / 2)."""
        half = self.QQ(sign, 2)
        return p.compose([(X, X + half * self.hbar * Y) for X, Y in zip(self.X, self.Y)])

    def as_dict(self, p, imag: bool = False, hbar_shift: int = 0, width: int | None = None) -> dict:
        """{exps: (re, im)} in the engine's layout; `imag` multiplies by i."""
        out = {}
        for e, c in p.items():
            e = e[:-1] + (e[-1] + hbar_shift,)
            if width is not None:
                if any(e[width:]):
                    raise ValueError("term outside the target layout")
                e = e[:width]
            q = Fraction(int(c.numerator), int(c.denominator))
            out[e] = (Fraction(0), q) if imag else (q, Fraction(0))
        return out


def real_terms(H) -> dict:
    """The engine polynomial H (real coefficients) as {exps: Fraction}."""
    out = {}
    for e, c in H.terms.items():
        if c.im:
            raise ValueError("workload polynomials have real coefficients")
        out[e] = c.re
    return out


def check_pass(pairs, recs, root) -> tuple[int, int, list]:
    """Check one pass's records against computations made apart from the engine."""
    oracle = _oracle(root)
    problems: list[str] = []
    attempted = len(recs)
    failed = sum(1 for _, res in recs if res is None)
    it = iter(recs)
    for d, deg, A, H in pairs:
        tag = f"(d={d}, deg={deg})"
        ring = SympyRing(d)
        Hr = ring.from_x_poly(real_terms(H))
        label, bracket = next(it)
        if bracket is not None:
            a, h = oracle.from_engine(A), oracle.from_engine(H)
            expected = {}
            for j in range(1, deg + 1, 2):
                diff = oracle.p_add(oracle.brute_cj(a, h, j, d),
                                    oracle.p_scale(oracle.brute_cj(h, a, j, d), -1))
                term = oracle.p_scale(diff, 0, 1)
                if term:
                    expected[j - 1] = term
            if bracket != expected:
                bad = sorted(set(bracket) ^ set(expected)) or [
                    j for j in expected if bracket.get(j) != expected[j]]
                problems.append(f"{tag} moyal_bracket differs from brute_cj at hbar^{bad}")
        for m in range(first_equal_m(deg) + 1):
            label, cert = next(it)
            if cert is None:
                continue
            m_out, equal, degree, order, witness = cert
            if m_out != m or degree != deg or equal != (deg <= 2 * m + 2):
                problems.append(f"{tag} certificate m={m}: equal={equal}, degree={degree}")
                continue
            if equal:
                if witness is not None or order is not None:
                    problems.append(f"{tag} certificate m={m} is Equal but carries a witness")
                continue
            j = m + 1
            if order != 2 * j + 1:
                problems.append(f"{tag} certificate m={m}: failing order {order}, expected {2 * j + 1}")
                continue
            w = Hr
            for _ in range(2 * j + 1):
                w = ring.y_grad(w)
            w = w * ring.QQ(1, 4 ** j * factorial(2 * j + 1))
            if witness != ring.as_dict(w, imag=True, width=4 * d):
                problems.append(f"{tag} witness m={m} differs from i/(4^j (2j+1)!) (Y.grad)^(2j+1) H")
        label, etb = next(it)
        if etb is not None:
            diff = ring.shifted(Hr, +1) - ring.shifted(Hr, -1)
            if etb != ring.as_dict(diff, imag=True, hbar_shift=-1):
                problems.append(f"{tag} exp_test_bracket differs from (i/hbar)[H(X+hbar Y/2) - H(X-hbar Y/2)]")
        label, mpc = next(it)
        if mpc is not None:
            lhs, c0, defect_zero = mpc
            grad = ring.y_grad(Hr)
            if lhs != ring.as_dict(ring.shifted(grad, +1)):
                problems.append(f"{tag} mpc closed form differs from (Y.grad H)(X + hbar Y/2)")
            if c0 != ring.as_dict(grad, width=4 * d):
                problems.append(f"{tag} mpc c0 differs from Y.grad H")
            if defect_zero != (deg <= 2):
                problems.append(f"{tag} mpc taylor defect vanishing={defect_zero} for deg {deg}")
    return attempted, failed, problems



def checker_main() -> int:
    """Checker process: a job list as JSON in argv[1], [(attempted, failed,
    problems)] per job as the last line of stdout."""
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    classes = tuple(tuple(c) for c in spec["classes"])
    print(json.dumps([check_stored(root, spec["seed"], classes, index, Path(path))
                      for index, path in spec["jobs"]]))
    return 0


if __name__ == "__main__":
    sys.exit(checker_main())
