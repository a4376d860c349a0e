"""Self-test of the benchmark's checkers, and a smoke run of its workloads.

    python3 perfbench/selftest.py            # checkers only, small sizes
    python3 perfbench/selftest.py --smoke    # also one pass of each workload

Every checker first sees a genuine result, which it must accept, and then
deliberately perturbed copies, each of which it must reject, so that no
check is vacuous.  The smoke run makes one untraced pass of each workload
through ``run.py --seconds 0`` and one traced run of ``cli`` (its one pass
made untraced and traced), and asserts the result line: correct, and
exactly the failures the workload is known to count.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

FAILURES: list[str] = []


def expect(label: str, problems: list, rejected: bool) -> None:
    ok = bool(problems) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {label}: "
          f"{'rejected' if problems else 'accepted'}"
          + (f" ({problems[0][:90]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def _bump(terms: dict) -> dict:
    """The same polynomial with one coefficient changed by 1."""
    out = dict(terms)
    e = sorted(out)[0]
    re, im = out[e]
    out[e] = (re + 1, im)
    return out


# ---------------------------------------------------------------- exact

def selftest_exact() -> None:
    import wl_exact

    wl = wl_exact.ExactWorkload(ROOT, 7, OUT, classes=((1, 5, 8), (2, 3, 10)))
    wl.setup()
    pairs = wl.inputs(0)
    recs = wl_exact.records(wl.run_pass(pairs))
    check = lambda r: wl_exact.check_pass(pairs, r, ROOT)[2]  # noqa: E731
    expect("exact genuine", check(recs), rejected=False)

    def perturbed(label, edit):
        r = copy.deepcopy(recs)
        edit(r)
        expect(f"exact {label}", check(r), rejected=True)

    def idx(label, nth=0):
        return [k for k, (lab, _) in enumerate(recs) if lab == label][nth]

    def bracket(r):
        k = idx("moyal_bracket")
        series = r[k][1]
        series[0] = _bump(series[0])

    def cert_flip(r):
        k = idx("gvh_certificate", 2)           # deg 5, m = 2: Equal
        m, equal, degree, order, w = r[k][1]
        r[k] = ("gvh_certificate", (m, not equal, degree, order, w))

    def witness(r):
        k = idx("gvh_certificate", 0)           # deg 5, m = 0: witness at order 3
        m, equal, degree, order, w = r[k][1]
        r[k] = ("gvh_certificate", (m, equal, degree, order, _bump(w)))

    def exp_test(r):
        k = idx("exp_test_bracket")
        r[k] = ("exp_test_bracket", _bump(r[k][1]))

    def mpc_lhs(r):
        k = idx("mpc_identity_check")
        lhs, c0, zero = r[k][1]
        r[k] = ("mpc_identity_check", (_bump(lhs), c0, zero))

    def mpc_defect(r):
        k = idx("mpc_identity_check")
        lhs, c0, zero = r[k][1]
        r[k] = ("mpc_identity_check", (lhs, c0, not zero))

    for label, edit in (("bracket coefficient", bracket), ("certificate verdict", cert_flip),
                        ("witness", witness), ("exp-test bracket", exp_test),
                        ("mpc closed form", mpc_lhs), ("mpc taylor defect", mpc_defect)):
        perturbed(label, edit)


# ---------------------------------------------------------------- numeric

def selftest_numeric() -> None:
    import numpy as np

    import wl_numeric

    wl = wl_numeric.NumericWorkload(ROOT, 7, OUT, sizes=(64, 64, 128, 128))
    wl.setup()
    p = wl.inputs(0)
    ops = wl.run_pass(p)
    evolved = wl.evolution(p)
    check = lambda o, e=evolved: wl_numeric.check_pass(np, p, o, e)  # noqa: E731
    expect("numeric genuine", check(ops), rejected=False)
    GridSymbol, OperatorMatrix = wl.grid.GridSymbol, wl.weylop.OperatorMatrix

    def replace(label, value, nth=0):
        out = list(ops)
        k = [i for i, (lab, _, _) in enumerate(ops) if lab == label][nth]
        out[k] = (label, ops[k][1], value)
        return out

    def nudged(g, eps=1e-6):
        s = np.array(g.samples)
        s[s.shape[0] // 2, s.shape[1] // 2] += eps
        return GridSymbol(g.spec, s)

    expect("numeric star_grid value", check(replace("star_grid", nudged(ops[0][2]))), True)
    scan = copy.deepcopy(ops[3][2])
    scan["slopes"] = {1: scan["slopes"][2], 2: scan["slopes"][1]}
    expect("numeric remainder slopes", check(replace("remainder_scaling_scan", scan)), True)
    sym = [r for lab, _, r in ops if lab == "symbol_from_operator"][0]
    expect("numeric quantize round trip",
           check(replace("symbol_from_operator", nudged(sym, 1e-3))), True)
    rep = dict([r for lab, _, r in ops if lab == "egorov_compare"][0], relative_mismatch=1e-3)
    expect("numeric egorov mismatch", check(replace("egorov_compare", rep)), True)
    before, after = evolved[0]
    moved = [(before, after + 1e-3 * np.eye(after.shape[0]))]
    expect("numeric heisenberg spectrum", check(ops, moved), True)
    g, op = [r for lab, _, r in ops if lab == "gridio.load"][0]
    expect("numeric gridio load", check(replace("gridio.load", (nudged(g), op))), True)
    bad_op = OperatorMatrix(op.grid, op.entries * (1 + 1e-15j))
    expect("numeric gridio operator", check(replace("gridio.load", (g, bad_op))), True)
    wl.finish()


# ---------------------------------------------------------------- cli

def swap_slopes(text: str) -> str:
    """The remainder CSV with the fitted slopes of orders 1 and 2 exchanged."""
    lines = text.splitlines()
    k = lines.index("order,slope,")
    a, b = lines[k + 1].split(","), lines[k + 2].split(",")
    a[1], b[1] = b[1], a[1]
    lines[k + 1:k + 3] = [",".join(a), ",".join(b)]
    return "\n".join(lines) + "\n"


def selftest_cli() -> None:
    import wl_cli

    wl = wl_cli.CliWorkload(ROOT, 7, OUT, dict(os.environ))
    ops = wl.run_pass(wl.inputs(0))
    outs = {key: out for key, _, out in ops}
    for key, _ in wl_cli.EXAMPLES:
        expect(f"cli genuine {key}", wl_cli.check_example(key, outs[key]), rejected=False)

    def edited(key, edit):
        out = dict(outs[key])
        if key == "remainder":
            out["stdout"] = edit(out["stdout"])
        else:
            data = json.loads(out["stdout"])
            edit(data)
            out["stdout"] = json.dumps(data)
        return wl_cli.check_example(key, out)

    def set_in(path, value):
        def edit(data):
            node = data
            for k in path[:-1]:
                node = node[k]
            node[path[-1]] = value
        return edit

    cases = {
        "star_exact": set_in(["result", "coefficients", "1", 0, "im"], "1/3"),
        "bracket": set_in(["result", "moyal", "coefficients", "2", 0, "re"], "3/2"),
        "gvh": set_in(["results", 0, "witness", 0, "im"], "1/2"),
        "mpc": set_in(["result", "lhs_closed_form", 0, "re"], "3/8"),
        "star_grid": set_in(["result", "origin", "re"], 0.5001),
        "coherent": set_in(["result", "rows", 0, "abs_error"], 0.1251),
        "quantize": set_in(["result", "roundtrip_interior_sup_error"], 1.0),
        "egorov": set_in(["result", "relative_mismatch"], 1e-3),
        "remainder": swap_slopes,
    }
    for key, edit in cases.items():
        expect(f"cli {key} value", edited(key, edit), rejected=True)

    wl.after_pass(0, None, ops)
    expect("cli genuine pass", wl.problems, rejected=False)
    changed = [(k, a, dict(o, stdout=o["stdout"].replace("1/2", "2/4"))) if k == "star_exact"
               else (k, a, o) for k, a, o in ops]
    wl.after_pass(1, None, changed)
    expect("cli determinism across passes", wl.problems, rejected=True)

    good = {"rc": 1, "stdout": "", "stderr": "moyal-lab: bad input\n"}
    for label, out, accepted in (
            ("one-line error", good, True),
            ("traceback", dict(good, stderr="Traceback (most recent call last):\n  x\nError\n"), False),
            ("exit 0", dict(good, rc=0), False),
            ("exit 3", dict(good, rc=3), False),
            ("stdout written", dict(good, stdout="{}\n"), False),
            ("silent", dict(good, stderr=""), False)):
        ok = wl_cli.malformed_ok(out) == accepted
        print(f"{'ok  ' if ok else 'FAIL'} cli malformed contract, {label}: "
              f"{'accepted' if wl_cli.malformed_ok(out) else 'rejected'}")
        if not ok:
            FAILURES.append(f"malformed {label}")
    today = [key for key, _, out in ops if key.startswith("bad_") and not wl_cli.malformed_ok(out)]
    print(f"     malformed invocations failing today: {', '.join(sorted(today))}")


# ---------------------------------------------------------------- smoke

def smoke() -> None:
    """One pass of each workload through run.py (and one traced cli run)."""
    expected = {"exact": (25, 0), "numeric": (9, 0), "cli": (13, 4)}
    runs = [(w, "0") for w in expected] + [("cli", "1")]
    for w, trace in runs:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                               "--seed", "3", "--seconds", "0", "--trace", trace],
                              capture_output=True, text=True, timeout=170)
        label = f"smoke {w} trace={trace}"
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            FAILURES.append(label)
            continue
        attempted, failed = expected[w]
        rounds = 1 if trace == "0" else 2       # a traced run makes its pass twice
        ok = (proc.returncode == 0 and result["correct"]
              and result["attempted"] == attempted * rounds and result["failed"] == failed * rounds)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {json.dumps(result)[:160]}")
        if not ok:
            FAILURES.append(label)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT.mkdir(parents=True, exist_ok=True)
    selftest_exact()
    selftest_numeric()
    selftest_cli()
    if "--smoke" in sys.argv[1:]:
        smoke()
    print(f"{len(FAILURES)} failure(s)" + (": " + ", ".join(FAILURES) if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
