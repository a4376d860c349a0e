"""Benchmark for moyal-lab: exact engine, numeric kernels and command line.

    python3 perfbench/run.py --workload {exact,numeric,cli} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository (the program is imported from its
``src/``, the brute oracle from ``tests/``).  One process generates the
load and runs requests one after another.  A run

1. times set-up SETUP_PROBES times in fresh processes and keeps the median
   (``setup_s``);
2. sets itself up, then runs whole passes over a seeded batch until
   ``--seconds`` have gone by, timing each pass (``pass_s`` is the median);
3. reads the peak resident memory of the process that did the work
   (``peak_rss_mb``; for ``cli``, the largest child);
4. checks every result against computations made apart from the program.

With ``--trace 1`` the run makes every pass twice, untraced and with its
layer boundaries wrapped in spans, then makes one pass with fine-grained
counters and memory tracking, and reports the per-layer metrics.  The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

CHILD_ENV = dict(os.environ)
# single-threaded numeric backends, pinned before numpy can load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import SPANS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact", "numeric", "cli")
SETUP_PROBES = 11

# per-layer metric -> (unit, how it is read): ("span", name) sums span time per
# pass, ("calls", name) counts spans per pass, ("count", name) comes from the
# counter pass, ("peak", name) from its memory tracking, ("self", layer) is a
# layer's self time per pass
PER_LAYER = {
    "star.moyal_bracket_s": ("s", "span", "star.moyal_bracket"),
    "certify.gvh_certificate_s": ("s", "span", "certify.gvh_certificate"),
    "certify.exp_test_bracket_s": ("s", "span", "certify.exp_test_bracket"),
    "certify.mpc_identity_check_s": ("s", "span", "certify.mpc_identity_check"),
    "star.cj_coefficient_calls": ("count", "calls", "star.cj_coefficient"),
    "exppoly.cj_exp_calls": ("count", "calls", "exppoly.cj_exp"),
    "crational.mul_calls": ("count", "count", "crational.mul"),
    "polysym.mul_calls": ("count", "count", "polysym.mul"),
    "evaluators.sample_s": ("s", "span", "evaluators.SymbolEvaluator.__call__"),
    "grid.star_grid_s": ("s", "span", "grid.star_grid"),
    "grid.star_grid_peak_mb": ("MB", "peak", "grid.star_grid"),
    "grid.cj_grid_s": ("s", "span", "grid.cj_grid"),
    "grid.remainder_scaling_scan_s": ("s", "span", "grid.remainder_scaling_scan"),
    "weylop.quantize_kernel_s": ("s", "span", "weylop.quantize_kernel"),
    "weylop.symbol_from_operator_s": ("s", "span", "weylop.symbol_from_operator"),
    "weylop.heisenberg_evolve_s": ("s", "span", "weylop.heisenberg_evolve"),
    "weylop.peak_mb": ("MB", "peak", "weylop"),
    "gridio.save_s": ("s", "span", "gridio.save"),
    "gridio.load_s": ("s", "span", "gridio.load"),
    "exprparse.parse_s": ("s", "self", "exprparse"),
    "cli.startup_s": ("s", "span", "cli.startup"),
    "cli.star_exact_s": ("s", "span", "cli.star_exact"),
    "cli.star_grid_s": ("s", "span", "cli.star_grid"),
    "cli.bracket_s": ("s", "span", "cli.bracket"),
    "cli.gvh_s": ("s", "span", "cli.gvh"),
    "cli.mpc_s": ("s", "span", "cli.mpc"),
    "cli.remainder_s": ("s", "span", "cli.remainder"),
    "cli.quantize_s": ("s", "span", "cli.quantize"),
    "cli.egorov_s": ("s", "span", "cli.egorov"),
    "cli.coherent_s": ("s", "span", "cli.coherent"),
    "self.polysym_s": ("s", "self", "polysym"),
    "self.star_s": ("s", "self", "star"),
    "self.exppoly_s": ("s", "self", "exppoly"),
    "self.certify_s": ("s", "self", "certify"),
    "self.evaluators_s": ("s", "self", "evaluators"),
    "self.grid_s": ("s", "self", "grid"),
    "self.weylop_s": ("s", "self", "weylop"),
    "self.gridio_s": ("s", "self", "gridio"),
    "self.cli_s": ("s", "self", "cli"),
    "trace.overhead_s": ("s", "overhead", None),
}

# wrapped only in the counter pass: (module, attribute, kind, name)
COUNTERS = {
    "exact": [("crational", "CRational.__mul__", "count", "crational.mul"),
              ("polysym", "PolySymbol.__mul__", "count", "polysym.mul")],
    "numeric": [("grid", "star_grid", "memory", "grid.star_grid"),
                ("weylop", "quantize_kernel", "memory", "weylop"),
                ("weylop", "symbol_from_operator", "memory", "weylop"),
                ("weylop", "egorov_compare", "memory", "weylop")],
    "cli": [],
}


def make_workload(name: str, seed: int):
    if name == "exact":
        from wl_exact import ExactWorkload
        return ExactWorkload(ROOT, seed, OUT)
    if name == "numeric":
        from wl_numeric import NumericWorkload
        return NumericWorkload(ROOT, seed, OUT)
    from wl_cli import CliWorkload
    return CliWorkload(ROOT, seed, OUT, CHILD_ENV)


# ---------------------------------------------------------------- set-up timing

def setup_seconds(wl, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh processes."""
    if wl.name == "cli":
        return statistics.median(wl.setup_once() for _ in range(SETUP_PROBES))
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               wl.name, "--seed", str(seed), "--setup-probe"],
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


# ---------------------------------------------------------------- passes

def one_pass(wl, index: int, tracer=None) -> tuple[float, int]:
    """Run pass `index` and check it; returns (seconds, root span).

    With a tracer, the workload's layer boundaries are spanned for the pass.
    """
    batch = wl.inputs(index)
    root = -1
    if tracer is not None:
        tracer.wrap_layers(SPANS.get(wl.name, []))
        root = tracer.open("pass")
    try:
        start = time.perf_counter()
        if wl.name == "cli":
            ops = wl.run_pass(batch, tracer, root)
        else:
            ops = wl.run_pass(batch)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.restore()
    wl.after_pass(index, batch, ops)
    return elapsed, root                    # the pass's results are dropped here


def run_passes(wl, seconds: float) -> list[float]:
    """Whole passes until `seconds` have gone by; returns the time of each."""
    done = []
    begin = time.perf_counter()
    while not done or time.perf_counter() - begin < seconds:
        done.append(one_pass(wl, len(done))[0])
    return done


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_run(wl, seconds: float, seed: int):
    """Each pass's inputs run untraced and traced, back to back, in alternating
    order; then one pass with counters and memory tracking."""
    tracer = Tracer()
    plain, traced, roots = [], [], []
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < seconds:
        index = len(plain)
        for spanned in ((False, True) if index % 2 == 0 else (True, False)):
            if spanned:
                elapsed, root = one_pass(wl, index, tracer)
                traced.append(elapsed)
                roots.append(root)
            else:
                plain.append(one_pass(wl, index)[0])
    counters = Tracer()
    if COUNTERS[wl.name]:
        index = len(plain)
        batch = wl.inputs(index)
        for mod, attr, kind, name in COUNTERS[wl.name]:
            counters.wrap(sys.modules[f"moyal_lab.{mod}"], attr, kind, name)
        try:
            with counters.memory_tracking():
                ops = wl.run_pass(batch)
        finally:
            counters.restore()
        wl.after_pass(index, batch, ops)
        del ops
    tracer.dump(OUT / f"trace-{wl.name}-seed{seed}.jsonl")

    per_pass = [tracer.totals(root) + (tracer.self_times(root),) for root in roots]
    overhead = statistics.median(t - u for t, u in zip(traced, plain))
    metrics = {}
    for name, (unit, how, key) in PER_LAYER.items():
        if how == "span":
            value = statistics.median(times.get(key, 0.0) for times, _, _ in per_pass)
        elif how == "calls":
            value = statistics.median(calls.get(key, 0) for _, calls, _ in per_pass)
        elif how == "self":
            value = statistics.median(selfs.get(key, 0.0) for _, _, selfs in per_pass)
        elif how == "count":
            value = counters.counts.get(key, 0)
        elif how == "peak":
            value = counters.peaks.get(key, 0.0)
        else:
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
    print(f"{wl.name}: self time per layer per pass (median of {len(traced)} traced passes)")
    for layer in sorted({k for *_, selfs in per_pass for k in selfs}):
        print(f"  {layer:12s} {statistics.median(s.get(layer, 0.0) for *_, s in per_pass):9.4f} s")
    print(f"  tracing overhead {overhead:+.4f} s per pass, median over {len(plain)} pairs "
          f"(traced {statistics.median(traced):.4f} s, untraced {statistics.median(plain):.4f} s)")
    return metrics


# ---------------------------------------------------------------- entry point

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    missing = [str(f) for f in (ROOT / "src" / "moyal_lab" / "__init__.py",
                                ROOT / "tests" / "brute_oracle.py") if not f.is_file()]
    if missing:
        print(f"perfbench: not a moyal-lab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)

    wl = make_workload(args.workload, args.seed)
    if args.setup_probe:
        wl.setup()
        print(time.monotonic())
        return 0

    if args.trace:
        wl.setup()
        metrics = traced_run(wl, args.seconds, args.seed)
    else:
        setup_s = setup_seconds(wl, args.seed)
        wl.setup()
        done = run_passes(wl, args.seconds)
        # read before the checks, which load sympy and the oracle
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "pass_s": {"value": statistics.median(done), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb(wl), "unit": "MB"}}
        print(f"{wl.name}: {len(done)} passes, pass_s "
                + " ".join(f"{s:.3f}" for s in done))
    attempted, failed, problems = wl.finish()
    for line in problems[:50]:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
