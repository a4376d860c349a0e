"""Run `moyal-lab ARGS...` with spans around its handlers, parser and engine layers.

The traced cli run launches each invocation through this file instead of
the plain entry point.  Besides the handlers (`cli.cmd_*`) and the parser,
the same exact and numeric layer boundaries as in the other workloads are
spanned, so a kernel's time inside a handler counts for its own layer.  The
numeric modules are wrapped when a handler first imports them, after
`cli.main` has applied MOYAL_LAB_THREADS.  The spans go, as JSON, to the
file named by PERFBENCH_SPANS; their times are on this process's
perf_counter, with the offset to the shared monotonic clock alongside.
"""

import json
import os
import sys
import time

from tracer import SPANS, Tracer


def main() -> int:
    from moyal_lab import cli, exprparse

    tracer = Tracer()
    for attr in sorted(vars(cli)):
        if attr.startswith("cmd_"):
            tracer.wrap(cli, attr)
    for attr in ("parse_symbol", "lower_poly", "lower_evaluator"):
        tracer.wrap(exprparse, attr)
    tracer.wrap_layers(SPANS["exact"] + SPANS["numeric"])
    entered = time.perf_counter()
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"offset": time.monotonic() - time.perf_counter(), "main": entered,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
