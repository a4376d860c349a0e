"""Every option, input rule and resource cap of moyal-lab, defined once; this module loads no
numpy.  The option table (COMMANDS and OPTIONS) builds the command-line parser and the option
part of its front door, `check_args`.

A refusal is a ValueError (an ExprError when it points into an expression) whose one line names
the estimate and the cap; the CLI exits 1 on it.  A cap bounds resources and changes no result.
"""

from math import inf, isfinite, prod

MAX_EXACT_DEGREE = 64
MAX_COEFFICIENT_BITS = 4096     # numerator or denominator of one coefficient
MAX_EXACT_PAIRS = 10 ** 6       # term pairs of one exact product or bracket
MAX_EXACT_PAIR_ROWS = 2 * 10 ** 6   # lowered term pairs x series orders; see README
MAX_EXACT_DIMENSION = 64        # phase-space dimension d: every term carries 2d exponents
MAX_SHIFTED_TERMS = 10 ** 5       # shifted terms x witness orders of a gvh or mpc run; see README
# gvh prints one row per m; deg H <= 2m + 2 certifies Equal, so from this m on every H within
# the exact degree cap gives the same row
MAX_TRUNCATION_ORDER = MAX_EXACT_DEGREE // 2 - 1

RUN_BYTES_CAP = 4 << 30  # largest estimated peak of a grid or operator run; admits every N <= 4096
GRID_WORK_CAP = 10 * 1024 ** 3  # N^3 log2 N summed over the star products of one run: one at N = 1024
MAX_SERIES_ORDER = 170   # the weights 1/(a! b!), a + b = j, of C_j are floats up to j = 170
ROW_BLOCK = 64           # rows per block of `grid.sample` and of weylop's operator kernels


class ExprError(ValueError):
    """Lexical/syntax/lowering error with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _check_exact(what: str, value: int, cap: int) -> int:
    if value > cap:
        raise ValueError(f"{what} {value} exceeds the exact engine's cap of {cap}")
    return value


def check_dimension(d: int) -> None:
    """Refuse an exact symbol in fewer than 1 or more than MAX_EXACT_DIMENSION dimensions."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    _check_exact("dimension", d, MAX_EXACT_DIMENSION)


def check_exact_size(bounds: tuple, pos: int) -> int:
    """The term bound of `bounds` = (degree, terms, numerator bits, denominator bits) of the
    expression at source position `pos`, once its degree and coefficient bits are in their caps."""
    degree, terms, *bits = bounds
    if degree > MAX_EXACT_DEGREE:
        raise ExprError(f"degree bound {degree} exceeds the exact engine's cap of {MAX_EXACT_DEGREE}",
                        pos)
    if max(bits) > MAX_COEFFICIENT_BITS:
        raise ExprError(f"coefficient bound of {max(bits)} bits exceeds the exact engine's cap "
                        f"of {MAX_COEFFICIENT_BITS} bits", pos)
    return terms


def check_exact_pairs(pairs: int) -> int:
    """Refuse an exact product or bracket whose term-pair estimate exceeds the cap."""
    return _check_exact("term-pair estimate", pairs, MAX_EXACT_PAIRS)


def check_exact_rows(A, B) -> int:
    """Refuse the lowered operands of an exact product or bracket when their term pairs,
    times the min(deg A, deg B) + 1 orders each pair can reach, exceed the cap."""
    rows = len(A.num) * len(B.num) * (min(A.degree(), B.degree()) + 1)
    return _check_exact("pair-row estimate", rows, MAX_EXACT_PAIR_ROWS)


def check_shifted_terms(H, orders: int = 1) -> int:
    """Refuse a one-operand run (gvh, mpc) when its shifted terms, the sum over the terms of H of
    prod_k (a_k + 1)(b_k + 1), times its witness orders exceed the cap: a Taylor shift of H, and
    the kernel's shifted operand, hold up to that many terms."""
    d = H.shape.d
    work = orders * sum(prod((e[k] + 1) * (e[d + k] + 1) for k in range(d)) for e in H.num)
    return _check_exact("shifted-term estimate", work, MAX_SHIFTED_TERMS)


def check_lattice(n: int, box: float, hbar: float) -> None:
    """Refuse a periodic lattice unless N >= 16 is a power of two and L and hbar are positive."""
    if n < 16 or n & (n - 1):
        raise ValueError("grid size must be a power of two, at least 16")
    if not (isfinite(box) and isfinite(hbar) and box > 0 and hbar > 0):
        raise ValueError("box half-length and hbar must be finite and positive")


def check_grid_bytes(n: int) -> int:
    """Peak bytes of a `star --mode grid` or `remainder` run at N = n; ValueError above the cap.

    The peak is star_grid beside both samples: 8 complex N x N arrays of its own (C, FB, phase,
    E, out and three work buffers) and 2 samples, plus 1 array of transients and 1 MiB of
    fixed-size state.  Sampling (its output and the evaluator transients of one ROW_BLOCK-row
    block beside the other sample) and the remainder series (the product, its partial sum and
    one C_j with its spectral derivatives, beside both samples) stay below it.
    """
    need = 16 * n * n * 11 + (1 << 20)
    if need > RUN_BYTES_CAP:
        raise ValueError(f"N = {n} needs about {need / 2 ** 30:.1f} GiB, above the "
                         f"{RUN_BYTES_CAP >> 30} GiB cap of a grid run")
    return need


def check_grid_work(n: int, products: int = 1) -> int:
    """Work estimate of `products` star products at N = n, products · N^3 log2 N (the mode sum
    of `star_grid`); ValueError above GRID_WORK_CAP, before anything is sampled."""
    work = products * n ** 3 * (n.bit_length() - 1)
    if work > GRID_WORK_CAP:
        raise ValueError(f"N = {n} with {products} star product(s) needs about {work:.2e} grid "
                         f"operations (N^3 log2 N each), above the cap of {GRID_WORK_CAP:.2e}, "
                         f"one product at N = 1024")
    return work


def check_run_bytes(n: int, evolve: bool = False) -> int:
    """Peak bytes of a `quantize` run (`egorov` with evolve) at N = n; ValueError above the cap.

    The peak of `quantize` and `coherent` is symbol_from_operator beside the operator: 4 complex
    N x N arrays.  That of `egorov` is heisenberg_evolve beside Op(A) and Op(H): 5 arrays.
    Either adds 256 ROW_BLOCK N bytes of row blocks, the most any block loop of the run holds.
    """
    need = 16 * n * n * (5 if evolve else 4) + 256 * ROW_BLOCK * n
    if need > RUN_BYTES_CAP:
        raise ValueError(f"Nx = {n} needs about {need / 2 ** 30:.1f} GiB, above the "
                         f"{RUN_BYTES_CAP >> 30} GiB cap of an operator run")
    return need


def check_series_orders(orders) -> None:
    """Refuse series orders below 0 or above MAX_SERIES_ORDER."""
    if any(o < 0 for o in orders):
        raise ValueError(f"series orders must be >= 0, got {list(orders)}")
    top = max(orders, default=0)
    if top > MAX_SERIES_ORDER:
        raise ValueError(f"series order {top} exceeds {MAX_SERIES_ORDER}, the largest whose "
                         f"weights 1/(a! b!) are floats")


REQUIRED = ...      # the default of an option that every run of its subcommand gives


def _on(names: str, default=REQUIRED) -> dict:
    return dict.fromkeys(names.split(), default)


def _need(*checks):
    """The value rule of (ok, message) pairs: the value once every ok(value) holds, in order."""
    def rule(value, mode=None):
        for ok, message in checks:
            if not ok(value):
                raise ValueError(message)
        return value
    return rule


def _numbers(kind, *checks):
    """The value rule of a comma-separated list: its numbers of `kind`, once `checks` hold."""
    def rule(text, mode=None):
        try:
            values = [kind(t) for t in text.split(",") if t.strip()]
        except ValueError as exc:
            raise ExprError(f"bad numeric list {text!r}", 0) from exc
        return _need(*checks)(values)
    return rule


def _dimension(d: int, mode: str) -> int:
    """The rule of --d: 1 in grid mode, else the exact engine's dimension rule."""
    if mode == "grid" and d != 1:
        raise ValueError(f"--mode grid runs in dimension 1 only, got --d {d}")
    check_dimension(d)
    return d


# subcommand: (help, its modes, the default mode); --mode chooses when there are two or more
COMMANDS = {
    "star": ("Moyal product, exact or on the grid", ("exact", "grid"), "exact"),
    "bracket": ("Poisson / Moyal / truncated brackets", ("poisson", "moyal", "truncated", "both"),
                "both"),
    "gvh": ("bracket-equality certificates", ("exact",), "exact"),
    "mpc": ("conjugation-identity expansion report", ("exact",), "exact"),
    "remainder": ("series-remainder scaling scan", ("grid",), "grid"),
    "quantize": ("build a Weyl operator and round-trip it", ("grid",), "grid"),
    "egorov": ("quadratic quantum vs classical transport", ("grid",), "grid"),
    "coherent": ("coherent-state expectation sweep", ("grid",), "grid"),
}

# Every option, in the order the front door checks them.  flag: (type, a bool being a switch
# and a tuple the choices; {subcommand: default}; the one mode that reads it, None for every
# mode; value rule (value, mode) -> value; what it does)
OPTIONS = {
    "--A": (str, _on("star bracket remainder quantize egorov coherent"), None, None, None),
    "--B": (str, _on("star remainder"), None, None, None),
    "--H": (str, _on("bracket gvh mpc egorov"), None, None, None),
    "--t": (float, _on("egorov"), None, _need((isfinite, "--t must be finite")), None),
    "--orders": (str, _on("remainder"), None,
                 _numbers(int, (bool, "--orders needs at least one value")), None),
    "--Y": (str, _on("coherent"), None,
            _numbers(float, (lambda v: len(v) == 2 and all(map(isfinite, v)),
                             "--Y needs two finite numbers y,eta")), "y,eta"),
    "--hbars": (str, _on("remainder coherent"), None,
                _numbers(float, (bool, "--hbars needs at least one value")), None),
    "--m": (int, _on("bracket", 0), "truncated",
            _need((lambda m: m >= 0, "truncation order must be >= 0")),
            "sets the truncation order"),
    "--max-m": (int, _on("gvh", 0), None,
                _need((lambda m: m >= 0, "--max-m must be >= 0"),
                      (lambda m: m <= MAX_TRUNCATION_ORDER,
                       f"--max-m must be at most {MAX_TRUNCATION_ORDER}: every H within the "
                       f"degree cap of {MAX_EXACT_DEGREE} is Equal from there on")), None),
    "--N": (int, _on("star remainder", 64), "grid", None, "sets the grid size"),
    "--Nx": (int, {"quantize": 128, "egorov": 256, "coherent": 256}, None, None, None),
    "--L": (float, {"star": 6.0, **_on("remainder quantize egorov coherent", 8.0)}, "grid", None,
            "sets the box half-length"),
    "--hbar": (float, _on("star quantize egorov", 1.0), "grid", None, "sets the grid's hbar"),
    "--spectral": (bool, _on("quantize", False), None, None,
                   "exact periodic spectral lattice; a term in xi needs a Gaussian envelope"),
    "--tol": (float, {"quantize": 1e-5, "egorov": 1e-4}, None,
              _need((lambda t: 0 <= t < inf, "--tol must be finite and >= 0")), None),
    "--save": (str, _on("star quantize", None), "grid", None, "stores a grid product"),
    "--format": (("json", "csv"), _on("remainder", "json"), None, None, None),
    "--out": (str, dict.fromkeys(COMMANDS), None, None, "writes the output to a file"),
    "--d": (int, _on("star bracket gvh mpc", 1), None, _dimension, "phase-space dimension"),
}


def check_args(args) -> bool:
    """The command line's front door: give parsed `args` the default of each option not given
    and refuse them by every rule that needs no operand, before any operand is parsed or numpy
    loads; say whether the run is numeric.

    The order is fixed: each option in table order (given but not read by the run's mode, then
    its value rule; lists are parsed in place), the lattice (N or Nx, L, every hbar), the memory
    and work caps, the series orders.  The rules that need an operand run where it is parsed.
    """
    args.mode = getattr(args, "mode", COMMANDS[args.cmd][2])
    for flag, (_, defaults, reads, rule, does) in OPTIONS.items():
        dest = flag[2:].replace("-", "_")
        if args.cmd not in defaults:
            continue
        if not hasattr(args, dest):
            setattr(args, dest, defaults[args.cmd])
        elif reads and args.mode != reads:
            raise ValueError(f"{flag} {does}: it needs --mode {reads}")
        elif rule:
            setattr(args, dest, rule(getattr(args, dest), args.mode))
    if args.mode != "grid":
        return False

    n = args.N if hasattr(args, "N") else args.Nx
    hbars = args.hbars if hasattr(args, "hbars") else [args.hbar]
    for hbar in hbars:
        check_lattice(n, args.L, hbar)
    if hasattr(args, "N"):      # star products on the phase-space grid: star and remainder
        check_grid_bytes(n)
        check_grid_work(n, len(hbars))
    else:                       # operators on the position grid: quantize, egorov, coherent
        check_run_bytes(n, evolve=args.cmd == "egorov")
    check_series_orders(getattr(args, "orders", ()))
    return True
