"""Every input rule and resource cap of moyal-lab, defined once; this module loads no numpy.

A refusal is a ValueError (an ExprError when it points into an expression) whose one line names
the estimate and the cap; the CLI exits 1 on it.  A cap bounds resources and changes no result.
"""

from math import inf, isfinite, prod

MAX_EXACT_DEGREE = 64
MAX_COEFFICIENT_BITS = 4096     # numerator or denominator of one coefficient
MAX_EXACT_PAIRS = 10 ** 6       # term pairs of one exact product or bracket
MAX_EXACT_PAIR_ROWS = 2 * 10 ** 6   # lowered term pairs x series orders; see README
MAX_EXACT_DIMENSION = 64        # phase-space dimension d: every term carries 2d exponents
MAX_SHIFTED_TERMS = 10 ** 5       # shifted terms x kernel calls of one gvh or mpc run; see README
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


def check_shifted_terms(H, calls: int = 1) -> int:
    """Refuse a one-operand run (gvh, mpc) when its shifted terms, the sum over the terms of H of
    prod_k (a_k + 1)(b_k + 1), times its kernel calls exceed the cap: a Taylor shift of H, and
    the kernel's shifted operand, hold up to that many terms."""
    d = H.shape.d
    work = calls * sum(prod((e[k] + 1) * (e[d + k] + 1) for k in range(d)) for e in H.num)
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


def _num_list(text: str, kind=float, name: str = "") -> list:
    """The comma-separated numbers of `text`; at least one when the option `name` is given."""
    try:
        values = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ExprError(f"bad numeric list {text!r}", 0) from exc
    if name and not values:
        raise ValueError(f"{name} needs at least one value")
    return values


def check_args(args) -> bool:
    """The command line's front door: refuse parsed `args` by every rule that needs no operand,
    before any operand is parsed or numpy loads, and say whether the run is numeric.

    The order is fixed: option values, mode/option consistency, the lattice (N or Nx, L, every
    hbar), the memory and work caps, the series orders.  --hbars, --orders and --Y are parsed in
    place, into `hbars_list`, `orders_list` and `Y`.  The exact caps need the operands, and so do
    egorov's deg H <= 2 and the envelope rule of `quantize --spectral`: they run where the
    operand is parsed.
    """
    if hasattr(args, "hbars"):
        args.hbars_list = _num_list(args.hbars, float, "--hbars")
    if hasattr(args, "orders"):
        args.orders_list = _num_list(args.orders, int, "--orders")
    if hasattr(args, "Y"):
        args.Y = _num_list(args.Y)
        if len(args.Y) != 2 or not all(map(isfinite, args.Y)):
            raise ValueError("--Y needs two finite numbers y,eta")
    if not isfinite(getattr(args, "t", 0.0)):
        raise ValueError("--t must be finite")
    if not 0 <= getattr(args, "tol", 0.0) < inf:
        raise ValueError("--tol must be finite and >= 0")
    if getattr(args, "max_m", 0) < 0:
        raise ValueError("--max-m must be >= 0")
    if getattr(args, "max_m", 0) > MAX_TRUNCATION_ORDER:
        raise ValueError(f"--max-m must be at most {MAX_TRUNCATION_ORDER}: every H within the "
                         f"degree cap of {MAX_EXACT_DEGREE} is Equal from there on")

    numeric = args.cmd not in ("gvh", "mpc") and getattr(args, "mode", "grid") == "grid"
    if args.cmd == "star" and args.save and not numeric:
        raise ValueError("--save stores a grid product: it needs --mode grid")
    if not numeric:
        return False
    if args.cmd == "star" and args.d != 1:
        raise ValueError(f"--mode grid runs in dimension 1 only, got --d {args.d}")

    n = args.N if hasattr(args, "N") else args.Nx
    hbars = args.hbars_list if hasattr(args, "hbars_list") else [args.hbar]
    for hbar in hbars:
        check_lattice(n, args.L, hbar)
    if hasattr(args, "N"):      # star products on the phase-space grid: star and remainder
        check_grid_bytes(n)
        check_grid_work(n, len(hbars))
    else:                       # operators on the position grid: quantize, egorov, coherent
        check_run_bytes(n, evolve=args.cmd == "egorov")
    check_series_orders(getattr(args, "orders_list", ()))
    return True
