"""Independent brute-force oracle for the bidifferential product coefficients.

Deliberately separate from the package: its own polynomial representation
(dict of exponent tuples -> (re, im) Fraction pairs over the 2d phase
variables; `brute_cj` and `p_mul` run on integer numerators over one
denominator per operand within a call), its own derivative code, its own
multi-index enumeration.  The engine must agree with this on frozen
examples and random inputs.

`brute_cj_exp` is one exception: exponential test symbols have no
representation here, so it runs the index-pair sum on the package's
`ExpPolySymbol`, using only its single-variable `partial` and its ring
operations, never the engine's bidifferential kernel.  `brute_translated`
is the other: the substitution loop `PolySymbol.translated` used before its
Taylor-shift kernel, built on `PolySymbol` ring operations alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm

# polynomial: {exps: (re, im)}, exps a tuple of 2d non-negative ints
# variable order: x_1..x_d, xi_1..xi_d


def p_zero():
    return {}


def p_clean(p):
    return {e: c for e, c in p.items() if c[0] or c[1]}


def p_add(p, q):
    out = dict(p)
    for e, (re, im) in q.items():
        r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (r0 + re, i0 + im)
    return p_clean(out)


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def p_integer(p):
    """(D, {exps: (re * D, im * D)}): integer numerators over one denominator D."""
    den = lcm(1, *(f.denominator for c in p.values() for f in c))
    return den, {e: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
                 for e, (re, im) in p.items()}


def p_mul(p, q):
    """Product on integer numerators, one denominator per factor; Fractions built once."""
    dp, pn = p_integer(p)
    dq, qn = p_integer(q)
    out = {}
    for e1, (a, b) in pn.items():
        for e2, (c, d) in qn.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            r0, i0 = out.get(e, (0, 0))
            out[e] = (r0 + a * c - b * d, i0 + a * d + b * c)
    den = dp * dq
    return {e: (Fraction(re, den), Fraction(im, den)) for e, (re, im) in out.items() if re or im}


def p_scale(p, re, im=Fraction(0)):
    s = (Fraction(re), Fraction(im))
    if not s[1]:        # a real factor: two products per term, not four
        return p_clean({e: (c[0] * s[0], c[1] * s[0]) for e, c in p.items()})
    return p_clean({e: c_mul(c, s) for e, c in p.items()})


def p_partial(p, var):
    """d/d(variable var), on Fraction pairs and on integer numerators alike."""
    out = {}
    for e, c in p.items():
        if e[var] == 0:
            continue
        ne = e[:var] + (e[var] - 1,) + e[var + 1:]
        scaled = (c[0] * e[var], c[1] * e[var])
        r0, i0 = out.get(ne, (0, 0))
        out[ne] = (r0 + scaled[0], i0 + scaled[1])
    return p_clean(out)


def multi_indices(d, total):
    """All length-d tuples of non-negative ints summing to <= total grouped by sum."""
    return [m for m in itertools.product(range(total + 1), repeat=d) if sum(m) <= total]


def brute_cj(A, B, j, d):
    """C_j(A,B) straight from the definition, D = -i grad.

    The sum over index pairs runs on integer numerators: each operand goes
    over its own denominator (`p_integer`), the pair (alpha, beta) carries the
    integer weight (-1)^|beta| j!/(alpha! beta!), and (-i)^j / (j! 2^j D_A D_B)
    is applied once at the end.  Derivatives are memoised within the call,
    keyed by the operand and the order in each variable (x_1..x_d,
    xi_1..xi_d); each is one `p_partial` of a memoised lower one.
    """
    (da, an), (db, bn) = p_integer(A), p_integer(B)
    memo = {}

    def deriv(which, orders):
        key = (which, orders)
        if key not in memo:
            if any(orders):
                v = max(i for i, o in enumerate(orders) if o)
                memo[key] = p_partial(deriv(which, orders[:v] + (orders[v] - 1,) + orders[v + 1:]), v)
            else:
                memo[key] = (an, bn)[which]
        return memo[key]

    acc = {}
    for alpha in multi_indices(d, j):
        for beta in multi_indices(d, j - sum(alpha)):
            if sum(alpha) + sum(beta) != j:
                continue
            dA = deriv(0, beta + alpha)     # d_xi^a d_x^b A, phases at the end
            if not dA:
                continue
            dB = deriv(1, alpha + beta)
            if not dB:
                continue
            w = factorial(j)
            for t in alpha + beta:
                w //= factorial(t)
            if sum(beta) % 2:
                w = -w
            for e1, (a, b) in dA.items():
                for e2, (c, dd) in dB.items():
                    e = tuple(u + v for u, v in zip(e1, e2))
                    r0, i0 = acc.get(e, (0, 0))
                    acc[e] = (r0 + w * (a * c - b * dd), i0 + w * (a * dd + b * c))
    den = factorial(j) * 2 ** j * da * db
    re_f, im_f = ((1, 0), (0, -1), (-1, 0), (0, 1))[j % 4]      # (-i)^j
    return {e: (Fraction(re * re_f - im * im_f, den), Fraction(re * im_f + im * re_f, den))
            for e, (re, im) in acc.items() if re or im}


def brute_cj_exp(A, B, j):
    """C_j(A, B) of two ExpPolySymbols by the index-pair sum, D = -i grad.

    Every derivative is a chain of `ExpPolySymbol.partial` calls, so the
    phase factor's Leibniz terms come from the one-variable rule alone.
    """
    from moyal_lab.crational import CRational

    d = A.d

    def deriv(E, x_orders, xi_orders):
        for k in range(d):
            for _ in range(x_orders[k]):
                E = E.partial("x", k)
            for _ in range(xi_orders[k]):
                E = E.partial("xi", k)
        return E

    acc = A.scaled(0)
    for alpha in multi_indices(d, j):
        for beta in multi_indices(d, j - sum(alpha)):
            if sum(alpha) + sum(beta) != j:
                continue
            fac = Fraction((-1) ** sum(beta))
            for t in alpha + beta:
                fac /= factorial(t)
            acc = acc + (deriv(A, beta, alpha) * deriv(B, alpha, beta)).scaled(fac)
    return acc.scaled(CRational(0, Fraction(-1, 2)) ** j)


def brute_poisson(A, B, d):
    """{A,B} = sum d_xi A d_x B - d_x A d_xi B."""
    acc = p_zero()
    for k in range(d):
        acc = p_add(acc, p_mul(p_partial(A, d + k), p_partial(B, k)))
        acc = p_add(acc, p_scale(p_mul(p_partial(A, k), p_partial(B, d + k)), Fraction(-1)))
    return acc


def from_engine(p):
    """Convert an X-only PolySymbol to the oracle representation."""
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def brute_translated(p, shifts):
    """p(X + shift) by substituting powers of each image x_k + shift_k.

    Same contract as `PolySymbol.translated`, rejections included.
    """
    from moyal_lab.polysym import PolySymbol, Shape, ShapeError

    d = p.shape.d
    if len(shifts) != 2 * d:
        raise ShapeError(f"expected {2 * d} shift entries, got {len(shifts)}")
    target = p.shape
    for s in shifts:
        if s is None:
            continue
        target = Shape(d, target.has_y or s.shape.has_y,
                       target.has_hbar or s.shape.has_hbar)
    base = p.promoted(target)
    xslots_t = [target.slot("x", k) for k in range(d)] + \
               [target.slot("xi", k) for k in range(d)]
    images = []
    for k, s in enumerate(shifts):
        if s is None or s.is_zero:
            images.append(None)
            continue
        sp = s.promoted(target)
        # affine, X-free: at most one power of a (y, eta) variable per
        # term, no x/xi content; hbar powers are free (formal parameter)
        if any(e[sl] for e in sp.terms for sl in xslots_t):
            raise ValueError("translation shift must not depend on X")
        if target.has_y and sp.degree("y", "eta") > 1:
            raise ValueError("translation shift must be affine (degree <= 1)")
        block = "x" if k < d else "xi"
        images.append(PolySymbol.var(target, block, k % d) + sp)
    # substitute, caching powers of each image
    pow_cache = {}
    xslots = [target.slot("x", k) for k in range(d)] + [target.slot("xi", k) for k in range(d)]
    result = PolySymbol.zero(target)
    for e, c in base.terms.items():
        rest = list(e)
        factors = []
        for k, slot in enumerate(xslots):
            if images[k] is not None and e[slot]:
                factors.append((k, e[slot]))
                rest[slot] = 0
        piece = PolySymbol.monomial(target, tuple(rest), c)
        for k, power in factors:
            cache = pow_cache.setdefault(k, [PolySymbol.const(target, 1)])
            while len(cache) <= power:
                cache.append(cache[-1] * images[k])
            piece = piece * cache[power]
        result = result + piece
    return result
