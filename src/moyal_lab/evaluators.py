"""Numeric symbol evaluators for the d = 1 grid and operator modules.

A `SymbolEvaluator` is a finite sum of atoms

    P(x, xi) * exp(-(X - c)^T Q (X - c)) * exp(i k . X)

with a complex-coefficient polynomial P, a real symmetric PSD matrix Q
(possibly absent), a real center c and a real phase vector k.  The class
is closed under partial derivatives, products, and affine substitutions
X -> M X + v, which covers everything the grid and operator modules need:
polynomials, Gaussian-enveloped polynomials, phase exponentials exp(isL_Y),
Gaussian bumps, and their transports under linear symplectic flows.

P is a 2-D complex coefficient array, P[a, b] multiplying x^a xi^b: sums
pad and add, products convolve, derivatives are shifted slices.  A
{(a, b): coeff} dict is accepted only by `SymbolEvaluator.polynomial`.

Derivatives are analytic; a self-test against central finite differences
lives in the test suite.
"""

from __future__ import annotations

import numpy as np

# -- complex polynomials in (x, xi): 2-D arrays, c[a, b] multiplies x^a xi^b --


def np_add(p, q):
    out = np.zeros((max(p.shape[0], q.shape[0]), max(p.shape[1], q.shape[1])), dtype=complex)
    out[:p.shape[0], :p.shape[1]] += p
    out[:q.shape[0], :q.shape[1]] += q
    return out


def np_mul(p, q):
    """2-D convolution, accumulated over the nonzero coefficients of p."""
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1), dtype=complex)
    for a, b in zip(*np.nonzero(p)):
        out[a:a + q.shape[0], b:b + q.shape[1]] += p[a, b] * q
    return out


def np_partial(p, var):
    n = p.shape[var]
    if n == 1:
        return np.zeros((1, 1), dtype=complex)
    e = np.arange(1, n)
    return p[1:] * e[:, None] if var == 0 else p[:, 1:] * e


def np_eval(p, x, xi):
    x, xi = np.asarray(x), np.asarray(xi)
    total = np.zeros(np.broadcast(x, xi).shape, dtype=complex)
    # monomial by monomial, not Horner: sampled values keep the rounding of a sparse sum
    for a, b in zip(*np.nonzero(p)):
        total = total + p[a, b] * x ** int(a) * xi ** int(b)
    return total


def np_affine(p, M, v):
    """P(M X + v) by substitution; M is 2x2, v length 2."""
    imgs = [np.array([[v[i], M[i, 1]], [M[i, 0], 0.0]], dtype=complex) for i in (0, 1)]
    pows = ([np.ones((1, 1), dtype=complex)], [np.ones((1, 1), dtype=complex)])
    out = np.zeros((1, 1), dtype=complex)
    for a, b in zip(*np.nonzero(p)):
        for var, e in ((0, a), (1, b)):
            while len(pows[var]) <= e:
                pows[var].append(np_mul(pows[var][-1], imgs[var]))
        out = np_add(out, np_mul(p[a, b] * pows[0][a], pows[1][b]))
    return out


class GaussAtom:
    """One product term P * gaussian * phase; immutable."""

    __slots__ = ("poly", "Q", "center", "k")

    def __init__(self, poly, Q=None, center=(0.0, 0.0), k=None):
        self.poly = np.asarray(poly, dtype=complex)
        self.Q = None if Q is None else np.array(Q, dtype=float).reshape(2, 2)
        self.center = np.array(center, dtype=float).reshape(2)
        self.k = None if k is None else np.array(k, dtype=float).reshape(2)

    def __call__(self, x, xi):
        val = np_eval(self.poly, x, xi)
        if self.Q is not None:
            dx = np.asarray(x) - self.center[0]
            dxi = np.asarray(xi) - self.center[1]
            q = (self.Q[0, 0] * dx * dx + 2.0 * self.Q[0, 1] * dx * dxi
                 + self.Q[1, 1] * dxi * dxi)
            val = val * np.exp(-q)
        if self.k is not None:
            val = val * np.exp(1j * (self.k[0] * np.asarray(x) + self.k[1] * np.asarray(xi)))
        return val

    def partial(self, var):
        p = np_partial(self.poly, var)
        if self.Q is not None:
            row = self.Q[var]
            lin = np.array([[2.0 * float(row @ self.center), -2.0 * row[1]],
                            [-2.0 * row[0], 0.0]], dtype=complex)
            p = np_add(p, np_mul(self.poly, lin))
        if self.k is not None and self.k[var]:
            p = np_add(p, self.poly * (1j * self.k[var]))
        return GaussAtom(p, self.Q, self.center, self.k)

    def times(self, other: "GaussAtom") -> "GaussAtom":
        poly = np_mul(self.poly, other.poly)
        k = None
        if self.k is not None or other.k is not None:
            k = (self.k if self.k is not None else 0.0) \
                + (other.k if other.k is not None else 0.0)
            if not np.any(k):
                k = None
        if self.Q is None and other.Q is None:
            return GaussAtom(poly, None, (0, 0), k)
        if self.Q is None:
            return GaussAtom(poly, other.Q, other.center, k)
        if other.Q is None:
            return GaussAtom(poly, self.Q, self.center, k)
        Q = self.Q + other.Q
        if np.allclose(self.center, other.center):
            return GaussAtom(poly, Q, self.center, k)
        rhs = self.Q @ self.center + other.Q @ other.center
        f = np.linalg.solve(Q, rhs)
        const = float(self.center @ self.Q @ self.center
                      + other.center @ other.Q @ other.center - f @ Q @ f)
        return GaussAtom(poly * np.exp(-const), Q, f, k)

    def compose_affine(self, M, v) -> "GaussAtom":
        """The atom evaluated at M X + v (M invertible)."""
        M = np.asarray(M, float)
        v = np.asarray(v, float)
        poly = np_affine(self.poly, M, v)
        Q = center = None
        if self.Q is not None:
            Q = M.T @ self.Q @ M
            center = np.linalg.solve(M, self.center - v)
        k = None
        if self.k is not None:
            k = M.T @ self.k
            phase = np.exp(1j * float(self.k @ v))
            poly = poly * phase
        return GaussAtom(poly, Q, (0, 0) if center is None else center, k)


class SymbolEvaluator:
    """A sum of GaussAtom terms, queryable pointwise and for derivatives."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        self.atoms = [a for a in atoms if a.poly.any()]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymbolEvaluator":
        return cls([])

    @classmethod
    def polynomial(cls, coeffs) -> "SymbolEvaluator":
        """From {(a, b): coeff} exponents of x^a xi^b."""
        poly = np.zeros((max([a for a, _ in coeffs], default=0) + 1,
                         max([b for _, b in coeffs], default=0) + 1), dtype=complex)
        for (a, b), c in coeffs.items():
            poly[a, b] = complex(c)
        return cls([GaussAtom(poly)])

    @classmethod
    def from_polysymbol(cls, p) -> "SymbolEvaluator":
        """From an exact X-only PolySymbol with d = 1."""
        if p.shape.d != 1 or p.shape.has_y or p.shape.has_hbar:
            raise ValueError("evaluators require a d = 1 polynomial in X only")
        return cls.polynomial({(e[0], e[1]): complex(c) for e, c in p.terms.items()})

    @classmethod
    def gauss(cls, a, center=(0.0, 0.0)) -> "SymbolEvaluator":
        """exp(-a |X - center|^2)."""
        a = float(a)
        if a <= 0:
            raise ValueError("gaussian decay rate must be positive")
        return cls([GaussAtom([[1.0]], np.eye(2) * a, center)])

    @classmethod
    def phase_exp(cls, sign, Y) -> "SymbolEvaluator":
        """exp(i s L_Y) for numeric Y = (y, eta): k = (s eta, -s y)."""
        y, eta = float(Y[0]), float(Y[1])
        return cls([GaussAtom([[1.0]], None, (0, 0), (sign * eta, -sign * y))])

    # -- algebra ---------------------------------------------------------------

    def __call__(self, x, xi):
        total = np.zeros(np.broadcast(np.asarray(x), np.asarray(xi)).shape, dtype=complex)
        for a in self.atoms:
            total = total + a(x, xi)
        return total

    def __add__(self, other: "SymbolEvaluator") -> "SymbolEvaluator":
        return SymbolEvaluator(self.atoms + other.atoms)

    def __mul__(self, other: "SymbolEvaluator") -> "SymbolEvaluator":
        return SymbolEvaluator([a.times(b) for a in self.atoms for b in other.atoms])

    def scaled(self, c) -> "SymbolEvaluator":
        return SymbolEvaluator([GaussAtom(a.poly * complex(c), a.Q, a.center, a.k)
                                for a in self.atoms])

    def partial(self, block: str) -> "SymbolEvaluator":
        var = {"x": 0, "xi": 1}[block]
        return SymbolEvaluator([a.partial(var) for a in self.atoms])

    def compose_affine(self, M, v) -> "SymbolEvaluator":
        return SymbolEvaluator([a.compose_affine(M, v) for a in self.atoms])

    def conjugated(self) -> "SymbolEvaluator":
        return SymbolEvaluator([GaussAtom(a.poly.conj(), a.Q, a.center,
                                          None if a.k is None else -a.k) for a in self.atoms])


def poisson_bracket_eval(A: SymbolEvaluator, B: SymbolEvaluator) -> SymbolEvaluator:
    """{A,B} = d_xi A d_x B - d_x A d_xi B on evaluators."""
    return A.partial("xi") * B.partial("x") + (A.partial("x") * B.partial("xi")).scaled(-1)


def _cj_eval(A: SymbolEvaluator, B: SymbolEvaluator, j: int) -> SymbolEvaluator:
    """C_j by analytic differentiation of evaluators (d = 1)."""
    from math import factorial

    acc = SymbolEvaluator.zero()
    dA: dict[tuple[int, int], SymbolEvaluator] = {(0, 0): A}
    dB: dict[tuple[int, int], SymbolEvaluator] = {(0, 0): B}

    def deriv(cache, base, bx, bxi):
        if (bx, bxi) not in cache:
            if bx:
                cache[(bx, bxi)] = deriv(cache, base, bx - 1, bxi).partial("x")
            else:
                cache[(bx, bxi)] = deriv(cache, base, 0, bxi - 1).partial("xi")
        return cache[(bx, bxi)]

    for a in range(j + 1):
        b = j - a
        term = deriv(dA, A, b, a) * deriv(dB, B, a, b)
        acc = acc + term.scaled((-1.0) ** b / (factorial(a) * factorial(b)))
    return acc.scaled((-0.5j) ** j)


def bracket_term_eval(A: SymbolEvaluator, B: SymbolEvaluator, j: int) -> SymbolEvaluator:
    """{A,B}_j = i (C_j(A,B) - C_j(B,A)) on evaluators (d = 1)."""
    return (_cj_eval(A, B, j) + _cj_eval(B, A, j).scaled(-1)).scaled(1j)


def window(L: float) -> SymbolEvaluator:
    """The wide Gaussian window exp(-|X|^2 / (2 w^2)), w = L/6.

    The width is tied to the box so that the window reaches ~1e-8 at the
    boundary, compatible with the boundary-decay guard of the grid modules
    and with quantization: a wider choice (w = L/3 leaves 1e-2 at the box
    edge) visibly contaminates periodic dynamics.
    """
    w = L / 6.0
    return SymbolEvaluator.gauss(1.0 / (2.0 * w * w))
