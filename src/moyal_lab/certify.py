"""Bracket-equality certificates on the exponential test family.

For a polynomial Hamiltonian H the question "does the order-m truncated
bracket agree with the full Moyal bracket against every observable?" is
decided exactly on the test symbols T_Y = exp(-i L_Y), because

    T_Y^* {T_Y, H}_star = (i/hbar) [H(X + hbar Y/2) - H(X - hbar Y/2)]

is a polynomial identity in (X, Y, hbar): the bracket against the test
family is the symmetric difference quotient of H along Y.  Its hbar^(2j)
coefficient is homogeneous of degree 2j+1 in Y and proportional to
(Y.grad)^(2j+1) H, so it vanishes for all Y exactly when every X-partial
of H of order 2j+1 vanishes.  Consequently the truncation at order m is
exact if and only if deg H <= 2m + 2; otherwise the first surviving
coefficient is a nonzero witness polynomial, returned as a certificate.

Test-family brackets are computed twice, by independent routes
(terminating bidifferential series vs. the collapse closed form), and
route disagreement raises ConventionError.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .crational import CRational, I
from .polysym import PolySymbol, Shape, directional_power
from .star import ConventionError, _bidifferential
from .exppoly import ExpPolySymbol, pure_exp_collapse


def _exp_bracket_terms(H: PolySymbol, orders) -> dict[int, PolySymbol]:
    """{order: T_Y^* {T_Y, H}_order} for the given orders, from one bracket pass of the
    kernel: i (C_j(T, H) - C_j(H, T)), where only T carries a phase.  T has the unit
    prefactor, so the kernel's prefactor of phase sign -1 times T_Y^* is the term itself."""
    full = Shape(H.shape.d, True, True)
    terms = _bidifferential(PolySymbol.const(full, 1), H.promoted(full), orders, (-1, 0),
                            bracket=True)
    out = {}
    for order, poly in terms.items():
        if poly.degree("hbar") > 0:
            raise ConventionError("unexpected hbar content in a bracket term")
        out[order] = poly.at_hbar(0)
    return out


def bracket_term_exp(H: PolySymbol, j: int) -> PolySymbol:
    """T_Y^* {T_Y, H}_(2j+1) as an exact polynomial in (X, Y).

    Homogeneous of degree 2j+1 in Y; the derived constant is
    i / (4^j (2j+1)!) times (Y.grad)^(2j+1) H.
    """
    if j < 0:
        raise ValueError("order must be >= 0")
    return _exp_bracket_terms(H, (2 * j + 1,))[2 * j + 1]


def expected_term_constant(j: int) -> CRational:
    """The constant relating bracket_term_exp to (Y.grad)^(2j+1) H: i/(4^j (2j+1)!)."""
    return I * Fraction(1, 4 ** j * factorial(2 * j + 1))


def exp_test_bracket(H: PolySymbol) -> PolySymbol:
    """T_Y^* {T_Y, H}_star as an exact polynomial in (X, Y, hbar).

    Computed two independent ways which must agree:

    (a) the terminating series sum_j hbar^(2j) T_Y^* {T_Y, H}_(2j+1);
    (b) the collapse closed form
        (i/hbar)[H(X + hbar Y/2) - H(X - hbar Y/2)].

    Disagreement means a sign convention regressed and raises.
    """
    if H.shape.has_y or H.shape.has_hbar:
        raise ValueError("H must be a plain polynomial in X")
    d = H.shape.d
    full = Shape(d, True, True)

    # route (a): series over surviving odd orders, all from one kernel pass
    series = PolySymbol.zero(full)
    for order, t in _exp_bracket_terms(H, range(1, H.degree() + 1, 2)).items():
        series = series + t.hbar_shifted(order - 1).promoted(full)

    # route (b): symmetric difference quotient via the collapse rule
    T = ExpPolySymbol.test_symbol(d)
    F = ExpPolySymbol.from_poly(H)
    left = pure_exp_collapse(F, "left", -1)     # T_Y * H
    right = pure_exp_collapse(F, "right", -1)   # H * T_Y
    diff = (left - right) * T.conjugated()
    central = diff.as_poly().divided_by_hbar(1).scaled(I)

    if series != central:
        raise ConventionError("series route and collapse route disagree "
                              "for the test-family bracket")
    return central


class Certificate(namedtuple("Certificate", "m degree equal witness failing_order",
                             defaults=(None, None))):
    """Outcome of the order-m truncation test for one Hamiltonian.

    ``equal`` means the truncated and full brackets coincide against every
    observable.  Otherwise ``witness`` is the first nonvanishing
    T_Y^* {T_Y, H}_(failing_order): a nonzero polynomial, homogeneous of
    degree ``failing_order`` in Y, certifying the difference on the test
    family.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        if self.equal:
            return f"Certificate(m={self.m}, Equal, deg H = {self.degree})"
        return (f"Certificate(m={self.m}, Witness at bracket order "
                f"{self.failing_order}: {self.witness!r})")


def gvh_certificates(H: PolySymbol, ms) -> list[Certificate]:
    """Decide, for each m of the sequence `ms`, whether the order-m truncated bracket is exact
    for H: Equal exactly when deg H <= 2m + 2, otherwise the smallest failing odd order 2m + 3
    with its witness polynomial.  Every witness comes from one kernel call.
    """
    if any(m < 0 for m in ms):
        raise ValueError("truncation order must be >= 0")
    if H.shape.has_y or H.shape.has_hbar:
        raise ValueError("H must be a plain polynomial in X")
    degH = H.degree()
    orders = [2 * m + 3 for m in ms if 2 * m + 3 <= degH]
    witnesses = _exp_bracket_terms(H, orders) if orders else {}
    for order, w in witnesses.items():     # nonzero, as deg H >= order (module docstring)
        if w.is_zero:
            raise ConventionError(f"the witness at bracket order {order} vanished for "
                                  f"deg H = {degH}")
    return [Certificate(m=m, degree=degH, equal=True) if 2 * m + 3 > degH else
            Certificate(m=m, degree=degH, equal=False, witness=witnesses[2 * m + 3],
                        failing_order=2 * m + 3) for m in ms]


def gvh_certificate(H: PolySymbol, m: int) -> Certificate:
    """Decide whether the order-m truncated bracket is exact for H: `gvh_certificates` on [m]."""
    return gvh_certificates(H, [m])[0]


class MpcReport(namedtuple("MpcReport", "H lhs_closed_form c0 c1 c2 taylor_defect "
                                       "printed_c2_delta mirrored_shift_sign",
                           defaults=("-hbar*Y/2",))):
    """Exact expansion data for the conjugation identity of one Hamiltonian.

    ``lhs_closed_form`` is ((Y.grad H) T_Y) * T_Y^* = (Y.grad H)(X + hbar Y/2),
    exact in (X, Y, hbar).  ``c0``, ``c1``, ``c2`` are its homogeneous
    Y-parts at hbar = 1 (degrees 1, 2, 3).  ``taylor_defect`` is
    c(X,Y)|_(hbar=1) - [H(X+Y) - H(X)], which vanishes identically exactly
    when deg H <= 2 (the midpoint rule is exact for quadratics).
    ``printed_c2_delta`` (d = 1 only) is c2 minus the pattern
    (1/8)(y^3 H_xxx + eta^3 H_xixixi - y^2 eta H_xxxi - y eta^2 H_xxixi),
    reported for documentation; it vanishes only when the mixed third
    partials of H do.  ``mirrored_shift_sign`` records that the opposite
    factor order ((Y.grad H) T_Y^*) * T_Y produces the -hbar Y/2 shift.
    """

    __slots__ = ()


def mpc_identity_check(H: PolySymbol) -> MpcReport:
    """Reproduce the degree-2 conjugation argument for a polynomial H.

    The object ((Y.grad H) T_Y) * T_Y^* collapses to (Y.grad H)(X + hbar Y/2);
    comparing its Y-expansion with the Taylor expansion of H(X+Y) - H(X)
    forces all third derivatives of H to vanish whenever the two agree,
    which is the degree <= 2 characterization at m = 0.
    """
    if H.shape.has_y or H.shape.has_hbar:
        raise ValueError("H must be a plain polynomial in X")
    d = H.shape.d
    grad_dir = directional_power(H, 1)           # (Y.grad)H in (X, Y)
    F = ExpPolySymbol(grad_dir, -1)              # (Y.grad H) e^{-iL_Y}
    C = pure_exp_collapse(F, "right", +1)        # ... * e^{+iL_Y}
    lhs = C.as_poly()

    at1 = lhs.at_hbar(1)
    c0 = at1.homogeneous_part(1, "y", "eta")
    c1 = at1.homogeneous_part(2, "y", "eta")
    c2 = at1.homogeneous_part(3, "y", "eta")

    xy = Shape(d, True, False)
    Hxy = H.promoted(xy)
    yshift = [PolySymbol.var(xy, b, k) for b in ("y", "eta") for k in range(d)]
    taylor = Hxy.translated(yshift) - Hxy
    defect = at1 - taylor

    printed = None
    if d == 1:
        y, eta = PolySymbol.var(xy, "y"), PolySymbol.var(xy, "eta")
        pattern = (y ** 3 * Hxy.partial_multi(x=(3,))
                   + eta ** 3 * Hxy.partial_multi(xi=(3,))
                   - y ** 2 * eta * Hxy.partial_multi(x=(2,), xi=(1,))
                   - y * eta ** 2 * Hxy.partial_multi(x=(1,), xi=(2,)))
        printed = c2 - pattern.scaled(Fraction(1, 8))

    return MpcReport(H=H, lhs_closed_form=lhs, c0=c0, c1=c1, c2=c2,
                     taylor_defect=defect, printed_c2_delta=printed)
