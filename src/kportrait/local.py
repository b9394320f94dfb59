"""Local analysis at the interior equilibrium.

The Hopf pipeline for the interior point of the predator-prey family
(critical parameter, frequency, transversality, quadratic/cubic multilinear
forms, first Lyapunov coefficient), the Dulac-style non-existence test with
multiplier 1/x, and the four cycle-uniqueness conditions.  Each result is a
plain value, a named tuple of numbers, strings and tuples: it compares and
hashes by its fields and pickles.  Each Hopf route holds c and delta to the
:class:`Params` rule once, on entry; the code behind it takes them as checked.

The first Lyapunov coefficient is computed twice, by independent routes:
``hopf_analysis`` evaluates closed forms, ``lyapunov_procedural`` rebuilds
everything from the field's Taylor coefficients at the interior point and
the eigenproblem.  The two must agree to high relative accuracy; that
cross-check is the main safeguard of this module.  Of the fourteen quadratic
and cubic coefficients only p20, p11, q11 and p30 are nonzero, so the
from-scratch route evaluates the multilinear forms on those four.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .model import AnalysisError, IllConditionedError, Number, Params, _check_parameter, _is_exact, _mu_omega, _range_error, _to_float

__all__ = [
    "IllConditionedError",
    "HopfData",
    "DulacReport",
    "UniquenessReport",
    "hopf_analysis",
    "lyapunov_procedural",
    "dulac_check",
    "uniqueness_check",
]

# Largest relative residual accepted for the Hopf eigenvector at b0.
_RESID_TOL = 1e-10


class HopfData(NamedTuple):
    """Closed-form data of the supercritical Hopf bifurcation in b.

    ``omega`` is the imaginary part of the interior-point eigenvalues at b0, as
    a double; ``dmu_db_at_b0`` the derivative of their real part in b there.
    """

    b0: Number
    omega: float
    dmu_db_at_b0: float
    equilibrium: tuple[float, float]
    g20: complex
    g11: complex
    g21: complex
    ell1: float
    p_vec: tuple[complex, complex]
    q_vec: tuple[complex, complex]


def _check_pair(c: Number, delta: Number) -> bool:
    """Hold c and delta to the :class:`Params` rule; True for floats with 0 < delta < c < inf, which pass it."""
    if type(c) is float and type(delta) is float and 0.0 < delta < c < math.inf:
        return True
    _check_parameter("c", c)
    _check_parameter("delta", delta)
    return False


def hopf_analysis(c: Number, delta: Number) -> HopfData:
    """Closed-form Hopf data at the critical parameter b0 = (c-d)/(c+d).

    Requires c > delta.  With the eigenvector convention q = (-d/(c+d), i w),
    <p, q> = 1, the normal-form coefficients reduce to

        g20 = d^2/(c+d)^2 - d(c-d)/(c+d) - i w,
        g11 = d^2/(c+d)^2,
        g21 = -3 d^2/(c+d)^2,
        ell1 = -d^2 / (w (c+d)^2),

    negative for every admissible pair, so the bifurcation is always
    supercritical.
    """
    floats = _check_pair(c, delta)  # then c > delta, and each is its own float image
    exact = not floats and _is_exact(c, delta)
    if exact:
        cn, dn = int(c.numerator) * int(delta.denominator), int(delta.numerator) * int(c.denominator)
    # exact c > delta is decided on the cross-multiplied integers
    if not (floats or (cn > dn if exact else c > delta)):
        raise AnalysisError("hopf analysis requires c > delta")
    b0: Number = Fraction(cn - dn, cn + dn) if exact else (c - delta) / (c + delta)
    try:
        b0f, cf, df = (b0, c, delta) if floats else (_to_float(b0), _to_float(c), _to_float(delta))
        # B(b0) = -4c^2(c-d)^3/(c+d) < 0 for every c > d, so w is None or not finite only
        # where B(b0) overflows to nan or underflows to 0; None divides by zero below
        w = _mu_omega(b0f, cf, df)[1] or 0.0
        # w, dmu/db and p = (-(c+d)/(2d), i/(2w)) must be nonzero doubles for <p, q> = 1 to mean anything
        cmd, cpd, fin = cf - df, cf + df, math.isfinite
        dmu, pr, pi = -df / (2 * cmd), -cpd / (2 * df), 1.0 / (2.0 * w)
        in_range = dmu and fin(b0f) and fin(cf) and fin(df) and fin(w) and fin(dmu) and fin(pr) and fin(pi)
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise _range_error("(b0, c, delta)", (b0, c, delta))
    cpd2 = cpd**2
    gamma = df * df / cpd2
    q0, q1 = complex(-df / cpd, 0.0), complex(0.0, w)
    # p solves A^T p = -i w p with <p, q> = 1
    p0, p1 = complex(pr, 0.0), complex(0.0, pi)
    ip = p0.conjugate() * q0 + p1.conjugate() * q1
    if abs(ip - 1.0) > 1e-12:
        raise IllConditionedError(f"<p, q> = {ip} deviates from 1")
    return HopfData(
        b0, w, dmu, (df / cpd, cf * cf / cpd2), complex(gamma - df * cmd / cpd, -w), complex(gamma, 0.0),
        complex(-3.0 * gamma, 0.0), -gamma / w, (p0, p1), (q0, q1),
    )


def _taylor_at(b, c, d, x0, y0):
    """Jacobian, quadratic (u^2, uv, v^2) and cubic (u^3, u^2 v, u v^2, v^3)
    coefficients of the family's (P, Q) at (x0, y0).  Ten of the fourteen quadratic
    and cubic entries are identically zero; the forms of :func:`_kuznetsov_data`
    read p20, p11 and q11 of ``quad`` and p30 of ``cubic`` alone.

    Each sum adds its terms in the order of the binomial shift of
    ``PolySystem.translate`` in ``tests/poincare_engine.py``, so in floats the
    coefficients are those of ``family_system(Params(b, c, d)).translate(x0, y0)``
    there to the bit."""
    jacobian = (
        (((b + -y0) + (1 - b) * 2 * x0) + -3 * x0**2, -x0),
        ((c - d) * y0, -d * b + (c - d) * x0),
    )
    quad = (((1 - b) + -3 * x0, -1.0, 0.0), (0.0, c - d, 0.0))
    cubic = ((-1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
    return jacobian, quad, cubic


def _kuznetsov_data(c: Number, delta: Number) -> dict:
    """From-scratch normal-form data at b0: the Taylor coefficients at P2 as :func:`_taylor_at`
    lays them out, the eigenproblem (q and p), and g20 = <p, B(q, q)>, g11 = <p, B(q, qbar)> and
    g21 = <p, C(q, q, qbar)> of F(z) = J z + B(z, z)/2 + C(z, z, z)/6, <u, v> = conj(u) . v.
    The forms keep the terms of the nonzero coefficients in the order of the full sums and equal
    their values; only the sign of a zero component can differ, and it never reaches ell1.  c, delta come checked."""
    try:
        cf, df = (c, delta) if type(c) is float and type(delta) is float else (_to_float(c), _to_float(delta))
        if not cf > df:
            raise AnalysisError("the from-scratch ell1 requires c > delta")
        # |b0|, x2, y2 <= 1, so every Taylor coefficient below is bounded by c
        b0, x2, y2 = (cf - df) / (cf + df), df / (cf + df), cf * cf / (cf + df) ** 2
        fin = math.isfinite
        in_range = fin(cf) and fin(df) and fin(b0) and fin(x2) and fin(y2)
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise _range_error("(c, delta)", (c, delta))
    jacobian, quad, cubic = _taylor_at(b0, cf, df, x2, y2)
    (a11, a12), (a21, a22) = jacobian
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    if not det > tr * tr / 4:
        raise IllConditionedError(f"no complex pair at b0; trace {tr}, determinant {det}")
    omega = math.sqrt(det - tr * tr / 4)

    # eigenvector conventions: q = (a12, i w - a11), p ~ (a21, -i w - a11),
    # then p is pinned by <p, q> = 1.  This reproduces a phase with the
    # first component of q real and negative.
    if a12 == 0.0:
        raise IllConditionedError("top-right Jacobian entry vanished")
    q0, q1 = complex(a12), 1j * omega - a11
    resid = math.hypot(abs(a11 * q0 + a12 * q1 - 1j * omega * q0), abs(a21 * q0 + a22 * q1 - 1j * omega * q1))
    if resid > _RESID_TOL * max(1.0, math.hypot(a11, a12, a21, a22)) * math.hypot(abs(q0), abs(q1)):
        raise IllConditionedError(f"eigenproblem residual {resid} too large")
    r0, r1 = complex(a21), -1j * omega - a11
    ip = r0.conjugate() * q0 + r1.conjugate() * q1
    if ip == 0:
        raise IllConditionedError("degenerate normalisation <p, q> = 0")
    ipc = ip.conjugate()
    p0, p1 = r0 / ipc, r1 / ipc
    pc0, pc1 = p0.conjugate(), p1.conjugate()

    (p20, p11, _), (_, q11, _) = quad
    p30 = cubic[0][0]
    qb0, qb1 = q0.conjugate(), q1.conjugate()
    # the cross term e0 h1 + e1 h0 of B(e, h), shared by both rows; row Q of C is zero
    m = q0 * q1 + q1 * q0
    g20 = pc0 * (2 * p20 * q0 * q0 + p11 * m) + pc1 * (q11 * m)
    m = q0 * qb1 + q1 * qb0
    g11 = pc0 * (2 * p20 * q0 * qb0 + p11 * m) + pc1 * (q11 * m)
    g21 = pc0 * (6 * p30 * q0 * q0 * qb0)
    ell1 = float((1j * g20 * g11 + omega * g21).real / (2 * omega * omega))
    return dict(omega=omega, jacobian=jacobian, quad=quad, cubic=cubic, q=(q0, q1), p=(p0, p1), g20=g20, g11=g11, g21=g21, ell1=ell1)


def lyapunov_procedural(c: Number, delta: Number) -> float:
    """First Lyapunov coefficient computed from scratch at b0.

    Independent of :func:`hopf_analysis`: takes the field's Taylor
    coefficients at the interior point, builds the multilinear forms from the
    quadratic and cubic ones, solves the eigenproblem for (q, p) with
    <p, q> = 1, and assembles ell1 = Re(i g20 g11 + w g21) / (2 w^2).  An
    input whose arithmetic leaves the range of doubles is an AnalysisError.
    """
    _check_pair(c, delta)
    return _kuznetsov_data(c, delta)["ell1"]


class DulacReport(NamedTuple):
    """Outcome of the divergence test with multiplier 1/x.

    The weighted divergence is Delta(x, y) = 1 + c - d - 2x - b(d + x)/x;
    when 1 + c - d - b - b*d < 0 it is negative on the strip 0 < x <= 1 and
    x' < 0 beyond it, so no periodic orbit fits in the closed quadrant.
    """

    applicable: bool
    margin: float
    conclusion: str  # no-periodic-orbits, inconclusive


def dulac_check(p: Params) -> DulacReport:
    """The verdict follows the S2 sign of ``classify_case``: exact for rational
    parameters, banded in floats, so a margin within the band of 0 is never
    read as applicable."""
    (_, _, _, margin), (_, _, _, s_s2) = p._case
    try:
        # int / int is correctly rounded, so exact input (over L^2) gives float() of the rational margin
        margin = margin if type(margin) is float else float(margin / p._lifted[3] ** 2)
    except OverflowError:
        raise _range_error("(b, c, delta)", (p.b, p.c, p.delta)) from None
    applicable = s_s2 < 0
    return DulacReport(applicable, margin, "no-periodic-orbits" if applicable else "inconclusive")


class UniquenessReport(NamedTuple):
    """Instantiation of the four uniqueness conditions for the cycle.

    The Kolmogorov factors are x' = x(f(x) - y) and y' = y(g(x) - lambda)
    with f(x) = -x^2 + (1-b)x + b, g(x) = (c-d)x and lambda = b*d.
    ``conditions_hold`` holds the truth of conditions (i)-(iv), in that order.
    """

    g_slope: Number
    a: Number
    lam: Number
    x_star: Number
    conditions_hold: tuple[bool, bool, bool, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.conditions_hold)


def uniqueness_check(p: Params) -> UniquenessReport:
    """Check conditions (i)-(iv) under the precondition 0 < b*d < c - d (the
    case-2 sign of ``classify_case``, as for the interior point).

    All four hold whenever additionally A > 0; (iii) x* < a is exactly A > 0.
    (i), (ii) a > 0 and (iv) are read on the lift: c > delta, L > b, b <= L.
    """
    if p._case[1][0] >= 0:
        raise AnalysisError("uniqueness analysis needs 0 < b*delta < c - delta")
    b, c, d, L, div = p._lifted
    g, a, lam = div(c - d, L), div(L - b, 2 * L), div(b * d, L * L)
    x_star = p._p2[0]

    # (iv): d/dx [x f'(x)/(g(x)-lam)] has numerator -2(c-d)x^2 + 4 d b (b-1) x,
    # negative for all x > 0 exactly when b <= 1 (no positive root).
    return UniquenessReport(g, a, lam, x_star, (c > d, L > b, x_star < a, c > d and b <= L))
