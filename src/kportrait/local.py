"""Local analysis at the interior equilibrium.

The Hopf pipeline for the interior point of the predator-prey family
(critical parameter, frequency, transversality, quadratic/cubic multilinear
forms, first Lyapunov coefficient), the Dulac-style non-existence test with
multiplier 1/x, and the four cycle-uniqueness conditions.  Each result is a
plain value, a named tuple of numbers, strings and tuples: it compares and
hashes by its fields and pickles.

The first Lyapunov coefficient is computed twice, by independent routes:
``hopf_analysis`` evaluates closed forms, ``lyapunov_procedural`` rebuilds
everything from the field's Taylor coefficients at the interior point and
the eigenproblem.  The two must agree to high relative accuracy; that
cross-check is the main safeguard of this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .model import AnalysisError, IllConditionedError, Number, Params, _ab, _check_parameter, _is_exact, _range_error, _to_float

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


def _bform(quad, e, h) -> tuple:
    """B(e, h) of F(z) = J z + B(z, z)/2 + C(z, z, z)/6, one component per row of
    ``quad`` = ((a20, a11, a02) of P, the same of Q), the coefficients of u^2, uv, v^2."""
    (e0, e1), (h0, h1) = e, h
    (p20, p11, p02), (q20, q11, q02) = quad
    return (
        2 * p20 * e0 * h0 + p11 * (e0 * h1 + e1 * h0) + 2 * p02 * e1 * h1,
        2 * q20 * e0 * h0 + q11 * (e0 * h1 + e1 * h0) + 2 * q02 * e1 * h1,
    )


def _cform(cubic, e, h, z) -> tuple:
    """C(e, h, z) of the same expansion, one component per row of ``cubic`` =
    ((a30, a21, a12, a03) of P, the same of Q), the coefficients of u^3, u^2 v, u v^2, v^3."""
    (e0, e1), (h0, h1), (z0, z1) = e, h, z
    (p30, p21, p12, p03), (q30, q21, q12, q03) = cubic
    return (
        6 * p30 * e0 * h0 * z0
        + 2 * p21 * (e0 * h0 * z1 + e0 * h1 * z0 + e1 * h0 * z0)
        + 2 * p12 * (e0 * h1 * z1 + e1 * h0 * z1 + e1 * h1 * z0)
        + 6 * p03 * e1 * h1 * z1,
        6 * q30 * e0 * h0 * z0
        + 2 * q21 * (e0 * h0 * z1 + e0 * h1 * z0 + e1 * h0 * z0)
        + 2 * q12 * (e0 * h1 * z1 + e1 * h0 * z1 + e1 * h1 * z0)
        + 6 * q03 * e1 * h1 * z1,
    )


def _mu_omega(b: float, c: float, d: float) -> tuple[float, Optional[float]]:
    """mu(b) and omega(b), the real and imaginary part of the interior-point eigenvalues
    at fixed (c, delta), on doubles: mu = b A / (2 (c-d)^2) and omega = b sqrt(-d B) / (2 (c-d)^2).
    omega is None where -d B <= 0, so the eigenvalues are not a complex pair."""
    a, bb = _ab(b, c, d)
    val = -d * bb
    den = 2 * (c - d) ** 2
    return b * a / den, None if val <= 0 else b * math.sqrt(val) / den


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
    _check_parameter("c", c)
    _check_parameter("delta", delta)
    exact = _is_exact(c, delta)
    if exact:
        cn, dn = int(c.numerator) * int(delta.denominator), int(delta.numerator) * int(c.denominator)
    # exact c > delta is decided on the cross-multiplied integers
    if not (cn > dn if exact else c > delta):
        raise AnalysisError("hopf analysis requires c > delta")
    b0: Number = Fraction(cn - dn, cn + dn) if exact else (c - delta) / (c + delta)
    try:
        b0f, cf, df = _to_float(b0), _to_float(c), _to_float(delta)
        a0, bb0 = _ab(b0f, cf, df)
        if not bb0 < 0:
            raise AnalysisError("B(b0) must be negative for a complex pair at b0")
        _, w = _mu_omega(b0f, cf, df)
        if w is None:
            raise AnalysisError(f"eigenvalues at b={b0f} are not a complex pair")
        # w, dmu/db and p = (-(c+d)/(2d), i/(2w)) must be nonzero doubles for <p, q> = 1 to mean anything
        dmu, p1, p2 = -df / (2 * (cf - df)), -(cf + df) / (2 * df), 1.0 / (2.0 * w)
        in_range = w and dmu and all(map(math.isfinite, (b0f, cf, df, a0, bb0, w, dmu, p1, p2)))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise _range_error("(b, c, delta)", (b0, c, delta))
    x2 = df / (cf + df)
    y2 = cf * cf / (cf + df) ** 2

    gamma = df * df / (cf + df) ** 2
    g20 = complex(gamma - df * (cf - df) / (cf + df), -w)
    g11 = complex(gamma, 0.0)
    g21 = complex(-3.0 * gamma, 0.0)
    ell1 = -gamma / w

    q = (complex(-df / (cf + df), 0.0), complex(0.0, w))
    # p solves A^T p = -i w p with <p, q> = 1
    p = (complex(p1, 0.0), complex(0.0, p2))
    ip = _vdot(p, q)
    if abs(ip - 1.0) > 1e-12:
        raise IllConditionedError(f"<p, q> = {ip} deviates from 1")

    return HopfData(
        b0=b0, omega=w, dmu_db_at_b0=dmu, equilibrium=(x2, y2),
        g20=g20, g11=g11, g21=g21, ell1=ell1, p_vec=p, q_vec=q,
    )


def _vdot(u, v) -> complex:
    """<u, v> = conj(u) . v on complex 2-vectors."""
    return u[0].conjugate() * v[0] + u[1].conjugate() * v[1]


def _taylor_at(b, c, d, x0, y0):
    """Jacobian, quadratic (u^2, uv, v^2) and cubic (u^3, u^2 v, u v^2, v^3)
    coefficients of the family's (P, Q) at (x0, y0).

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
    """From-scratch normal-form data at b0: the field's Taylor coefficients at P2, with
    ``quad`` and ``cubic`` laid out as :func:`_bform` and :func:`_cform` read them, the
    eigenproblem and the g coefficients."""
    _check_parameter("c", c)
    _check_parameter("delta", delta)
    try:
        cf, df = _to_float(c), _to_float(delta)
        if not cf > df:
            raise AnalysisError("the from-scratch ell1 requires c > delta")
        # |b0|, x2, y2 <= 1, so every Taylor coefficient below is bounded by c
        b0, x2, y2 = (cf - df) / (cf + df), df / (cf + df), cf * cf / (cf + df) ** 2
        in_range = all(map(math.isfinite, (cf, df, b0, x2, y2)))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise _range_error("(c, delta)", (c, delta))
    ((a11, a12), (a21, a22)), quad, cubic = _taylor_at(b0, cf, df, x2, y2)
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    if not det > tr * tr / 4:
        raise IllConditionedError(f"no complex pair at b0; trace {tr}, determinant {det}")
    omega = math.sqrt(det - tr * tr / 4)

    # eigenvector conventions: q = (a12, i w - a11), p ~ (a21, -i w - a11),
    # then p is pinned by <p, q> = 1.  This reproduces a phase with the
    # first component of q real and negative.
    if a12 == 0.0:
        raise IllConditionedError("top-right Jacobian entry vanished")
    q = (complex(a12), 1j * omega - a11)
    aq = (a11 * q[0] + a12 * q[1], a21 * q[0] + a22 * q[1])
    resid = math.hypot(abs(aq[0] - 1j * omega * q[0]), abs(aq[1] - 1j * omega * q[1]))
    if resid > _RESID_TOL * max(1.0, math.hypot(a11, a12, a21, a22)) * math.hypot(*map(abs, q)):
        raise IllConditionedError(f"eigenproblem residual {resid} too large")
    p0 = (complex(a21), -1j * omega - a11)
    ip = _vdot(p0, q)
    if ip == 0:
        raise IllConditionedError("degenerate normalisation <p, q> = 0")
    ipc = ip.conjugate()
    p = (p0[0] / ipc, p0[1] / ipc)

    qbar = (q[0].conjugate(), q[1].conjugate())
    g20 = _vdot(p, _bform(quad, q, q))
    g11 = _vdot(p, _bform(quad, q, qbar))
    g21 = _vdot(p, _cform(cubic, q, q, qbar))
    ell1 = float((1j * g20 * g11 + omega * g21).real / (2 * omega * omega))
    return dict(omega=omega, jacobian=((a11, a12), (a21, a22)), quad=quad, cubic=cubic, q=q, g20=g20, g11=g11, g21=g21, ell1=ell1)


def lyapunov_procedural(c: Number, delta: Number) -> float:
    """First Lyapunov coefficient computed from scratch at b0.

    Independent of :func:`hopf_analysis`: takes the field's Taylor
    coefficients at the interior point, builds the multilinear forms from the
    quadratic and cubic ones, solves the eigenproblem for (q, p) with
    <p, q> = 1, and assembles ell1 = Re(i g20 g11 + w g21) / (2 w^2).  An
    input whose arithmetic leaves the range of doubles is an AnalysisError.
    """
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
    (*_, margin), (*_, s_s2) = p._case
    try:
        # int / int is correctly rounded, so exact input gives float() of the rational margin
        margin = margin / p._lifted[3] ** 2
    except OverflowError:
        raise _range_error("(b, c, delta)", (p.b, p.c, p.delta)) from None
    applicable = s_s2 < 0
    conclusion = "no-periodic-orbits" if applicable else "inconclusive"
    return DulacReport(applicable=applicable, margin=float(margin), conclusion=conclusion)


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
    conditions = (c > d, L > b, x_star < a, c > d and b <= L)
    return UniquenessReport(g_slope=g, a=a, lam=lam, x_star=x_star, conditions_hold=conditions)
