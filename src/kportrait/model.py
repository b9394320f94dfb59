"""Parameter triple, vector field, discriminants and case classification.

The family under study is the cubic Kolmogorov predator-prey system

    x' = x(-x^2 + (1 - b)x - y + b),
    y' = y((c - delta)x - delta*b),

with positive parameters (b, c, delta), analysed on the closed positive
quadrant.  Rational parameters (int / Fraction) are analysed exactly, on
integer numerators over one common denominator that each :class:`Params`
lifts once and caches with its case signs; others in double precision with a
relative epsilon band, which keeps measure-zero boundary surfaces from being
misread as open-region cases.  Eigenvalues of 2x2 Jacobians come from one
closed form, :func:`_sorted_eig`, so the analysis needs only the standard library.

This bottom layer, which every path loads, also declares the errors that the
CLI maps to exit 1: :class:`AnalysisError`, and the ``IllConditionedError``,
``NoReturnError`` and ``IntegrationFailure`` that ``local`` and ``numerics``
raise and export.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from .numerics import Orbit

__all__ = [
    "AnalysisError",
    "Params",
    "Discriminants",
    "SingularPoint",
    "CaseLabel",
    "vector_field",
    "jacobian",
    "discriminants",
    "finite_singular_points",
    "classify_case",
]

Number = Union[int, float, Fraction]

# Relative width of the zero band used for boundary detection in float mode.
ZERO_BAND = 1e-12


class AnalysisError(ValueError):
    """The parameters lie outside what this analysis covers."""


class IllConditionedError(RuntimeError):
    """The Hopf eigenproblem residual exceeded tolerance."""


class IntegrationFailure(RuntimeError):
    """Step-size underflow or sample-budget exhaustion; carries the partial orbit."""

    def __init__(self, message: str, orbit: "Orbit"):
        super().__init__(message)
        self.orbit = orbit


class NoReturnError(RuntimeError):
    """The orbit converged or escaped before recrossing the section."""

    def __init__(self, message: str, orbit: Optional["Orbit"] = None):
        super().__init__(message)
        self.orbit = orbit


def _is_exact(*vals: Number) -> bool:
    return all(isinstance(v, Rational) for v in vals)


def _check_parameter(name: str, v: Number) -> None:
    """The rule every parameter obeys: finite and strictly positive."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    if not v > 0:
        raise ValueError(f"{name} must be positive, got {v!r}")


# a dataclass, not a NamedTuple: the cached_property caches need an instance __dict__
@dataclass(frozen=True)
class Params:
    """The positive triple (b, c, delta) driving the whole analysis."""

    b: Number
    c: Number
    delta: Number

    def __post_init__(self) -> None:
        for name in ("b", "c", "delta"):
            _check_parameter(name, getattr(self, name))

    @cached_property
    def is_exact(self) -> bool:
        """True when every parameter is rational, enabling exact classification."""
        return _is_exact(self.b, self.c, self.delta)

    @cached_property
    def _lifted(self) -> tuple[Number, Number, Number, int, Callable]:
        """(b, c, delta, L, div): if exact, numerators over the lcm L of the denominators."""
        vals = (self.b, self.c, self.delta)
        if not self.is_exact:
            return (*vals, 1, operator.truediv)
        L = math.lcm(*(int(v.denominator) for v in vals))
        return (*(int(v.numerator) * (L // int(v.denominator)) for v in vals), L, Fraction)

    @cached_property
    def _case_values(self) -> tuple[Number, Number, Number, Number]:
        """The quantities of :func:`_signs` on ``_lifted``; times L^2, L^3, L^5, L^2 if exact."""
        b, c, d, L, _ = self._lifted
        return (b * d - L * (c - d), *_ab(b, c, d, L), L * (L + c - d - b) - b * d)

    _case_signs = cached_property(lambda self: _signs(self))

    @cached_property
    def _p2(self) -> tuple[Number, Number]:
        """:func:`_p2_location` on ``_lifted``; P2 need not lie in the quadrant."""
        return _in_range(_p2_location, *self._lifted)

    def as_float(self) -> "Params":
        """The triple in doubles, ``self`` if it is one already; an AnalysisError when a
        value overflows or underflows to 0."""
        if all(type(v) is float for v in (self.b, self.c, self.delta)):
            return self
        return Params(*_in_range(lambda *v: [float(x) or math.inf for x in v], self.b, self.c, self.delta))

    def exact_triple(self) -> tuple[Fraction, Fraction, Fraction]:
        if not self.is_exact:
            raise ValueError("parameters are not rational")
        return Fraction(self.b), Fraction(self.c), Fraction(self.delta)


class Discriminants(NamedTuple):
    """The two polynomial discriminants controlling the interior point P2.

    A carries the sign of the trace of the Jacobian at P2, B the sign of its
    eigenvalue discriminant: delta*B equals (trace^2 - 4 det) at P2 up to the
    strictly positive factor (b/(c-delta)^2)^2.
    """

    A: Number
    B: Number


class SingularPoint(NamedTuple):
    """A finite or infinite equilibrium with location, chart and local type."""

    name: str  # P0, P1, P2, O1, O2
    chart: str  # affine, U1, U2
    location: tuple[Number, Number]
    kind: str
    eigenvalues: Optional[tuple[complex, complex]] = None


# a dataclass, not a NamedTuple: callers rebuild a label with type(label)(**vars(label))
@dataclass(frozen=True)
class CaseLabel:
    """Case number, parameter-space region, portrait letter and proof status.

    ``boundary`` lists the separating surfaces the parameters sit on: exact
    zeros in exact mode, values inside the epsilon band in float mode.
    """

    case: int
    region: str  # I, II-a, II-b, III, S1, S2, S3
    portrait: str  # A, B, C
    status: str  # proven, conjectured
    boundary: tuple[str, ...] = ()


def vector_field(p: Params, pt) -> tuple[Number, Number]:
    """Evaluate the family field at the point ``pt``; exact when inputs are rational."""
    x, y = pt
    dx = x * (-x * x + (1 - p.b) * x - y + p.b)
    dy = y * ((p.c - p.delta) * x - p.delta * p.b)
    return dx, dy


def jacobian(p: Params, pt) -> tuple[tuple[Number, Number], tuple[Number, Number]]:
    """Partial-derivative matrix of the field at the point ``pt`` as nested row tuples.

    Entries stay exact when both parameters and coordinates are rational and
    are floats otherwise.
    """
    x, y = pt
    b, c, d = p.b, p.c, p.delta
    j11 = -3 * x * x + 2 * (1 - b) * x - y + b
    j12 = -x
    j21 = (c - d) * y
    j22 = (c - d) * x - d * b
    if _is_exact(b, c, d, x, y):
        return (j11, j12), (j21, j22)
    return (float(j11), float(j12)), (float(j21), float(j22))


def discriminants(p: Params) -> Discriminants:
    """Closed forms for A and B; exact rationals for rational parameters.

    B is pinned to the eigenvalue discriminant at P2: with
    S = delta(b+1) + c(b-1) one has A = -delta*S and

        delta*B = A^2 - 4 c delta (c-delta)^2 (c - delta - b delta),

    so eigenvalues at P2 are non-real exactly when B < 0.  At A = 0 this
    reduces to B = -4 c^2 (c-delta)^3 / (c+delta).
    """
    (_, A, B, _), (*_, L, div) = p._case_values, p._lifted
    return Discriminants(div(A, L**3), div(B, L**5))


def _ab(b: Number, c: Number, d: Number, scale: Number = 1) -> tuple[Number, Number]:
    """A and B of :func:`discriminants` on raw numbers, without validation; on the
    numerators of b, c, d over a common denominator ``scale``, A*scale^3 and B*scale^5."""
    A = scale * d * (c - d) - b * d * (c + d)
    S = d * (b + scale) + c * (b - scale)
    B = d * S * S - 4 * c * (c - d) ** 2 * (scale * c - d * (b + scale))
    return A, B


def _signs(p: Params) -> tuple[int, int, int, int]:
    """Signs of (b*delta - (c-delta), A, B, 1+c-delta-b-b*delta).

    Exact mode takes them on the integer numerators of ``p._case_values``; in
    float mode a value within ZERO_BAND of the magnitude of its terms counts as
    zero, and an overflow is an AnalysisError.  Callers read ``p._case_signs``.
    """
    b, c, d, _, _ = p._lifted
    try:
        vals = p._case_values
        if p.is_exact:
            return tuple((v > 0) - (v < 0) for v in vals)
        S = d * (b + 1) + c * (b - 1)
        scales = (
            b * d + abs(c - d),
            d * abs(c - d) + b * d * (c + d),
            d * S * S + 4 * c * (c - d) ** 2 * abs(c - d * (b + 1)),
            1 + c + d + b + b * d,
        )
    except OverflowError:  # float arithmetic out of range
        vals = scales = (math.inf,)
    # an overflow passes every band test and would read as a boundary case
    if not all(math.isfinite(v) for v in vals + scales):
        raise AnalysisError(f"float arithmetic leaves the range of doubles for {p}; classify it exactly (--exact)")
    return tuple(
        0 if abs(float(v)) <= ZERO_BAND * float(s) else (1 if v > 0 else -1)
        for v, s in zip(vals, scales)
    )


def _in_range(fn, *args):
    """``fn(*args)``; a float overflow, or underflow to a zero divisor, is an AnalysisError."""
    try:
        vals = fn(*args)
    except (OverflowError, ZeroDivisionError):
        vals = (math.inf,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
        names = "(b, c, delta)" if len(args) > 2 else "(c, delta)"
        raise AnalysisError(f"float arithmetic leaves the range of doubles at {names} = {args[:3]}")
    return vals


def _p2_location(b: Number, c: Number, d: Number, scale: Number = 1, div=operator.truediv) -> tuple[Number, Number]:
    """P2 = (b d/(c-d), b c (c-d-b d)/(c-d)^2), or on numerators over ``scale`` as in :func:`_ab`."""
    e = scale * (c - d)
    return div(b * d, e), div(b * c * (e - b * d), e**2)


def _sorted_eig(j) -> tuple[complex, complex]:
    """Eigenvalues (tr -+ sqrt((a-d)^2 + 4bc))/2 of the 2x2 matrix [[a, b], [c, d]] in
    float, sorted by (real, imag); the package's one eigenvalue routine.  A real pair
    takes its smaller root as det over the larger, so no sign is lost to cancellation."""
    (a, b), (c, d) = ((float(v) for v in row) for row in j)
    # scaling by a power of two keeps the squares in range and changes no bit
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b, c, d = (math.ldexp(v, -e) for v in (a, b, c, d))
    tr, root, half = a + d, cmath.sqrt((a - d) * (a - d) + 4 * b * c), 2.0 ** (e - 1)
    if root.imag or not (tr or root):
        return (tr - root) * half, (tr + root) * half
    big = tr + math.copysign(root.real, tr)
    lo, hi = sorted((4 * (a * d - b * c) / big, big))
    return complex(lo * half), complex(hi * half)


def finite_singular_points(p: Params) -> list[SingularPoint]:
    """Equilibria of the family in the closed positive quadrant.

    Always contains P0 = (0,0) (saddle) and P1 = (1,0); P2 is included only
    when it lies strictly inside the open quadrant.  When b*delta = c - delta
    the collision P1 = P2 is reported once, as a saddle-node at (1,0).
    """
    pf = p.as_float()
    bf, cf, df = pf.b, pf.c, pf.delta

    pts = [
        SingularPoint(
            "P0", "affine", (0, 0), "saddle", (complex(bf), complex(-df * bf))
        )
    ]

    s_q1, s_A, s_B, _ = p._case_signs
    lam1 = complex(-bf - 1.0)
    lam2 = complex(cf - df - bf * df)
    if s_q1 > 0:
        pts.append(SingularPoint("P1", "affine", (1, 0), "stable-node", (lam1, lam2)))
        return pts
    if s_q1 == 0:
        pts.append(SingularPoint("P1", "affine", (1, 0), "saddle-node", (lam1, 0j)))
        return pts

    pts.append(SingularPoint("P1", "affine", (1, 0), "saddle", (lam1, lam2)))

    loc = p._p2
    if s_B < 0:
        kind = {1: "unstable-focus", -1: "stable-focus", 0: "weak-stable-focus"}[s_A]
    else:
        # B >= 0 with A = 0 cannot happen: A = 0 forces B < 0.
        kind = "unstable-node" if s_A > 0 else "stable-node"
    jac = jacobian(pf, (float(loc[0]), float(loc[1])))
    pts.append(SingularPoint("P2", "affine", loc, kind, _sorted_eig(jac)))
    return pts


def classify_case(p: Params) -> CaseLabel:
    """Map parameters to (case, region, portrait, status, boundary tags).

    Total and deterministic.  Boundary tags fire exactly when the separating
    quantity is zero (exact mode) or within the epsilon band (float mode):
    ``case2-boundary`` for b*delta = c - delta, ``A-zero`` for A = 0 and
    ``B-zero`` for B = 0.
    """
    s_q1, s_A, s_B, s_s2 = p._case_signs

    boundary: list[str] = []
    if s_q1 == 0:
        boundary.append("case2-boundary")
    elif s_q1 < 0:
        if s_A == 0:
            boundary.append("A-zero")
        elif s_B == 0:
            boundary.append("B-zero")

    if s_q1 > 0:
        case = 1
    elif s_q1 == 0:
        case = 2
    elif s_A == 0:
        case = 7
    elif s_B < 0:
        case = 5 if s_A > 0 else 6
    else:
        case = 3 if s_A > 0 else 4

    if s_q1 > 0:
        region = "I"
    elif s_q1 == 0:
        region = "S1"
    elif s_A > 0:
        region = "III"
    elif s_A == 0:
        region = "S3"
    elif s_s2 > 0:
        region = "II-b"
    elif s_s2 == 0:
        region = "S2"
    else:
        region = "II-a"

    if case in (1, 2):
        portrait, status = "A", "proven"
    elif case in (3, 5):
        portrait, status = "B", "proven"
    else:
        portrait = "C"
        status = "proven" if s_s2 < 0 else "conjectured"

    return CaseLabel(case, region, portrait, status, tuple(boundary))
