"""Parameter triple, vector field, discriminants and case classification.

The family under study is the cubic Kolmogorov predator-prey system

    x' = x(-x^2 + (1 - b)x - y + b),
    y' = y((c - delta)x - delta*b),

with positive parameters (b, c, delta), analysed on the closed positive
quadrant.  Rational parameters (int / Fraction) are analysed exactly, on
integer numerators over one common denominator; others in double precision
with a relative epsilon band, which keeps measure-zero boundary surfaces from
being misread as open-region cases.  Each :class:`Params` keeps what depends on
the parameters alone.  Eigenvalues of 2x2 Jacobians come from one closed form,
:func:`_sorted_eig`, so the analysis needs only the standard library.

This bottom layer, which every path loads, also declares the errors that the
CLI maps to exit 1: :class:`AnalysisError`, and the ``IllConditionedError``,
``NoReturnError`` and ``IntegrationFailure`` that ``local`` and ``numerics``
raise and export.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
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
    # a float is never rational; int and Fraction are read by type, as the ABC check is slow on every type
    return float not in (types := {*map(type, vals)}) and (types <= {int, Fraction} or all(isinstance(v, Rational) for v in vals))


def _check_parameter(name: str, v: Number) -> None:
    """The rule every parameter obeys: finite and strictly positive."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    # a Fraction's denominator is positive, so its numerator carries the sign
    if not (v.numerator > 0 if type(v) is Fraction else v > 0):
        raise ValueError(f"{name} must be positive, got {v!r}")


def _to_float(v: Number) -> float:
    """float(v) to the bit, with the same OverflowError: a Fraction as the int / int of
    its numerator and denominator that Rational.__float__ computes, without the call."""
    return v.numerator / v.denominator if type(v) is Fraction else float(v)


def _range_error(names: str, vals: tuple) -> AnalysisError:
    """A rational is named by its float repr when that is a finite nonzero double, else
    by its order of magnitude, so the message never spells out hundreds of digits."""

    def name(v) -> str:
        if isinstance(v, float) or not v:
            return repr(v)
        try:
            f = _to_float(v)
        except OverflowError:
            f = 0.0
        if f:
            return repr(f)
        return f"{'-' * (v < 0)}~1e{round(math.log10(abs(v.numerator)) - math.log10(v.denominator)):+d}"

    return AnalysisError(f"float arithmetic leaves the range of doubles at {names} = ({', '.join(map(name, vals))})")


def _lift(vals: tuple[Number, Number, Number], exact: bool) -> tuple[Number, Number, Number, int, Callable]:
    """(b, c, delta, L, div): if exact, numerators over the lcm L of the denominators
    with div = Fraction; otherwise the values themselves, L = 1 and div = /."""
    if not exact:
        return (*vals, 1, operator.truediv)
    (bn, bd), (cn, cd), (dn, dd) = [(int(v.numerator), int(v.denominator)) for v in vals]
    L = math.lcm(bd, cd, dd)
    return bn * (L // bd), cn * (L // cd), dn * (L // dd), L, Fraction


# not functools.cached_property, which on Python 3.10 and 3.11 takes a class-wide lock on
# every miss: the values are pure functions of a frozen triple, so a race needs no lock
class _cached:
    """A value computed on first use and stored in the instance ``__dict__``, where it
    shadows this non-data descriptor."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.func(obj)
        return value


class _Record:
    """A frozen record over the fields its class annotates: equality, hash and repr as a frozen
    dataclass has them, and AttributeError on setting or deleting an attribute; a plain class,
    so that loading this module generates no code and imports neither dataclasses nor inspect."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._values = operator.attrgetter(*cls._fields)  # called as self._values(self)

    def __eq__(self, other):
        return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values(self)))})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# a record, not a NamedTuple: the per-instance state lives in the instance __dict__
class Params(_Record):
    """The positive triple (b, c, delta) driving the whole analysis.

    ``is_exact`` (every parameter rational) and the lift are set on construction; the
    case values and signs, the float image and P2 on first use, and so are the
    integrator's stop tables and first P1 separatrix turn (``numerics``).  Each is
    computed once, without a lock, and all live in the instance ``__dict__``: equality
    and hash see the three fields alone, and a pickle carries the caches along.
    """

    b: Number
    c: Number
    delta: Number

    def __init__(self, b: Number, c: Number, delta: Number) -> None:
        vals = (b, c, delta)
        for name, v in zip(self._fields, vals):
            _check_parameter(name, v)
        exact = _is_exact(*vals)
        self.__dict__.update(b=b, c=c, delta=delta, is_exact=exact, _lifted=_lift(vals, exact))

    @_cached
    def _case(self) -> tuple[tuple[Number, Number, Number, Number], tuple[int, int, int, int]]:
        """The values of (b*delta - (c-delta), A, B, 1+c-delta-b-b*delta) on ``_lifted``,
        times L^2, L^3, L^5, L^2 if exact, and their signs.

        Exact mode takes the signs on the integer numerators; in float mode a value
        within ZERO_BAND of the magnitude of its terms counts as zero, and an
        overflow is an AnalysisError.
        """
        b, c, d, L, _ = self._lifted
        try:
            vals = (b * d - L * (c - d), *_ab(b, c, d, L), L * (L + c - d - b) - b * d)
            if self.is_exact:
                q1, A, B, s2 = vals
                return vals, ((q1 > 0) - (q1 < 0), (A > 0) - (A < 0), (B > 0) - (B < 0), (s2 > 0) - (s2 < 0))
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
        if not all(map(math.isfinite, vals + scales)):
            raise AnalysisError(f"float arithmetic leaves the range of doubles for {self}; classify it exactly (--exact)")

        def sign(v, s) -> int:
            return 0 if abs(float(v)) <= ZERO_BAND * float(s) else (1 if v > 0 else -1)

        (q1, A, B, s2), (t1, tA, tB, t2) = vals, scales
        return vals, (sign(q1, t1), sign(A, tA), sign(B, tB), sign(s2, t2))

    @_cached
    def _float(self) -> tuple[float, float, float]:
        """(b, c, delta) in doubles, each equal to its float(): int / int on the lift is
        correctly rounded.  A value that overflows or underflows to 0 is an AnalysisError."""
        b, c, d, L, _ = self._lifted
        try:
            vals = (b / L, c / L, d / L) if self.is_exact else (float(b), float(c), float(d))
            if 0.0 not in vals:
                return vals
        except OverflowError:
            pass
        raise _range_error("(b, c, delta)", (self.b, self.c, self.delta))

    @_cached
    def _p2(self) -> tuple[Number, Number]:
        """:func:`_p2_location` on ``_lifted``; P2 need not lie in the quadrant.  A float
        overflow, or an underflow to a zero divisor, is an AnalysisError."""
        try:
            x, y = _p2_location(*self._lifted)
            if self.is_exact or (math.isfinite(x) and math.isfinite(y)):
                return x, y
        except (OverflowError, ZeroDivisionError):
            pass
        raise _range_error("(b, c, delta)", (self.b, self.c, self.delta))

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


# a record, not a NamedTuple: callers rebuild a label with type(label)(**vars(label))
class CaseLabel(_Record):
    """Case number, parameter-space region, portrait letter and proof status.

    ``boundary`` lists the separating surfaces the parameters sit on: exact
    zeros in exact mode, values inside the epsilon band in float mode.
    """

    case: int
    region: str  # I, II-a, II-b, III, S1, S2, S3
    portrait: str  # A, B, C
    status: str  # proven, conjectured
    boundary: tuple[str, ...]

    def __init__(self, case: int, region: str, portrait: str, status: str, boundary: tuple[str, ...] = ()) -> None:
        self.__dict__.update(case=case, region=region, portrait=portrait, status=status, boundary=boundary)


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
    (j11, j12), (j21, j22) = j = _jacobian_at(b, c, d, x, y)
    if _is_exact(b, c, d, x, y):
        return j
    return (float(j11), float(j12)), (float(j21), float(j22))


def _jacobian_at(b: Number, c: Number, d: Number, x: Number, y: Number) -> tuple[tuple[Number, Number], tuple[Number, Number]]:
    """The entries of :func:`jacobian` at (x, y), in the arithmetic of the arguments."""
    return (-3 * x * x + 2 * (1 - b) * x - y + b, -x), ((c - d) * y, (c - d) * x - d * b)


def discriminants(p: Params) -> Discriminants:
    """Closed forms for A and B; exact rationals for rational parameters.

    B is pinned to the eigenvalue discriminant at P2: with
    S = delta(b+1) + c(b-1) one has A = -delta*S and

        delta*B = A^2 - 4 c delta (c-delta)^2 (c - delta - b delta),

    so eigenvalues at P2 are non-real exactly when B < 0.  At A = 0 this
    reduces to B = -4 c^2 (c-delta)^3 / (c+delta).
    """
    ((_, A, B, _), _), (*_, L, div) = p._case, p._lifted
    return Discriminants(div(A, L**3), div(B, L**5))


def _ab(b: Number, c: Number, d: Number, scale: Number = 1) -> tuple[Number, Number]:
    """A and B of :func:`discriminants` on raw numbers, without validation; on the
    numerators of b, c, d over a common denominator ``scale``, A*scale^3 and B*scale^5."""
    A = scale * d * (c - d) - b * d * (c + d)
    S = d * (b + scale) + c * (b - scale)
    B = d * S * S - 4 * c * (c - d) ** 2 * (scale * c - d * (b + scale))
    return A, B


def _p2_location(b: Number, c: Number, d: Number, scale: Number = 1, div=operator.truediv) -> tuple[Number, Number]:
    """P2 = (b d/(c-d), b c (c-d-b d)/(c-d)^2), or on numerators over ``scale`` as in :func:`_ab`."""
    e = scale * (c - d)
    return div(b * d, e), div(b * c * (e - b * d), e**2)


def _sorted_eig(j: tuple[tuple[float, float], tuple[float, float]]) -> tuple[complex, complex]:
    """Eigenvalues (tr -+ sqrt((a-d)^2 + 4bc))/2 of the float 2x2 matrix [[a, b], [c, d]],
    sorted by (real, imag); the package's one eigenvalue routine.  A real pair
    takes its smaller root as det over the larger, so no sign is lost to cancellation."""
    (a, b), (c, d) = j
    # scaling by a power of two keeps the squares in range and changes no bit
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b, c, d = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e), math.ldexp(d, -e)
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
    bf, cf, df = p._float
    pts = [SingularPoint("P0", "affine", (0, 0), "saddle", (complex(bf), complex(-df * bf)))]

    _, (s_q1, s_A, s_B, _) = p._case
    lam1, lam2 = complex(-bf - 1.0), complex(cf - df - bf * df)
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
    # the Jacobian at the float images of the parameters and of P2
    eig = _sorted_eig(_jacobian_at(bf, cf, df, _to_float(loc[0]), _to_float(loc[1])))
    pts.append(SingularPoint("P2", "affine", loc, kind, eig))
    return pts


def classify_case(p: Params) -> CaseLabel:
    """Map parameters to (case, region, portrait, status, boundary tags).

    Total and deterministic.  Boundary tags fire exactly when the separating
    quantity is zero (exact mode) or within the epsilon band (float mode):
    ``case2-boundary`` for b*delta = c - delta, ``A-zero`` for A = 0 and
    ``B-zero`` for B = 0.
    """
    _, (s_q1, s_A, s_B, s_s2) = p._case

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
