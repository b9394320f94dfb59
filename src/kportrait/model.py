"""Parameter triple, vector field, discriminants and case classification.

The family under study is the cubic Kolmogorov predator-prey system

    x' = x(-x^2 + (1 - b)x - y + b),
    y' = y((c - delta)x - delta*b),

with positive parameters (b, c, delta), analysed on the closed positive
quadrant.  Rational parameters (int / Fraction) are analysed exactly, on
integer numerators over one common denominator; others in double precision
with a relative epsilon band, which keeps measure-zero boundary surfaces from
being misread as open-region cases.  Each :class:`Params` keeps what depends on
the parameters alone, and takes its label from a table keyed by its four case signs.
P2's eigenvalues come from A and B (:func:`_p2_pair`), those of P0 and P1 are
diagonal, so the analysis needs only the standard library.

This bottom layer, which every path loads, also declares the errors that the
CLI maps to exit 1: :class:`AnalysisError`, and the ``IllConditionedError``,
``NoReturnError`` and ``IntegrationFailure`` that ``local`` and ``numerics``
raise and export.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from .numerics import Orbit

__all__ = [
    "AnalysisError",
    "Params",
    "Discriminants",
    "SectorData",
    "SingularPoint",
    "CaseLabel",
    "discriminants",
    "finite_singular_points",
    "classify_case",
]

Number = Union[int, float, Fraction]
_EXACT_TYPES = frozenset((int, Fraction))

# Relative width of the zero band used for boundary detection in float mode.
ZERO_BAND = 1e-12


class AnalysisError(ValueError):
    """The parameters lie outside what this analysis covers."""


class IllConditionedError(RuntimeError):
    """The Hopf eigenproblem residual exceeded tolerance."""


class IntegrationFailure(RuntimeError):
    """Step-size underflow of an orbit; carries the partial orbit."""

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
    return float not in map(type, vals) and (_EXACT_TYPES.issuperset(map(type, vals)) or all(isinstance(v, Rational) for v in vals))


def _check_parameter(name: str, v: Number) -> None:
    """The rule every parameter obeys: finite and strictly positive."""
    if type(v) is float and 0.0 < v < math.inf:
        return
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

    ``is_exact`` (every parameter rational) and the lift are set on construction; the case values
    and signs, the case label (looked up by the signs), the float image and P2 on first use, and
    so are the integrator's stop tables and its P1 separatrix turn, with the limits of that turn
    (``numerics``).  Each is computed once, the turn again only under other limits, without a
    lock, and all live in the instance ``__dict__``: equality and hash see the three fields
    alone, and a pickle carries the caches along.
    """

    b: Number
    c: Number
    delta: Number

    def __init__(self, b: Number, c: Number, delta: Number) -> None:
        _check_parameter("b", b)
        _check_parameter("c", c)
        _check_parameter("delta", delta)
        exact = _is_exact(b, c, delta)
        self.__dict__.update(b=b, c=c, delta=delta, is_exact=exact, _lifted=_lift((b, c, delta), exact))

    @_cached
    def _case(self) -> tuple[tuple[Number, Number, Number, Number], tuple[int, int, int, int]]:
        """The values of (b*delta - (c-delta), A, B, 1+c-delta-b-b*delta) on ``_lifted``,
        times L^2, L^3, L^5, L^2 if exact, and their signs.

        Exact mode takes the signs on the integer numerators; in float mode a value
        within ZERO_BAND of the magnitude of its terms counts as zero, and an
        overflow, or a magnitude that underflows, is an AnalysisError.
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
        # an overflow passes every band test and would read as a boundary case; so does an
        # underflow: each scale is a sum of positive terms, so one below the least normal
        # double (0.0 included) has underflowed and its band reads any value as zero
        if not all(map(math.isfinite, vals + scales)) or min(scales) < sys.float_info.min:
            raise AnalysisError(f"float arithmetic leaves the range of doubles for {self}; classify it exactly (--exact)")
        (q1, A, B, s2), (t1, tA, tB, t2), z = vals, scales, ZERO_BAND
        if type(t1) is not float:  # a subclass of float, or another real type, is banded on its doubles
            (q1, A, B, s2), (t1, tA, tB, t2) = map(float, vals), map(float, scales)
        return vals, ((q1 > z * t1) - (q1 < -z * t1), (A > z * tA) - (A < -z * tA), (B > z * tB) - (B < -z * tB),
                      (s2 > z * t2) - (s2 < -z * t2))

    @_cached
    def _label(self) -> CaseLabel:
        """The :func:`classify_case` label: the ``_LABELS`` entry of the signs of ``_case``, decided on a miss."""
        if (label := _LABELS.get(signs := self._case[1])) is not None:
            return label
        s_q1, s_A, s_B, s_s2 = signs
        if s_q1 > 0:
            case, region, boundary = 1, "I", ()
        elif s_q1 == 0:
            case, region, boundary = 2, "S1", ("case2-boundary",)
        elif s_A == 0:
            case, region, boundary = 7, "S3", ("A-zero",)
        else:
            case = (5 if s_B < 0 else 3) if s_A > 0 else (6 if s_B < 0 else 4)
            region = "III" if s_A > 0 else ("II-a", "S2", "II-b")[s_s2 + 1]
            boundary = ("B-zero",) if s_B == 0 else ()
        portrait = _CASES[case][0]
        status = "conjectured" if portrait == "C" and s_s2 >= 0 else "proven"
        return _LABELS.setdefault(signs, CaseLabel(case, region, portrait, status, boundary))

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


class SectorData(NamedTuple):
    """The local sector structure of a degenerate point in the quadrant."""

    sector: str
    separatrices: tuple[str, str]


class SingularPoint(NamedTuple):
    """A finite or infinite equilibrium with location, chart and local type; the
    eigenvalues are those of its linear part, and a degenerate one has its sector."""

    name: str  # P0, P1, P2, O1, O2
    chart: str  # affine, U1, U2
    location: tuple[Number, Number]
    kind: str
    eigenvalues: Optional[tuple[complex, complex]] = None
    sector: Optional[SectorData] = None


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


def _mu_omega(b: Number, c: Number, d: Number, ab: Optional[tuple[Number, Number]] = None) -> tuple[float, Optional[float]]:
    """mu(b) and omega(b) of P2's pair at fixed (c, delta), on doubles from A and B (``ab``, else :func:`_ab`):
    mu = b A/den, omega = b sqrt(-d B)/den, den = 2 (c-d)^2; omega is None where -d B <= 0, a real pair."""
    A, B = _ab(b, c, d) if ab is None else ab
    val, den = -d * B, 2 * (c - d) ** 2
    return b * A / den, None if val <= 0 else b * math.sqrt(val) / den


def _p2_pair(p: Params) -> tuple[complex, complex]:
    """P2's eigenvalues from A and B, sorted by (real, imag): for a focus mu -+ i omega of :func:`_mu_omega` (mu = 0
    on A = 0), else big = mu + sign(A) b sqrt(d B)/den and det/big, det = x2 (c-d) y2 > 0.  Exact input, and float
    input beyond 2^-64 .. 2^64 where a float product could leave the normal doubles, is taken on its lift's integers."""
    ((_, A, B, _), (_, s_A, s_B, _)), (b, c, d, L, _) = p._case, p._lifted
    real = s_A != 0 and s_B >= 0
    if not p.is_exact and 2.0**-64 < b < 2.0**64 and 2.0**-64 < c < 2.0**64 and 2.0**-64 < d < 2.0**64:
        mu, w = _mu_omega(b, c, d, (A, -B if real else B))  # a real pair's half gap b sqrt(d B)/den is omega at -B
        mu, w = mu if s_A else 0.0, w or 0.0
        if real:
            (x2, y2), big = p._p2, mu + math.copysign(w, mu)
            small = x2 * (c - d) * y2 / big
    else:
        if not p.is_exact:
            b, c, d, L, _ = _lift((Fraction(b), Fraction(c), Fraction(d)), True)
            A, B = _ab(b, c, d, L)
        e, N = L * (c - d), abs(d * B)  # d B >= 0 for a real pair, < 0 for a focus, but for a lifted float in the band of B = 0
        k = max(0, 64 - N.bit_length() // 2)  # isqrt(N 4^k) has 64 bits or more: each value is rounded once
        s, den = math.isqrt(N << 2 * k), 2 * e * e
        try:
            if not real:
                mu, w = b * A / den if s_A else 0.0, b * s / (den << k)
            else:  # A = 0 forces B < 0, so g is zero only for a case table that a test stubs
                g = (A << k) + (s if A > 0 else -s)
                big, small = b * g / (den << k), (2 * b * c * d * (e - b * d) << k) / (L * L * g) if g else 0.0
        except OverflowError:
            raise _range_error("(b, c, delta)", (p.b, p.c, p.delta)) from None
    if not real:
        return complex(mu, -w), complex(mu, w)
    return (complex(big), complex(small)) if big < small else (complex(small), complex(big))


# the paper's cases: (portrait, P1 kind, P2 kind); P2 lies in the open quadrant from case 3 on
_CASES = {
    1: ("A", "stable-node", None),
    2: ("A", "saddle-node", None),
    3: ("B", "saddle", "unstable-node"),
    4: ("C", "saddle", "stable-node"),
    5: ("B", "saddle", "unstable-focus"),
    6: ("C", "saddle", "stable-focus"),
    7: ("C", "saddle", "weak-stable-focus"),
}
# the one CaseLabel of each sign tuple of Params._case, filled on first use: 81 keys at most
_LABELS: dict[tuple[int, int, int, int], CaseLabel] = {}


def finite_singular_points(p: Params) -> list[SingularPoint]:
    """Equilibria of the family in the closed positive quadrant, with the kinds that
    :func:`classify_case`'s case fixes.

    Always contains P0 = (0,0) (saddle) and P1 = (1,0); P2 is included from case 3
    on, when it lies strictly inside the open quadrant.  When b*delta = c - delta
    (case 2) the collision P1 = P2 is reported once, as a saddle-node at (1,0).
    """
    bf, cf, df = p._float
    case = p._label.case
    _, p1_kind, p2_kind = _CASES[case]
    lam1, lam2 = complex(-bf - 1.0), complex(cf - df - bf * df)
    pts = [
        SingularPoint("P0", "affine", (0, 0), "saddle", (complex(bf), complex(-df * bf))),
        SingularPoint("P1", "affine", (1, 0), p1_kind, (lam1, 0j if case == 2 else lam2)),
    ]
    return pts + [SingularPoint("P2", "affine", p._p2, p2_kind, _p2_pair(p))] if p2_kind else pts


def classify_case(p: Params) -> CaseLabel:
    """Map parameters to (case, region, portrait, status, boundary tags).

    Total and deterministic: one decision over the signs of b*delta - (c - delta),
    A, B and the S2 margin 1 + c - delta - b - b*delta gives case, region and tags;
    the case fixes the portrait letter, and a portrait C is proven only below S2.
    Boundary tags fire exactly when the separating quantity is zero (exact mode)
    or within the epsilon band (float mode): ``case2-boundary`` for
    b*delta = c - delta, ``A-zero`` for A = 0 off it, and ``B-zero`` for B = 0
    off both.  The label of each of the 81 sign tuples is decided once, into the table
    ``_LABELS``, and each :class:`Params` reads its own once and returns it on every call.
    """
    return p._label
