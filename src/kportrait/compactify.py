"""Poincare compactification of planar polynomial systems.

A degree-d polynomial field on the plane extends to the closed disc whose
boundary circle collects the directions at infinity.  The extension is
examined in three local charts: U3 is the original affine plane, U1 covers
the x-directions at infinity and U2 the y-directions.  This module provides
a generic chart engine for any degree, chart-to-chart coordinate maps, the
search for singular points on the equator, and the single horizontal blow-up
(u = v * w1) needed to desingularise the degenerate equator point of the
predator-prey family.

Polynomials are sparse maps from exponent pairs (i, j) to nonzero
coefficients; arithmetic follows the input number types, so rational inputs
give exact rational charted systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Mapping, Optional

from .model import Number, Params, SingularPoint, _is_exact, _sorted_eig

__all__ = [
    "PolySystem",
    "ChartSystem",
    "BlowupSystem",
    "InfinitePoint",
    "SectorData",
    "ChartDomainError",
    "compactify",
    "chart_transition",
    "infinite_singular_points",
    "blowup_horizontal",
    "classify_blowup_origin",
    "family_system",
    "family_infinite_points",
]

Terms = dict[tuple[int, int], Number]


class ChartDomainError(ValueError):
    """A chart transition was requested at a point outside its domain."""


def _add_term(terms: Terms, key: tuple[int, int], coeff: Number) -> None:
    if key[0] < 0 or key[1] < 0:
        raise ValueError(f"negative exponent {key} produced; system is not polynomial")
    c = terms.get(key, 0) + coeff
    if c == 0:
        terms.pop(key, None)
    else:
        terms[key] = c


def _eval_terms(terms: Terms, x: Number, y: Number) -> Number:
    total: Number = 0
    for (i, j), coeff in terms.items():
        total = total + coeff * x**i * y**j
    return total


def _diff_terms(terms: Terms, var: int) -> Terms:
    out: Terms = {}
    for (i, j), coeff in terms.items():
        if var == 0 and i > 0:
            _add_term(out, (i - 1, j), i * coeff)
        elif var == 1 and j > 0:
            _add_term(out, (i, j - 1), j * coeff)
    return out


def _mul_terms(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            _add_term(out, (i + k, j + l), ca * cb)
    return out


def _compose_terms(terms: Terms, px: Terms, py: Terms) -> Terms:
    """Substitute the polynomials px, py for the two variables."""
    deg = max((i for (i, _) in terms), default=0), max((j for (_, j) in terms), default=0)
    xs: list[Terms] = [{(0, 0): 1}]
    for _ in range(deg[0]):
        xs.append(_mul_terms(xs[-1], px))
    ys: list[Terms] = [{(0, 0): 1}]
    for _ in range(deg[1]):
        ys.append(_mul_terms(ys[-1], py))
    out: Terms = {}
    for (i, j), coeff in terms.items():
        for key, c in _mul_terms(xs[i], ys[j]).items():
            _add_term(out, key, coeff * c)
    return out


def _shift_terms(terms: Terms, x0: Number, y0: Number) -> Terms:
    """Terms of the polynomial at (u + x0, v + y0); zero sums are left to PolySystem to drop."""
    out: Terms = {}
    for (i, j), a in terms.items():
        for k in range(i + 1):
            ak = a * comb(i, k) * x0 ** (i - k)
            for l in range(j + 1):
                out[k, l] = out.get((k, l), 0) + ak * comb(j, l) * y0 ** (j - l)
    return out


def _divide_by_second_var(terms: Terms) -> Terms:
    out: Terms = {}
    for (i, j), coeff in terms.items():
        if j < 1:
            raise ValueError("division by v is not exact; common factor missing")
        out[(i, j - 1)] = coeff
    return out


@dataclass(frozen=True)
class PolySystem:
    """A planar polynomial field (P, Q) as sparse exponent-keyed terms.

    The constructor copies both term maps into canonical form (zeros dropped,
    keys ascending by (i, j)), so every sum over the terms runs in one order.
    ``terms_p()`` maps (i, j) to the coefficient of x^i y^j in the first
    component, ``terms_q()`` the same for the second.
    """

    _p: Terms
    _q: Terms

    def __post_init__(self) -> None:
        for name in ("_p", "_q"):
            terms = getattr(self, name)
            object.__setattr__(self, name, {k: terms[k] for k in sorted(terms) if terms[k] != 0})

    def __hash__(self) -> int:
        return hash((tuple(self._p.items()), tuple(self._q.items())))

    def terms_p(self) -> Mapping[tuple[int, int], Number]:
        return MappingProxyType(self._p)

    def terms_q(self) -> Mapping[tuple[int, int], Number]:
        return MappingProxyType(self._q)

    @property
    def degree(self) -> int:
        return max((i + j for terms in (self._p, self._q) for (i, j) in terms), default=0)

    def coeff_p(self, i: int, j: int) -> Number:
        return self._p.get((i, j), 0)

    def coeff_q(self, i: int, j: int) -> Number:
        return self._q.get((i, j), 0)

    def __call__(self, x: Number, y: Number) -> tuple[Number, Number]:
        return _eval_terms(self._p, x, y), _eval_terms(self._q, x, y)

    def jacobian_at(self, x: Number, y: Number):
        tp, tq = self._p, self._q
        return (
            (_eval_terms(_diff_terms(tp, 0), x, y), _eval_terms(_diff_terms(tp, 1), x, y)),
            (_eval_terms(_diff_terms(tq, 0), x, y), _eval_terms(_diff_terms(tq, 1), x, y)),
        )

    def linear_part(self):
        """Coefficients of (x, y) in both components, constant terms ignored."""
        return (
            (self.coeff_p(1, 0), self.coeff_p(0, 1)),
            (self.coeff_q(1, 0), self.coeff_q(0, 1)),
        )

    def translate(self, x0: Number, y0: Number) -> "PolySystem":
        """Field in coordinates centred at (x0, y0), exact for rational input: every term
        takes the binomial (Taylor) shift sum C(i,k) C(j,l) x0^(i-k) y0^(j-l) u^k v^l."""
        return PolySystem(_shift_terms(self._p, x0, y0), _shift_terms(self._q, x0, y0))

    def linear_change(self, m) -> "PolySystem":
        """Field in coordinates w with z = M w, i.e. w' = M^{-1} F(M w)."""
        (m00, m01), (m10, m11) = (m[0][0], m[0][1]), (m[1][0], m[1][1])
        det = m00 * m11 - m01 * m10
        if det == 0:
            raise ValueError("change-of-basis matrix is singular")
        px: Terms = {(1, 0): m00, (0, 1): m01}
        py: Terms = {(1, 0): m10, (0, 1): m11}
        f1 = _compose_terms(self._p, px, py)
        f2 = _compose_terms(self._q, px, py)
        # M^{-1} = (1/det) [[m11, -m01], [-m10, m00]]
        g1: Terms = {}
        g2: Terms = {}
        for key, c in f1.items():
            _add_term(g1, key, m11 * c / det)
            _add_term(g2, key, -m10 * c / det)
        for key, c in f2.items():
            _add_term(g1, key, -m01 * c / det)
            _add_term(g2, key, m00 * c / det)
        return PolySystem(g1, g2)


@dataclass(frozen=True)
class ChartSystem:
    """A polynomial field expressed in one compactification chart."""

    chart: str
    system: PolySystem


@dataclass(frozen=True)
class BlowupSystem:
    """Blow-up field in (w1, v); ``time_factor`` is the power of v divided out.

    Dividing the field by v reverses orbit direction where v < 0, so
    consumers of a rescaled system must restrict to v > 0 to keep the
    original orientation.
    """

    stage: str  # raw, rescaled
    system: PolySystem
    time_factor: int = 0


@dataclass(frozen=True)
class SectorData:
    """Analytic description of the local sector structure at a degenerate point."""

    sector: str
    separatrices: tuple[str, str]


@dataclass(frozen=True)
class InfinitePoint:
    """A singular point on the equator of the Poincare disc."""

    chart: str
    location: tuple[float, float]
    kind: str
    sector_data: Optional[SectorData] = None
    linear_part: Optional[tuple[tuple[float, float], tuple[float, float]]] = None


def compactify(sys: PolySystem, chart: str) -> ChartSystem:
    """Express ``sys`` in one of the charts U1, U2, U3.

    U1: u' = v^d [-u P(1/v, u/v) + Q(1/v, u/v)],  v' = -v^{d+1} P(1/v, u/v)
    U2: u' = v^d [P(u/v, 1/v) - u Q(u/v, 1/v)],   v' = -v^{d+1} Q(u/v, 1/v)
    U3: the affine system verbatim.

    All negative powers of v clear, so the result is polynomial of degree
    at most d + 1.
    """
    if chart in ("U3", "affine"):
        return ChartSystem("U3", sys)
    if chart not in ("U1", "U2"):
        raise ValueError(f"unknown chart {chart!r}")
    d = sys.degree
    if d < 1:
        raise ValueError("compactification needs degree >= 1")

    u_terms: Terms = {}
    v_terms: Terms = {}
    if chart == "U1":
        # monomial x^i y^j at (1/v, u/v): u^j v^{-i-j}
        for (i, j), a in sys.terms_p().items():
            _add_term(u_terms, (j + 1, d - i - j), -a)
            _add_term(v_terms, (j, d + 1 - i - j), -a)
        for (i, j), a in sys.terms_q().items():
            _add_term(u_terms, (j, d - i - j), a)
    else:
        # monomial x^i y^j at (u/v, 1/v): u^i v^{-i-j}
        for (i, j), a in sys.terms_p().items():
            _add_term(u_terms, (i, d - i - j), a)
        for (i, j), a in sys.terms_q().items():
            _add_term(u_terms, (i + 1, d - i - j), -a)
            _add_term(v_terms, (i, d + 1 - i - j), -a)
    return ChartSystem(chart, PolySystem(u_terms, v_terms))


def _div(a: Number, b: Number) -> Number:
    if _is_exact(a, b):
        return Fraction(a) / Fraction(b)
    return a / b


def _to_affine(chart: str, pt) -> tuple[Number, Number]:
    a, b = pt
    if chart in ("U3", "affine"):
        return a, b
    if b == 0:
        raise ChartDomainError(f"{chart} point {pt} has v = 0; no affine image")
    if chart == "U1":
        return _div(1, b), _div(a, b)
    if chart == "U2":
        return _div(a, b), _div(1, b)
    raise ValueError(f"unknown chart {chart!r}")


def _from_affine(chart: str, pt) -> tuple[Number, Number]:
    x, y = pt
    if chart in ("U3", "affine"):
        return x, y
    if chart == "U1":
        if x == 0:
            raise ChartDomainError(f"affine point {pt} has x = 0; outside U1 domain")
        return _div(y, x), _div(1, x)
    if chart == "U2":
        if y == 0:
            raise ChartDomainError(f"affine point {pt} has y = 0; outside U2 domain")
        return _div(x, y), _div(1, y)
    raise ValueError(f"unknown chart {chart!r}")


def chart_transition(chart_from: str, chart_to: str, pt) -> tuple[Number, Number]:
    """Transport a point between charts; round trips are the identity.

    Raises :class:`ChartDomainError` when the dividing coordinate vanishes.
    """
    return _from_affine(chart_to, _to_affine(chart_from, pt))


def infinite_singular_points(sys: PolySystem) -> list[InfinitePoint]:
    """Singular points on the equator: zeros of the U1 field on v = 0 plus
    the origin of U2 when it is singular."""
    import numpy as np

    from .local import NonHyperbolicError, classify_hyperbolic

    def _kind(jac) -> str:
        try:
            return classify_hyperbolic(jac)
        except NonHyperbolicError:
            return "degenerate"

    out: list[InfinitePoint] = []
    ch1 = compactify(sys, "U1").system
    # restriction of u' to the equator v = 0
    poly = [float(ch1.coeff_p(i, 0)) for i in range(ch1.degree + 1)]
    if not any(poly):
        raise ValueError("the equator of U1 consists entirely of singular points")
    roots = np.roots(poly[::-1]) if len(poly) > 1 else np.array([])
    reals = sorted({round(float(r.real), 12) for r in roots if abs(r.imag) <= 1e-9})
    for u0 in reals:
        jac = ch1.jacobian_at(u0, 0.0)
        out.append(
            InfinitePoint(
                chart="U1",
                location=(float(u0), 0.0),
                kind=_kind(jac),
                linear_part=tuple(tuple(float(v) for v in row) for row in jac),
            )
        )

    ch2 = compactify(sys, "U2").system
    f1, f2 = ch2(0.0, 0.0)
    if float(f1) == 0.0 and float(f2) == 0.0:
        jac = ch2.jacobian_at(0.0, 0.0)
        out.append(
            InfinitePoint(
                chart="U2",
                location=(0.0, 0.0),
                kind=_kind(jac),
                linear_part=tuple(tuple(float(v) for v in row) for row in jac),
            )
        )
    return out


def blowup_horizontal(charted: ChartSystem) -> tuple[BlowupSystem, BlowupSystem]:
    """Horizontal blow-up u = v * w1 of a U2-charted system.

    Returns the raw blow-up field in (w1, v) and the field with the common
    factor v cancelled from every monomial (time rescaled).
    """
    if charted.chart != "U2":
        raise ValueError(f"horizontal blow-up expects chart U2, got {charted.chart!r}")
    # u^i v^j with u = v w1 becomes w1^i v^{i+j}
    f1s: Terms = {}
    f2s: Terms = {}
    for (i, j), a in charted.system.terms_p().items():
        _add_term(f1s, (i, i + j), a)
    for (i, j), a in charted.system.terms_q().items():
        _add_term(f2s, (i, i + j), a)
    # w1' = (u' - w1 v')/v evaluated on u = v w1
    num: Terms = dict(f1s)
    for (i, j), a in f2s.items():
        _add_term(num, (i + 1, j), -a)
    raw_w1 = _divide_by_second_var(num)
    raw = PolySystem(raw_w1, f2s)
    rescaled = PolySystem(
        _divide_by_second_var(raw_w1), _divide_by_second_var(f2s)
    )
    return (
        BlowupSystem("raw", raw, time_factor=0),
        BlowupSystem("rescaled", rescaled, time_factor=1),
    )


def classify_blowup_origin(rescaled: BlowupSystem):
    """Classify the origin of the rescaled blow-up plane (semi-hyperbolic).

    For the family the axis flows are w1' = -w1 on v = 0 and
    v' = b*delta*v^2 > 0 on w1 = 0, orienting the saddle-node sectors.
    """
    from .local import classify_semihyperbolic

    if rescaled.stage != "rescaled":
        raise ValueError("expected the rescaled blow-up system")
    kind = classify_semihyperbolic(rescaled.system, (0.0, 0.0))
    eig = _sorted_eig(rescaled.system.linear_part())
    return SingularPoint("O2", "U2", (0.0, 0.0), kind, eig)


def family_system(p: Params) -> PolySystem:
    """The predator-prey family as a degree-3 polynomial system."""
    b, c, d = p.b, p.c, p.delta
    p_terms: Terms = {(1, 0): b, (2, 0): 1 - b, (3, 0): -1, (1, 1): -1}
    q_terms: Terms = {(1, 1): c - d, (0, 1): -d * b}
    return PolySystem(p_terms, q_terms)


_O2_SECTOR = SectorData("hyperbolic", ("infinity-equator", "x=0-axis"))
_FAMILY_INFINITE_POINTS = (
    InfinitePoint("U1", (0.0, 0.0), "unstable-node", linear_part=((1.0, 0.0), (0.0, 1.0))),
    InfinitePoint("U2", (0.0, 0.0), "degenerate", _O2_SECTOR, ((0.0, 0.0), (0.0, 0.0))),
)


def family_infinite_points(p: Params) -> list[InfinitePoint]:
    """The family's equator points O1 and O2, the same for every ``p``.

    On the equator of U1 the field is u' = u, so O1 is an unstable node with
    linear part I.  The U2 field has no linear part at its origin, so O2 is
    degenerate; its blow-up (:func:`classify_blowup_origin`) gives one
    hyperbolic sector in the quadrant, bounded by the equator and x = 0.
    Tests check both points against :func:`infinite_singular_points`.
    """
    return list(_FAMILY_INFINITE_POINTS)
