"""Sparse polynomial fields and the Poincare chart maps: the test reference
for the charts U1, U2 and U3 and for the Taylor coefficients of the Hopf
cross-check, with the family's field and Jacobian at a point, which the
package itself does not evaluate.

Polynomials are sparse maps from exponent pairs (i, j) to nonzero
coefficients; arithmetic follows the input number types, so rational inputs
stay exact and sympy symbols stay symbolic.  U3 is the affine plane, U1
covers the x-directions at infinity and U2 the y-directions.  The package
does not integrate in these charts (it runs in the log chart of
``kportrait.numerics`` on a weighted clock); ``test_compactify`` builds the
U1 and U2 certificates on this engine, and ``test_local`` checks
``local._taylor_at`` against ``PolySystem.translate`` to the bit.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Mapping

from kportrait.model import Number, Params, _is_exact

Terms = dict[tuple[int, int], Number]


class ChartDomainError(ValueError):
    """A chart transition was requested at a point outside its domain."""


def _shift_terms(terms: Terms, x0: Number, y0: Number) -> Terms:
    """Terms of the polynomial at (u + x0, v + y0); zero sums are left to PolySystem to drop."""
    out: Terms = {}
    for (i, j), a in terms.items():
        for k in range(i + 1):
            ak = a * comb(i, k) * x0 ** (i - k)
            for l in range(j + 1):
                out[k, l] = out.get((k, l), 0) + ak * comb(j, l) * y0 ** (j - l)
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

    def terms_p(self) -> Mapping[tuple[int, int], Number]:
        return MappingProxyType(self._p)

    def terms_q(self) -> Mapping[tuple[int, int], Number]:
        return MappingProxyType(self._q)

    def coeff_p(self, i: int, j: int) -> Number:
        return self._p.get((i, j), 0)

    def coeff_q(self, i: int, j: int) -> Number:
        return self._q.get((i, j), 0)

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


def family_system(p: Params) -> PolySystem:
    """The predator-prey family as a degree-3 polynomial system."""
    b, c, d = p.b, p.c, p.delta
    p_terms: Terms = {(1, 0): b, (2, 0): 1 - b, (3, 0): -1, (1, 1): -1}
    q_terms: Terms = {(1, 1): c - d, (0, 1): -d * b}
    return PolySystem(p_terms, q_terms)


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
    (j11, j12), (j21, j22) = j = (-3 * x * x + 2 * (1 - b) * x - y + b, -x), ((c - d) * y, (c - d) * x - d * b)
    if _is_exact(b, c, d, x, y):
        return j
    return (float(j11), float(j12)), (float(j21), float(j22))
