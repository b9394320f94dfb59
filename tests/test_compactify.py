"""Symbolic certificates for the charts, O1, O2 and P1; PolySystem and chart transitions of ``poincare_engine``.

The U1 and U2 fields are built here from the affine family by the Poincare
formulas, and the field of the log chart (u, v) = (ln x, ln y) by pushing the
affine field forward, with sympy, for symbolic positive (b, c, delta).  The
tests prove, for every positive parameter set and with no sampled triples:

(a) the integrator's field ``numerics._rhs`` is the affine field pushed forward
    into the log chart, divided by w = 1 + x^2 + y and times the time direction,
    with dt/ds = 1/w as its third component; the chart map has Jacobian
    determinant 1/(x y) > 0 on the open quadrant and w > 0, so the integrator
    keeps the orientation;
(b) each Poincare chart field is v^2 times the affine field pushed forward, so
    the charts keep the orientation off the equator;
(c) on the equator of U1 the flow is u' = u, O1 has linear part I, with
    eigenvalues 1 and 1, and O2 linear part 0;
(d) the horizontal blow-up u = v w1 of O2, with one factor v divided out, has
    a saddle-node at its origin, which gives O2's one hyperbolic sector;
(e) on the case-2 surface c - delta = b delta, P1 is a saddle-node;
(f) the Taylor coefficients that ``local._taylor_at`` writes out for the
    from-scratch ell1 cross-check are those of the family at every point.

The golden coefficient tables below are what the acceptance test reads.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy as sp

import kportrait.numerics as numerics
from kportrait import Params, SectorData, family_infinite_points
from kportrait.local import _taylor_at
from poincare_engine import ChartDomainError, PolySystem, chart_transition, family_system, vector_field

B, C, D = sp.symbols("b c delta", positive=True)
X, Y, U, V, W1 = sp.symbols("x y u v w1")
LU, LV = sp.symbols("u v", real=True)  # the log chart
SYMBOLIC = Params(B, C, D)
# the affine family, written out independently of the package
P = X * (-X**2 + (1 - B) * X - Y + B)
Q = Y * ((C - D) * X - D * B)


def field(sys, x=X, y=Y):
    """The two components of a PolySystem as sympy polynomials in (x, y)."""
    return tuple(
        sp.expand(sum(a * x**i * y**j for (i, j), a in terms.items()))
        for terms in (sys.terms_p(), sys.terms_q())
    )


def same(f, g) -> bool:
    return all(sp.expand(a - b) == 0 for a, b in zip(f, g, strict=True))


def poincare_chart(chart):
    """The degree-3 family in U1 (x = 1/v, y = u/v) or U2 (x = u/v, y = 1/v):

    U1: u' = v^3 (Q - u P),  v' = -v^4 P;   U2: u' = v^3 (P - u Q),  v' = -v^4 Q.
    """
    if chart == "U1":
        at = {X: 1 / V, Y: U / V}
        p, q = P.subs(at), Q.subs(at)
        return sp.expand(V**3 * (q - U * p)), sp.expand(-(V**4) * p)
    at = {X: U / V, Y: 1 / V}
    p, q = P.subs(at), Q.subs(at)
    return sp.expand(V**3 * (p - U * q)), sp.expand(-(V**4) * q)


def log_chart():
    """The affine family pushed forward by (x, y) -> (ln x, ln y), at (x, y) = (e^u, e^v), the
    weight w = 1 + x^2 + y of the integrator's clock ds = w dt there, and the Jacobian
    determinant of the chart map on the open quadrant."""
    xp, yp = sp.symbols("x y", positive=True)
    jacobian = sp.Matrix([sp.log(xp), sp.log(yp)]).jacobian([xp, yp])
    at = {xp: sp.exp(LU), yp: sp.exp(LV)}
    pushed = (jacobian * sp.Matrix([P, Q]).subs({X: xp, Y: yp}, simultaneous=True)).subs(at)
    return [sp.expand(f) for f in pushed], (1 + xp**2 + yp).subs(at), jacobian.det()


def integrator_field_is_the_log_chart(sgn) -> bool:
    """Whether ``numerics._rhs`` in direction ``sgn`` is ``sgn``/w times the log chart field, with
    dt/ds = 1/w as its third component."""
    pushed, w, _ = log_chart()
    *field_uv, dt_ds = numerics._rhs(B, C, D, sgn, exp=sp.exp)(LU, LV)
    return all(sp.simplify(f * w - sgn * g) == 0 for f, g in zip(field_uv, pushed, strict=True)) and sp.simplify(dt_ds * w - 1) == 0


def horizontal_blowup():
    """The U2 field after u = v w1: the raw field in (w1, v), with
    w1' = (u' - w1 v')/v, and the field with one factor v divided out."""
    du, dv = (f.subs(U, V * W1) for f in poincare_chart("U2"))
    raw = (sp.expand(sp.cancel((du - W1 * dv) / V)), sp.expand(dv))
    return raw, tuple(sp.expand(sp.cancel(f / V)) for f in raw)


def golden_u1(p):
    b, c, d = p.b, p.c, p.delta
    return PolySystem(
        {(1, 0): 1, (1, 1): b + c - d - 1, (2, 1): 1, (1, 2): -b * (d + 1)},
        {(0, 1): 1, (0, 2): b - 1, (1, 2): 1, (0, 3): -b},
    )


def golden_u2(p):
    b, c, d = p.b, p.c, p.delta
    return PolySystem(
        {(3, 0): -1, (2, 1): d + 1 - b - c, (1, 2): b * (d + 1), (1, 1): -1},
        {(1, 2): d - c, (0, 3): b * d},
    )


def golden_blowup_raw(p):
    b, c, d = p.b, p.c, p.delta
    return PolySystem(
        {(3, 2): -1, (2, 2): 1 - b, (1, 2): b, (1, 1): -1},
        {(1, 3): d - c, (0, 3): b * d},
    )


def golden_blowup_rescaled(p):
    b, c, d = p.b, p.c, p.delta
    return PolySystem(
        {(3, 1): -1, (2, 1): 1 - b, (1, 1): b, (1, 0): -1},
        {(1, 2): d - c, (0, 2): b * d},
    )


def test_family_system_shape():
    assert same(field(family_system(SYMBOLIC)), (P, Q))
    assert same(field(family_system(SYMBOLIC)), vector_field(SYMBOLIC, (X, Y)))


def test_sparse_terms_ascend_and_tables_are_derived():
    p = Params(F(1, 2), F(1), F(1, 4))
    b, c, d = p.b, p.c, p.delta
    sys = family_system(p)

    assert dict(sys.terms_p()) == {(1, 0): b, (1, 1): -1, (2, 0): 1 - b, (3, 0): -1}
    assert dict(sys.terms_q()) == {(0, 1): -d * b, (1, 1): c - d}
    for s in (sys, golden_u1(p), golden_u2(p)):
        for terms in (s.terms_p(), s.terms_q()):
            assert list(terms) == sorted(terms)
            assert 0 not in terms.values()
    with pytest.raises(TypeError):
        sys.terms_p()[(0, 0)] = 1
    # the constructor canonicalises, so equal systems compare equal
    raw = PolySystem({(1, 0): 1, (0, 0): 0, (0, 1): 2}, {(2, 2): 0})
    assert list(raw.terms_p().items()) == [((0, 1), 2), ((1, 0), 1)]
    assert raw.terms_q() == {}
    assert raw == PolySystem({(0, 1): 2, (1, 0): 1}, {})


def test_charted_systems_match_goldens_exactly():
    for chart, golden in (("U1", golden_u1), ("U2", golden_u2)):
        assert same(poincare_chart(chart), field(golden(SYMBOLIC), U, V))


def test_integrator_field_is_the_family_field_in_the_log_chart():
    # (a): sgn = -1 is the time-reversed field
    (du, dv), w, det = log_chart()
    for sgn in (1, -1):
        assert integrator_field_is_the_log_chart(sgn), sgn
    # the clock and the chart map keep the orientation: w > 0 and det = 1/(x y) > 0
    assert w.is_positive and det.is_positive
    # a Kolmogorov system: x' = x F and y' = y G push forward to (F, G)
    assert same((du, dv), [(-X**2 + (1 - B) * X - Y + B).subs({X: sp.exp(LU), Y: sp.exp(LV)}), ((C - D) * sp.exp(LU) - D * B)])


def test_chart_consistency_with_affine_field():
    # (b): the chart maps are (x, y) -> (y/x, 1/x) and (x/y, 1/y); v^2 > 0 off
    # the equator, so each chart field is a positive multiple of the affine one
    maps = {
        "U1": ((Y / X, 1 / X), {X: 1 / V, Y: U / V}),
        "U2": ((X / Y, 1 / Y), {X: U / V, Y: 1 / V}),
    }
    for chart, (chart_map, inverse) in maps.items():
        pushed = (sp.Matrix(chart_map).jacobian([X, Y]) * sp.Matrix([P, Q])).subs(inverse)
        assert same(poincare_chart(chart), [V**2 * f for f in pushed]), chart


def test_family_infinite_points():
    # (c)
    u1, u2 = poincare_chart("U1"), poincare_chart("U2")
    # the equator of U1 flows by u' = u, so u = 0 is its one singular point;
    # the U2 origin, the y-direction, is singular too
    assert [f.subs(V, 0) for f in u1] == [U, 0]
    assert [f.subs({U: 0, V: 0}) for f in u2] == [0, 0]
    o1, o2 = family_infinite_points(SYMBOLIC)
    linears = [sp.Matrix(charted).jacobian([U, V]).subs({U: 0, V: 0}) for charted in (u1, u2)]
    # linear part I at O1, an unstable star node, and 0 at O2, which is degenerate
    assert linears == [sp.eye(2), sp.zeros(2)]
    for point, linear in zip((o1, o2), linears):
        # no parameter survives, so the eigenvalues of the linear part hold for every triple
        eigs = [complex(ev) for ev, mult in linear.eigenvals().items() for _ in range(mult)]
        assert eigs == list(point.eigenvalues), point.name
    assert (o1.name, o1.chart, o1.location, o1.kind, o1.sector) == ("O1", "U1", (0.0, 0.0), "unstable-node", None)
    assert (o2.name, o2.chart, o2.location, o2.kind) == ("O2", "U2", (0.0, 0.0), "degenerate")


def test_blowup_golden_coefficients():
    raw, rescaled = horizontal_blowup()
    assert same(raw, field(golden_blowup_raw(SYMBOLIC), W1, V))
    assert same(rescaled, field(golden_blowup_rescaled(SYMBOLIC), W1, V))


def test_blowup_rescaling_identity():
    # v * (rescaled table) = raw table, coefficient for coefficient
    rescaled = field(golden_blowup_rescaled(SYMBOLIC), W1, V)
    assert same(field(golden_blowup_raw(SYMBOLIC), W1, V), [V * f for f in rescaled])


def test_blowup_round_trip_polynomial_identity():
    # substituting u = v*w1 into the U2 table gives u' = v*w1' + w1*v' and v' = v'
    f1, f2 = (f.subs(U, V * W1) for f in field(golden_u2(SYMBOLIC), U, V))
    g1, g2 = field(golden_blowup_raw(SYMBOLIC), W1, V)
    assert same((f1, f2), (V * g1 + W1 * g2, g2))


def test_blowup_origin_classification():
    # (d)
    _, (dw1, dv) = horizontal_blowup()
    assert sp.Matrix([dw1, dv]).jacobian([W1, V]).subs({W1: 0, V: 0}) == sp.diag(-1, 0)
    # w1' = -w1 on the equator v = 0; the axis w1 = 0 (x = 0) is invariant, so it
    # is the centre manifold, and on it v' = b delta v^2 with b delta > 0
    assert sp.expand(dw1.subs(V, 0)) == -W1
    assert dw1.subs(W1, 0) == 0
    assert sp.expand(dv.subs(W1, 0)) == B * D * V**2 and (B * D).is_positive
    # so the origin is a saddle-node; in the quarter w1, v > 0 orbits arrive
    # along the equator and leave along x = 0: one hyperbolic sector
    _, o2 = family_infinite_points(SYMBOLIC)
    assert o2.sector == SectorData("hyperbolic", ("infinity-equator", "x=0-axis"))


def test_p1_is_a_saddle_node_on_the_case2_surface():
    # (e)
    on_surface = {C: D + B * D}
    p, q = P.subs(on_surface), Q.subs(on_surface)
    linear = sp.Matrix([p, q]).jacobian([X, Y]).subs({X: 1, Y: 0})
    assert set(linear.eigenvals()) == {0, -(1 + B)}
    assert linear.row(1) == sp.zeros(1, 2)
    (centre,) = linear.nullspace()
    slope = sp.simplify(centre[0] / centre[1])
    assert sp.simplify(slope + 1 / (1 + B)) == 0
    # the centre manifold is x = 1 + slope*y + O(y^2); both partials of y' vanish
    # at P1, so its O(y^2) part does not reach the y^2 term of the reduced flow
    reduced = sp.expand(q.subs(X, 1 + slope * Y))
    assert reduced.coeff(Y, 1) == 0
    a2 = reduced.coeff(Y, 2)
    assert sp.simplify(a2 + B * D / (1 + B)) == 0 and a2.is_negative


def test_taylor_coefficients_are_the_taylor_expansion_of_the_field():
    # (f): at every (x0, y0), the coefficients give (P, Q)(x0 + u, y0 + v) minus its value at (x0, y0)
    x0, y0 = sp.symbols("x0 y0")
    jacobian, quad, cubic = _taylor_at(B, C, D, x0, y0)
    monomials = ([U, V], [U**2, U * V, V**2], [U**3, U**2 * V, U * V**2, V**3])
    expansion = [
        sum(a * m for coeffs, ms in zip(rows, monomials) for a, m in zip(coeffs, ms, strict=True))
        for rows in zip(jacobian, quad, cubic)
    ]
    shifted = [f.subs({X: x0 + U, Y: y0 + V}, simultaneous=True) - f.subs({X: x0, Y: y0}) for f in (P, Q)]
    assert same([sp.nsimplify(e) for e in expansion], shifted)


def test_chart_transition_definitions():
    assert chart_transition("U3", "U1", (2, 3)) == (F(3, 2), F(1, 2))
    assert chart_transition("U1", "U3", (F(3, 2), F(1, 2))) == (2, 3)
    assert chart_transition("U3", "U2", (2, 3)) == (F(2, 3), F(1, 3))


def test_chart_transition_round_trips():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, v = rng.uniform(0.1, 3.0, 2)
        w = chart_transition("U2", "U1", chart_transition("U1", "U2", (u, v)))
        assert abs(w[0] - u) <= 1e-14 * max(1.0, abs(u))
        assert abs(w[1] - v) <= 1e-14 * max(1.0, abs(v))


def test_chart_transition_domain_errors():
    with pytest.raises(ChartDomainError):
        chart_transition("U3", "U1", (0, 3))
    with pytest.raises(ChartDomainError):
        chart_transition("U1", "U3", (1.0, 0.0))
    with pytest.raises(ChartDomainError):
        chart_transition("U1", "U2", (0.0, 1.0))


def test_polysystem_translate_and_linear_part():
    p = Params(F(1, 2), F(1), F(1, 4))
    shifted = family_system(p).translate(F(1), F(0))
    # P1 = (1, 0) is an equilibrium, so the shifted field has no constant term
    assert shifted.coeff_p(0, 0) == shifted.coeff_q(0, 0) == 0
    assert sp.Matrix(shifted.linear_part()).eigenvals() == {sp.Rational(-3, 2): 1, sp.Rational(5, 8): 1}


def test_translate_is_an_exact_taylor_shift():
    # every field of degree <= 4 and every shift at once
    x0, y0 = sp.symbols("x0 y0")
    generic = PolySystem(*({(i, j): sp.Symbol(f"{n}{i}{j}") for i in range(5) for j in range(5 - i)} for n in "pq"))
    assert same(field(generic.translate(x0, y0)), [f.subs({X: X + x0, Y: Y + y0}) for f in field(generic)])

    # rational input stays exact: a shift and its inverse give back the same terms
    rng = random.Random(67)

    def rand_q(hi=9):
        return F(rng.randint(-hi, hi), rng.randint(1, hi))

    def rand_terms():
        return {(i, j): rand_q() for i in range(5) for j in range(5 - i) if rng.random() < 0.6}

    for _ in range(40):
        poly = PolySystem(rand_terms(), rand_terms())
        x0, y0 = rand_q(), rand_q()
        assert poly.translate(x0, y0).translate(-x0, -y0) == poly
