"""Chart engine, transitions, equator points and the horizontal blow-up."""

import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from kportrait import (
    ChartDomainError,
    Params,
    PolySystem,
    blowup_horizontal,
    chart_transition,
    classify_blowup_origin,
    compactify,
    family_infinite_points,
    family_system,
    infinite_singular_points,
    vector_field,
)


def random_rational_params(rng, hi=4):
    vals = []
    for _ in range(3):
        den = int(rng.integers(1, 20))
        num = int(rng.integers(1, hi * den + 1))
        vals.append(F(num, den))
    return Params(*vals)


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
    p = Params(F(1, 2), F(1), F(1, 4))
    sys = family_system(p)
    assert sys.degree == 3
    assert sys(F(1, 6), F(5, 9)) == (0, 0)
    assert sys(2, 3) == vector_field(p, (2, 3))


def test_sparse_terms_ascend_and_tables_are_derived():
    p = Params(F(1, 2), F(1), F(1, 4))
    b, c, d = p.b, p.c, p.delta
    sys = family_system(p)

    assert dict(sys.terms_p()) == {(1, 0): b, (1, 1): -1, (2, 0): 1 - b, (3, 0): -1}
    assert dict(sys.terms_q()) == {(0, 1): -d * b, (1, 1): c - d}
    for chart, golden in (("U1", golden_u1(p)), ("U2", golden_u2(p))):
        ch = compactify(sys, chart).system
        assert dict(ch.terms_p()) == dict(golden.terms_p())
        assert dict(ch.terms_q()) == dict(golden.terms_q())
    for s in (sys, compactify(sys, "U1").system, compactify(sys, "U2").system):
        for terms in (s.terms_p(), s.terms_q()):
            assert list(terms) == sorted(terms)
            assert 0 not in terms.values()
    with pytest.raises(TypeError):
        sys.terms_p()[(0, 0)] = 1
    # the constructor canonicalises, so equal systems hash alike
    raw = PolySystem({(1, 0): 1, (0, 0): 0, (0, 1): 2}, {(2, 2): 0})
    assert list(raw.terms_p().items()) == [((0, 1), 2), ((1, 0), 1)]
    assert raw.terms_q() == {} and raw.degree == 1
    twin = PolySystem({(0, 1): 2, (1, 0): 1}, {})
    assert raw == twin and hash(raw) == hash(twin)
    assert hash(compactify(sys, "U1")) == hash(compactify(family_system(p), "U1"))


def test_u3_chart_is_identity():
    sys = family_system(Params(F(1, 2), F(1), F(1, 4)))
    ch = compactify(sys, "U3")
    assert dict(ch.system.terms_p()) == dict(sys.terms_p())
    assert dict(ch.system.terms_q()) == dict(sys.terms_q())


def test_compactify_rejects_degenerate_degree():
    zero = PolySystem({}, {})
    with pytest.raises(ValueError):
        compactify(zero, "U1")


def test_charted_systems_match_goldens_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_rational_params(rng)
        sys = family_system(p)
        u1 = compactify(sys, "U1").system
        u2 = compactify(sys, "U2").system
        assert u1.terms_p() == golden_u1(p).terms_p()
        assert u1.terms_q() == golden_u1(p).terms_q()
        assert u2.terms_p() == golden_u2(p).terms_p()
        assert u2.terms_q() == golden_u2(p).terms_q()
        assert u1.degree <= sys.degree + 1
        assert u2.degree <= sys.degree + 1


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


def test_chart_consistency_with_affine_field():
    # pushing the U1 field back to affine coordinates must give a positive
    # multiple of the affine field
    p = Params(0.5, 1.0, 0.25)
    sys = family_system(p)
    u1 = compactify(sys, "U1").system
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = rng.uniform(0.2, 6.0, 2)
        u, v = y / x, 1.0 / x
        du, dv = (float(t) for t in u1(u, v))
        # x = 1/v, y = u/v
        xdot = -dv / v**2
        ydot = (du * v - u * dv) / v**2
        fx, fy = vector_field(p, (x, y))
        cross = xdot * fy - ydot * fx
        dot = xdot * fx + ydot * fy
        assert dot > 0
        assert abs(cross) <= 1e-10 * math.hypot(xdot, ydot) * math.hypot(fx, fy)


def test_family_infinite_points():
    rng = np.random.default_rng(8)
    params = [Params(*trip) for trip in [(0.5, 1.0, 0.25), (2.0, 1.0, 1.0), (3.3, 0.7, 0.5)]]
    params += [random_rational_params(rng) for _ in range(30)]
    # exact points on the case-2, A = 0 and S2 surfaces
    params += [Params(F(1, 2), F(3, 2), F(1)), Params(F(3, 5), F(1), F(1, 4))]
    params += [Params(F(19, 11), F(1), F(1, 10))]
    for p in params:
        pts = family_infinite_points(p)
        generic = infinite_singular_points(family_system(p))
        assert [(q.chart, q.location, q.kind, q.linear_part) for q in pts] == [
            (q.chart, q.location, q.kind, q.linear_part) for q in generic
        ]
        assert len(pts) == 2
        o1, o2 = pts
        assert o1.chart == "U1" and o1.location == (0.0, 0.0)
        assert o1.kind == "unstable-node"
        assert o1.linear_part == ((1.0, 0.0), (0.0, 1.0))
        assert o2.chart == "U2" and o2.kind == "degenerate"
        assert o2.linear_part == ((0.0, 0.0), (0.0, 0.0))
        assert o2.sector_data is not None
        assert o2.sector_data.sector == "hyperbolic"
        assert set(o2.sector_data.separatrices) == {"infinity-equator", "x=0-axis"}


def test_family_infinite_points_do_no_chart_work(monkeypatch):
    # the package attribute kportrait.compactify is the function, not the module
    module = sys.modules["kportrait.compactify"]
    calls = {"compactify": 0, "infinite_singular_points": 0}
    for name in calls:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    family_infinite_points(Params(0.5, 1, 0.25))
    assert calls == {"compactify": 0, "infinite_singular_points": 0}


def test_infinite_points_degree_one_system():
    # x' = x, y' = -y: equator zeros at u = 0 in U1 plus the U2 origin
    toy = PolySystem({(1, 0): 1}, {(0, 1): -1})
    pts = infinite_singular_points(toy)
    charts = [(q.chart, q.location) for q in pts]
    assert ("U1", (0.0, 0.0)) in charts
    assert ("U2", (0.0, 0.0)) in charts


def test_blowup_golden_coefficients():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_rational_params(rng)
        raw, rescaled = blowup_horizontal(compactify(family_system(p), "U2"))
        assert raw.system.terms_p() == golden_blowup_raw(p).terms_p()
        assert raw.system.terms_q() == golden_blowup_raw(p).terms_q()
        assert rescaled.system.terms_p() == golden_blowup_rescaled(p).terms_p()
        assert rescaled.system.terms_q() == golden_blowup_rescaled(p).terms_q()
        assert raw.time_factor == 0 and rescaled.time_factor == 1


def test_blowup_rejects_other_charts():
    sys = family_system(Params(1, 1, 0.25))
    with pytest.raises(ValueError):
        blowup_horizontal(compactify(sys, "U1"))


def test_blowup_rescaling_identity():
    # v * (rescaled field) = raw field, coefficient for coefficient
    p = Params(F(2, 3), F(5, 4), F(1, 3))
    raw, rescaled = blowup_horizontal(compactify(family_system(p), "U2"))
    for (i, j), coef in rescaled.system.terms_p().items():
        assert raw.system.coeff_p(i, j + 1) == coef
    for (i, j), coef in rescaled.system.terms_q().items():
        assert raw.system.coeff_q(i, j + 1) == coef


def test_blowup_round_trip_polynomial_identity():
    # substituting u = v*w1 into the U2 field recovers v*w1' + w1*v' / v'
    rng = np.random.default_rng(8)
    p = Params(F(1, 2), F(1), F(1, 4))
    u2 = compactify(family_system(p), "U2").system
    raw, _ = blowup_horizontal(compactify(family_system(p), "U2"))
    for _ in range(25):
        w1 = F(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
        v = F(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
        f1, f2 = u2(v * w1, v)
        g1, g2 = raw.system(w1, v)
        assert f1 == v * g1 + w1 * g2
        assert f2 == g2


def test_blowup_origin_classification():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = random_rational_params(rng)
        _, rescaled = blowup_horizontal(compactify(family_system(p), "U2"))
        pt = classify_blowup_origin(rescaled)
        assert pt.kind == "saddle-node"
        assert pt.name == "O2"
        # axis flows orienting the sectors
        b, d = float(p.b), float(p.delta)
        sysf = rescaled.system
        w1dot_on_axis, _ = sysf(0.7, 0.0)
        assert float(w1dot_on_axis) == pytest.approx(-0.7)  # w1' = -w1 on v = 0
        _, vdot = sysf(0.0, 0.3)
        assert float(vdot) == pytest.approx(b * d * 0.09)  # v' = b*delta*v^2 on w1 = 0
        assert float(vdot) > 0


def test_polysystem_translate_and_linear_part():
    p = Params(F(1, 2), F(1), F(1, 4))
    sys = family_system(p)
    shifted = sys.translate(F(1), F(0))
    assert shifted(0, 0) == (0, 0)
    lin = shifted.linear_part()
    j = np.array([[float(lin[0][0]), float(lin[0][1])], [float(lin[1][0]), float(lin[1][1])]])
    eig = sorted(np.linalg.eigvals(j).real)
    assert eig == pytest.approx([-1.5, 0.625])


def test_translate_is_an_exact_taylor_shift():
    rng = random.Random(67)

    def rand_q(hi=9):
        return F(rng.randint(-hi, hi), rng.randint(1, hi))

    def rand_terms():
        return {(i, j): rand_q() for i in range(5) for j in range(5 - i) if rng.random() < 0.6}

    for _ in range(40):
        poly = PolySystem(rand_terms(), rand_terms())
        x0, y0 = rand_q(), rand_q()
        shifted = poly.translate(x0, y0)
        for _ in range(3):
            u, v = rand_q(), rand_q()
            assert shifted(u, v) == poly(u + x0, v + y0)
        assert shifted.translate(-x0, -y0) == poly
        assert shifted.degree == poly.degree
