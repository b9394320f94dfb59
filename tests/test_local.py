"""Equilibrium classification, Hopf pipeline, Dulac test, uniqueness conditions."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from kportrait import (
    AnalysisError,
    IllConditionedError,
    Params,
    classify_case,
    discriminants,
    dulac_check,
    finite_singular_points,
    hopf_analysis,
    integrate,
    interior_point,
    lyapunov_procedural,
    uniqueness_check,
)
from kportrait.local import _bform, _cform, _kuznetsov_data, _mu_omega, _taylor_at
from poincare_engine import PolySystem, family_system

# frozen spot values at (c, delta) = (1, 1/4):
# omega^2 = c^2 d (c-d)/(c+d)^3 = 0.096, ell1 = -d^2/(omega (c+d)^2)
OMEGA_SPOT = 0.30983866769659335
ELL1_SPOT = -0.12909944487358058


def cd_samples(rng, n):
    out = []
    while len(out) < n:
        c = float(10 ** rng.uniform(-1.0, 0.7))
        d = float(10 ** rng.uniform(-1.0, 0.7))
        if c == d:
            continue
        if c < d:
            c, d = d, c
        out.append((c, d))
    return out


def saddle_node_data(sys):
    """(l11, a2) for a field whose linear part at the origin is [[l11, l12], [0, 0]]:
    the centre direction is (s, 1) with s = -l12/l11, and on the centre manifold
    x = s y + O(y^2) the flow is y' = a2 y^2 + O(y^3).  The origin is a
    saddle-node when l11 != 0 and a2 != 0."""
    (l11, l12), row2 = sys.linear_part()
    assert row2 == (0, 0) and l11 != 0
    s = F(-l12) / l11  # stays exact for int and Fraction coefficients
    return l11, sys.coeff_q(2, 0) * s * s + sys.coeff_q(1, 1) * s + sys.coeff_q(0, 2)


def blowup_of_o2(sys):
    """The cubic ``sys`` in the chart U2 (x = u/v, y = 1/v, time rescaled by v^2),
    then blown up by u = v w1 with v^2 divided out of w1' and v out of v'."""
    du, dv = {}, {}
    for (i, j), a in sys.terms_p().items():
        du[(i, 3 - i - j)] = du.get((i, 3 - i - j), 0) + a
    for (i, j), a in sys.terms_q().items():
        du[(i + 1, 3 - i - j)] = du.get((i + 1, 3 - i - j), 0) - a
        dv[(i, 4 - i - j)] = dv.get((i, 4 - i - j), 0) - a
    # u^i v^k = w1^i v^(i+k); w1' = (u' - w1 v')/v
    dw1 = {}
    for (i, k), a in du.items():
        dw1[(i, i + k)] = dw1.get((i, i + k), 0) + a
    for (i, k), a in dv.items():
        dw1[(i + 1, i + k)] = dw1.get((i + 1, i + k), 0) - a
    assert all(k >= 2 for _, k in dw1) and all(i + k >= 1 for i, k in dv)
    return PolySystem(
        {(i, k - 2): a for (i, k), a in dw1.items()},
        {(i, i + k - 1): a for (i, k), a in dv.items()},
    )


def test_semihyperbolic_family_collision():
    # b delta = c - delta: P2 has merged with P1 = (1, 0)
    p = Params(1.0, 3.0, 1.5)
    assert saddle_node_data(family_system(p).translate(1.0, 0.0)) == (-2.0, -0.75)


def test_semihyperbolic_blowup_origin_many_params():
    rng = np.random.default_rng(31)
    for _ in range(50):
        # parameters on the collision surface b*delta = c - delta, held exactly
        c = F(float(rng.uniform(0.3, 4.0)))
        d = F(float(rng.uniform(0.1, 0.9))) * c
        b = (c - d) / d
        p = Params(b, c, d)
        sys = family_system(p)
        l11, a2 = saddle_node_data(sys.translate(1, 0))
        assert l11 == -(1 + b) and a2 == -b * d / (1 + b) and a2 != 0
        rescaled = blowup_of_o2(sys)
        assert rescaled.linear_part() == ((-1, 0), (0, 0))
        assert saddle_node_data(rescaled) == (-1, b * d) and b * d > 0


def test_hopf_spot_values():
    hd = hopf_analysis(1.0, 0.25)
    assert float(hd.b0) == pytest.approx(0.6, abs=1e-15)
    assert hd.dmu_db_at_b0 == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert hd.omega == pytest.approx(OMEGA_SPOT, rel=1e-12)
    assert _mu_omega(0.6, 1.0, 0.25)[1] == pytest.approx(OMEGA_SPOT, rel=1e-12)
    assert hd.ell1 == pytest.approx(ELL1_SPOT, rel=1e-10)
    assert hd.equilibrium == (pytest.approx(0.2), pytest.approx(0.64))
    # exact-mode b0
    assert hopf_analysis(F(1), F(1, 4)).b0 == F(3, 5)


def test_hopf_closed_forms_hold_for_every_admissible_pair():
    # at b0 = (c - delta)/(c + delta), where P2 = (delta/(c + delta), c^2/(c + delta)^2): the
    # eigenvectors q and p, <p, q> = 1, g20, g11, g21 and ell1 of the hopf_analysis docstring,
    # for symbolic delta > 0 and c = delta + eps with eps > 0, so that sqrt(c - delta) simplifies
    import itertools

    import sympy as sp

    d, eps = sp.symbols("delta epsilon", positive=True)
    x, y = sp.symbols("x y")
    c = d + eps
    b0 = (c - d) / (c + d)
    field = (x * (-x**2 + (1 - b0) * x - y + b0), y * ((c - d) * x - d * b0))
    at = {x: d / (c + d), y: c**2 / (c + d) ** 2}
    J = sp.Matrix(2, 2, lambda i, j: sp.diff(field[i], (x, y)[j]).subs(at))
    w = sp.sqrt(J.det())
    q = sp.Matrix([-d / (c + d), sp.I * w])
    p = sp.Matrix([-(c + d) / (2 * d), sp.I / (2 * w)])
    gamma = d**2 / (c + d) ** 2

    def form(*vs):
        """<p, D^k f(P2)(v1, ..., vk)> for the k vectors ``vs``."""
        total = 0
        for i, f in enumerate(field):
            for idx in itertools.product(range(2), repeat=len(vs)):
                term = sp.diff(f, *[(x, y)[k] for k in idx]).subs(at)
                for v, k in zip(vs, idx):
                    term *= v[k]
                total += sp.conjugate(p[i]) * term
        return total

    g20, g11, g21 = form(q, q), form(q, q.conjugate()), form(q, q, q.conjugate())
    forms = {
        "g20": (g20, gamma - d * (c - d) / (c + d) - sp.I * w),
        "g11": (g11, gamma),
        "g21": (g21, -3 * gamma),
        "ell1": (sp.re(sp.I * g20 * g11 + w * g21) / (2 * w**2), -gamma / w),
    }
    residuals = [*(J * q - sp.I * w * q), *(J.T * p + sp.I * w * p), (p.conjugate().T * q)[0] - 1]
    residuals += [got - want for got, want in forms.values()]
    assert [sp.simplify(r) for r in residuals] == [0] * len(residuals)
    # and hopf_analysis evaluates these forms
    hd = hopf_analysis(1.0, 0.25)
    point = {d: sp.Rational(1, 4), eps: sp.Rational(3, 4)}
    for name, (_, want) in forms.items():
        assert complex(getattr(hd, name)) == pytest.approx(complex(want.subs(point)), rel=1e-12), name


def test_hopf_rejects_c_below_delta():
    with pytest.raises(ValueError):
        hopf_analysis(0.25, 1.0)


def test_procedural_ell1_rejects_c_below_delta():
    # the same verdict, and the same error type, as hopf_analysis on the same input
    for c, delta in ((0.25, 1.0), (1.0, 1.0), (F(1, 4), F(1))):
        with pytest.raises(AnalysisError, match="requires c > delta"):
            lyapunov_procedural(c, delta)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hopf_analysis(F(10**400), 1),
        lambda: interior_point(Params(F(1, 1000), F(10**400), 1)),
        lambda: dulac_check(Params(F(3, 10), F(10**400), F(1, 4))),
        lambda: Params(F(3, 10), F(10**400), F(1, 4))._float,
        lambda: Params(F(1, 10**400), 1, F(1, 4))._float,
        lambda: integrate(Params(F(3, 10), F(10**400), F(1, 4)), (0.5, 0.5)),
        lambda: integrate(Params(F(1, 10**400), 1, F(1, 4)), (0.5, 0.5)),
    ],
    ids=[
        "hopf_analysis",
        "interior_point",
        "dulac_check",
        "c-overflows",
        "b-underflows",
        "integrate-c-overflows",
        "integrate-b-underflows",
    ],
)
def test_exact_input_whose_float_image_overflows_is_an_analysis_error(call):
    with pytest.raises(AnalysisError):
        call()


@pytest.mark.parametrize(
    "c, delta",
    [(F(10**400), 1), (1e200, 1.0), (1e160, 1.0)],
    ids=["float-image-overflows", "c+delta-squared-overflows-1e200", "c+delta-squared-overflows-1e160"],
)
def test_procedural_ell1_out_of_float_range_is_an_analysis_error(c, delta):
    # hopf_analysis raises AnalysisError on the same input; the cross-check follows the same rule
    with pytest.raises(AnalysisError, match="range of doubles"):
        lyapunov_procedural(c, delta)


def test_exact_input_gives_what_float_images_give(monkeypatch):
    # hopf_analysis, the from-scratch ell1 and the P2 eigenvalues take the float image of a
    # rational as int / int; with float() in its place every result and error is the same
    import kportrait.local
    import kportrait.model

    rng = random.Random(89)

    def rational():  # 17 significant digits at 10^e, e near 0 or near +-300
        e = rng.choice([rng.randint(-3, 3), rng.randint(-330, -290), rng.randint(290, 330)])
        return F(rng.randint(10**16, 10**17), 10**17) * F(10) ** e

    def outcome(call, *args):
        try:
            r = call(*args)
        except (AnalysisError, IllConditionedError) as err:
            return type(err).__name__, str(err)
        return repr([v for v in r if not callable(v)] if isinstance(r, tuple) else r)

    pairs = [sorted((rational(), rational()), reverse=True) for _ in range(150)]
    calls = [(f, c, d) for c, d in pairs for f in (hopf_analysis, lyapunov_procedural)]
    calls += [(lambda *v: finite_singular_points(Params(*v)), rational(), c, d) for c, d in pairs]
    got = [outcome(*call) for call in calls]
    for module in (kportrait.local, kportrait.model):
        monkeypatch.setattr(module, "_to_float", float)
    assert got == [outcome(*call) for call in calls]
    kinds = [g[0] if isinstance(g, tuple) else "P2" if "P2" in g else "ok" for g in got]
    assert min(kinds.count(k) for k in ("AnalysisError", "P2", "ok")) >= 10, kinds


@pytest.mark.parametrize(
    "call, at",
    [
        (lambda: hopf_analysis(F(10**400), 1), "(b, c, delta) = (1.0, ~1e+400, 1.0)"),
        (lambda: lyapunov_procedural(F(10**400), F(1, 10**400)), "(c, delta) = (~1e+400, ~1e-400)"),
        (lambda: Params(F(1, 10**400), F(3, 10), 1)._float, "(b, c, delta) = (~1e-400, 0.3, 1.0)"),
        (lambda: Params(F(3, 10**330), F(10**400, 7), F(1, 4))._float, "(b, c, delta) = (~1e-330, ~1e+399, 0.25)"),
        (lambda: hopf_analysis(1e200, 1.0), "(b, c, delta) = (1.0, 1e+200, 1.0)"),  # float input, as before
    ],
)
def test_range_errors_name_each_value_in_one_short_line(call, at):
    # a rational by its float repr when that is finite and nonzero, else by its order of magnitude
    with pytest.raises(AnalysisError) as info:
        call()
    msg = str(info.value)
    assert msg == f"float arithmetic leaves the range of doubles at {at}"
    assert "\n" not in msg and len(msg) < 200


def test_hopf_mu_zero_and_sign_change():
    rng = np.random.default_rng(37)
    for c, d in cd_samples(rng, 50):
        b0 = float(hopf_analysis(c, d).b0)
        assert abs(_mu_omega(b0, c, d)[0]) <= 1e-12
        h = 1e-3 * b0
        assert _mu_omega(b0 - h, c, d)[0] > 0 > _mu_omega(b0 + h, c, d)[0]


def test_hopf_transversality_matches_finite_difference():
    rng = np.random.default_rng(41)
    for c, d in cd_samples(rng, 50):
        hd = hopf_analysis(c, d)
        b0 = float(hd.b0)
        h = 1e-6 * b0
        fd = (_mu_omega(b0 + h, c, d)[0] - _mu_omega(b0 - h, c, d)[0]) / (2 * h)
        assert hd.dmu_db_at_b0 == pytest.approx(-d / (2 * (c - d)), rel=1e-12)
        assert hd.dmu_db_at_b0 == pytest.approx(fd, rel=1e-6)


def test_hopf_eigenvector_normalisation():
    hd = hopf_analysis(1.0, 0.25)
    p = np.array(hd.p_vec)
    q = np.array(hd.q_vec)
    ip = np.vdot(p, q)
    assert abs(ip.real - 1.0) <= 1e-12 and abs(ip.imag) <= 1e-12
    assert q[0].real < 0 and q[0].imag == 0


def test_kuznetsov_eigenproblem_residual():
    kd = _kuznetsov_data(1.0, 0.25)
    a, q, w = np.array(kd["jacobian"]), np.array(kd["q"]), kd["omega"]
    assert np.linalg.norm(a @ q - 1j * w * q) <= 1e-12 * np.linalg.norm(q)


def test_g_coefficients_two_routes_match():
    rng = np.random.default_rng(43)
    for c, d in cd_samples(rng, 25):
        hd = hopf_analysis(c, d)
        kd = _kuznetsov_data(c, d)
        assert kd["omega"] == pytest.approx(hd.omega, rel=1e-10)
        assert kd["g20"] == pytest.approx(hd.g20, rel=1e-9, abs=1e-12)
        assert kd["g11"] == pytest.approx(hd.g11, rel=1e-9, abs=1e-12)
        assert kd["g21"] == pytest.approx(hd.g21, rel=1e-9, abs=1e-12)


def test_lyapunov_two_routes_agree_and_negative():
    rng = np.random.default_rng(47)
    for c, d in cd_samples(rng, 40):
        e_closed = hopf_analysis(c, d).ell1
        e_proc = lyapunov_procedural(c, d)
        assert e_closed < 0 and e_proc < 0
        assert abs(e_closed - e_proc) / abs(e_closed) <= 1e-8
    assert lyapunov_procedural(2.0, 0.5) < 0
    assert lyapunov_procedural(1.0, 0.25) == pytest.approx(ELL1_SPOT, rel=1e-8)


def test_taylor_coefficients_at_p2_equal_the_sparse_shift_to_the_bit():
    rng = random.Random(71)
    for _ in range(500):
        c, d = sorted((10 ** rng.uniform(-100, 100), 10 ** rng.uniform(-100, 100)), reverse=True)
        b0, x2, y2 = (c - d) / (c + d), d / (c + d), c * c / (c + d) ** 2
        shifted = family_system(Params(b0, c, d)).translate(x2, y2)
        got = [v for rows in _taylor_at(b0, c, d, x2, y2) for row in rows for v in row]
        want = [v for row in shifted.linear_part() for v in row] + [
            get(i, k - i) for k in (2, 3) for get in (shifted.coeff_p, shifted.coeff_q) for i in range(k, -1, -1)
        ]
        # float.hex tells 0.0 from -0.0, which == does not
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want], (c, d)


def test_hopf_forms_symmetry():
    kd = _kuznetsov_data(1.3, 0.4)
    quad, cubic = kd["quad"], kd["cubic"]
    rng = np.random.default_rng(53)
    for _ in range(10):
        e, h, z = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3))
        assert np.allclose(_bform(quad, e, h), _bform(quad, h, e))
        assert np.allclose(_cform(cubic, e, h, z), _cform(cubic, h, e, z))
        assert np.allclose(_cform(cubic, e, h, z), _cform(cubic, z, h, e))


def bform_reference(quad, e, h):
    """B(e, h), one generic row expression for every component of ``quad``."""
    (e0, e1), (h0, h1) = e, h
    return tuple(2 * a20 * e0 * h0 + a11 * (e0 * h1 + e1 * h0) + 2 * a02 * e1 * h1 for a20, a11, a02 in quad)


def cform_reference(cubic, e, h, z):
    """C(e, h, z), one generic row expression for every component of ``cubic``."""
    (e0, e1), (h0, h1), (z0, z1) = e, h, z
    return tuple(
        6 * a30 * e0 * h0 * z0
        + 2 * a21 * (e0 * h0 * z1 + e0 * h1 * z0 + e1 * h0 * z0)
        + 2 * a12 * (e0 * h1 * z1 + e1 * h0 * z1 + e1 * h1 * z0)
        + 6 * a03 * e1 * h1 * z1
        for a30, a21, a12, a03 in cubic
    )


def test_straight_line_forms_equal_the_generic_rows_to_the_bit():
    # the family's cubic is almost all zeros, so dense random tables are needed
    # to tell one coefficient from another; repr tells -0.0 from 0.0, and magnitudes
    # up to 1e60 keep every product finite, so == can see each bit
    rng = random.Random(59)

    def num():
        return rng.choice([0.0, -0.0, 1.0, rng.uniform(-3, 3), 10 ** rng.uniform(-60, 60)])

    def vec():
        return tuple(complex(num(), num()) for _ in range(2))

    kd = _kuznetsov_data(1.3, 0.4)
    tables = [(kd["quad"], kd["cubic"])] + [
        (tuple(tuple(num() for _ in range(3)) for _ in range(2)), tuple(tuple(num() for _ in range(4)) for _ in range(2)))
        for _ in range(300)
    ]
    for quad, cubic in tables:
        for _ in range(5):
            e, h, z = vec(), vec(), vec()
            for got, want in ((_bform(quad, e, h), bform_reference(quad, e, h)), (_cform(cubic, e, h, z), cform_reference(cubic, e, h, z))):
                assert got == want and repr(got) == repr(want), (quad, cubic, e, h, z)


def test_weak_focus_on_a_zero_boundary():
    # A = 0, B < 0 classifies as a weak stable focus without integration
    from kportrait import finite_singular_points

    p = Params(F(3, 5), F(1), F(1, 4))
    pts = finite_singular_points(p)
    assert pts[-1].name == "P2" and pts[-1].kind == "weak-stable-focus"
    assert hopf_analysis(1.0, 0.25).ell1 < 0  # stability certified by ell1


def test_dulac_function_clears_cases_4_6_and_7_of_cycles():
    # B = y^(gamma-1)/x gives div(B f) = -2B[(x - x*)^2 + x*(x* - a)] with x* - a = -A/(2 delta (c - delta)),
    # so div(B f) < 0 on the open quadrant when A < 0 and vanishes only on x = x* when A = 0
    import sympy as sp

    from kportrait.model import _ab

    x, y, b, c, d = sp.symbols("x y b c delta", positive=True)
    x_star, a = b * d / (c - d), (1 - b) / 2
    gamma = (4 * x_star - 1 + b) / (c - d)
    weight = y ** (gamma - 1) / x
    f, g = x * (-x**2 + (1 - b) * x - y + b), y * ((c - d) * x - d * b)
    div = sp.diff(weight * f, x) + sp.diff(weight * g, y)
    assert sp.simplify(div / weight + 2 * ((x - x_star) ** 2 + x_star * (x_star - a))) == 0
    A, _ = _ab(b, c, d)
    assert sp.simplify(x_star - a + A / (2 * d * (c - d))) == 0


def test_dulac_applicable_zone():
    rep = dulac_check(Params(2, 1, F(1, 5)))
    assert rep.applicable
    assert rep.margin == pytest.approx(-0.6)
    assert rep.conclusion == "no-periodic-orbits"
    # the docstring's weighted divergence 1 + c - d - 2x - b(d + x)/x is negative on the strip 0 < x <= 1
    b, c, d = 2, 1, 0.2
    for x in np.linspace(0.005, 1.0, 20):
        assert 1 + c - d - 2 * x - b * (d + x) / x < 0


def test_dulac_inconclusive_zone():
    rep = dulac_check(Params(0.5, 1, 0.25))
    assert not rep.applicable
    assert rep.margin == pytest.approx(1.125)
    assert rep.conclusion == "inconclusive"
    # exact point on 1 + c - d - b - b*d = 0, whose margin is -1.1e-16 in floats
    rep = dulac_check(Params(F(19, 11), F(1), F(1, 10)))
    assert rep.applicable is False
    assert rep.margin == 0.0
    assert rep.conclusion == "inconclusive"
    # the verdict is exact and needs no float image of the triple: b underflows to 0 here
    rep = dulac_check(Params(F(1, 10**400), 1, F(1, 4)))
    assert (rep.applicable, rep.margin, rep.conclusion) == (False, 1.75, "inconclusive")


def test_dulac_follows_the_banded_s2_sign():
    # the float image of that point: S2 to classify_case, so no proof either
    p = Params(19 / 11, 1.0, 0.1)
    assert (classify_case(p).region, classify_case(p).status) == ("S2", "conjectured")
    rep = dulac_check(p)
    assert (rep.applicable, rep.conclusion) == (False, "inconclusive")
    assert rep.margin == 1 + 1.0 - 0.1 - 19 / 11 - 19 / 11 * 0.1 != 0.0  # reported as computed
    # on portrait C the divergence test applies exactly when the label is proven
    rng = random.Random(5)
    for _ in range(100):
        b, d = 1 + F(rng.randint(1, 30), rng.randint(1, 10)), F(rng.randint(1, 40), 40)
        c = b + b * d + d - 1  # exact S2 point; b > 1 puts it in case 4, 6 or 7
        exact = dulac_check(Params(b, c, d))
        assert (exact.applicable, exact.margin, exact.conclusion) == (False, 0.0, "inconclusive")
        cf = float(c) * (1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -9))
        for q in (Params(*Params(b, c, d)._float), Params(float(b), cf, float(d))):
            label = classify_case(q)
            assert label.portrait == "C"
            assert dulac_check(q).applicable == (label.status == "proven")


def test_uniqueness_holds_in_cycle_zone():
    rep = uniqueness_check(Params(F(1, 2), F(1), F(1, 4)))
    assert rep.a == F(1, 4)
    assert rep.x_star == F(1, 6)
    assert rep.x_star < rep.a
    assert rep.lam == F(1, 8)
    assert rep.g_slope == F(3, 4)
    assert rep.all_hold


def test_uniqueness_random_cycle_zone():
    rng = np.random.default_rng(59)
    seen = 0
    while seen < 100:
        b, c, d = (float(v) for v in rng.uniform(0.05, 5.0, 3))
        p = Params(b, c, d)
        if not (c > d and 0 < b * d < c - d):
            continue
        if not discriminants(p).A > 0:
            continue
        seen += 1
        rep = uniqueness_check(p)
        assert rep.all_hold
        # condition (iii) is equivalent to A > 0
        assert rep.conditions_hold[2] == (discriminants(p).A > 0)


def test_uniqueness_holds_in_cases_3_and_5():
    # A > 0 forces b < (c - delta)/(c + delta) < 1, so the Kuang-Freedman conditions all
    # hold and the found cycle is the only one: the cases where the portrait reads "cycle"
    rng = random.Random(19)
    seen = 0
    while seen < 200:
        p = Params(10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1.5, 0.5))
        label = classify_case(p)
        if label.case in (3, 5) and not label.boundary:
            seen += 1
            assert uniqueness_check(p).all_hold, p
    for triple in ((F(1, 2), 1, F(1, 4)), (F(123, 10000), F(13174, 10000), F(12244, 10000)), (F(1, 100), 2, F(1, 2))):
        p = Params(*triple)
        assert classify_case(p).case in (3, 5)
        assert uniqueness_check(p).all_hold


def test_uniqueness_fails_outside():
    rep = uniqueness_check(Params(2, 1, F(1, 5)))
    assert rep.conditions_hold == (True, False, False, False)
    assert not rep.all_hold
    with pytest.raises(ValueError):
        uniqueness_check(Params(2, 1, 1))  # precondition 0 < b*d < c-d violated


def test_uniqueness_precondition_is_the_banded_case2_sign():
    # b*delta is one ulp below c - delta: inside the zero band, so case 2 with no P2
    p = Params(math.nextafter(3.0, 0), 1.0, 0.25)
    assert p.b * p.delta < p.c - p.delta
    assert classify_case(p).case == 2
    assert [q.name for q in finite_singular_points(p)] == ["P0", "P1"]
    with pytest.raises(AnalysisError, match="b\\*delta < c - delta"):
        uniqueness_check(p)


def _uniqueness_triples(rng, n):
    """Exact and float triples with 0 < b*delta < c - delta: random ones, and exact ones on
    A = 0 (x* = a) and at b = 1 (a = 0), where conditions (iii) and (ii) turn."""
    out = []
    while len(out) < n:
        c, d = F(rng.randint(2, 60), rng.randint(1, 30)), F(rng.randint(1, 60), rng.randint(1, 30))
        if not c > d:
            continue
        b = rng.choice(((c - d) / (c + d), F(1), (c - d) / d * F(rng.randint(1, 999), 1000)))
        if b * d < c - d:
            out += [(b, c, d), (float(b), float(c), float(d))]
    return out


def test_uniqueness_condition_ii_is_a_positive_and_iii_the_sign_of_a():
    # (ii) is read as L > b on the lift, which must be a > 0 of the reported a; on exact
    # input (iii) x* < a must be A > 0, as the docstring states
    rng = random.Random(28)
    seen = set()
    for b, c, d in _uniqueness_triples(rng, 1500):
        p = Params(b, c, d)
        rep = uniqueness_check(p)
        held = rep.conditions_hold
        assert held[1] == (rep.a > 0), (b, c, d)
        if p.is_exact:
            assert held[2] == (discriminants(p).A > 0), (b, c, d)
        seen.add((type(b), held[1:3]))
    assert seen == {(t, w) for t in (F, float) for w in ((True, True), (True, False), (False, False))}


@pytest.mark.parametrize("route", [hopf_analysis, lyapunov_procedural])
@pytest.mark.parametrize(
    "c, delta", [(-1.0, -2.0), (1.0, 0.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf), (F(-1), 1)]
)
def test_hopf_routes_hold_c_and_delta_to_the_params_rule(route, c, delta):
    # outside the family's domain both routes fail as Params does, before any arithmetic
    with pytest.raises(ValueError) as want:
        Params(1.0, c, delta)
    with pytest.raises(ValueError) as got:
        route(c, delta)
    assert (type(got.value), str(got.value)) == (ValueError, str(want.value))


def test_procedural_ell1_does_not_use_the_closed_forms(monkeypatch):
    import kportrait.local as local_mod
    import kportrait.model as model_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the cross-check must not use the closed forms")

    monkeypatch.setattr(local_mod, "hopf_analysis", forbidden)
    monkeypatch.setattr(local_mod, "_ab", forbidden)
    monkeypatch.setattr(model_mod, "_ab", forbidden)
    assert abs(lyapunov_procedural(1.0, 0.25) - ELL1_SPOT) <= 1e-8
