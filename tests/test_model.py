"""Field, Jacobian, discriminants and case classification."""

import hashlib
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction as F
from numbers import Rational

import numpy as np
import pytest

from kportrait import (
    AnalysisError,
    Params,
    classify_case,
    discriminants,
    dulac_check,
    finite_singular_points,
    hopf_analysis,
    interior_point,
    jacobian,
    uniqueness_check,
    vector_field,
)
from kportrait.local import _mu_omega
from kportrait.model import _sorted_eig, _to_float


def random_params(rng, lo=0.05, hi=5.0):
    return Params(*(float(v) for v in rng.uniform(lo, hi, 3)))


def random_rational_params(rng, hi=5):
    vals = []
    for _ in range(3):
        den = int(rng.integers(1, 64))
        num = int(rng.integers(1, hi * den + 1))
        vals.append(F(num, den))
    return Params(*vals)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(-1, 1, 1)
    with pytest.raises(ValueError):
        Params(1, 0, 1)
    with pytest.raises(ValueError):
        Params(1, 1, float("nan"))
    assert Params(F(1, 2), 1, F(1, 4)).is_exact
    assert not Params(0.5, 1, 0.25).is_exact


def test_float_image_is_a_float_triple():
    p = Params(0.537, 1.213, 0.311)
    assert p._float == (p.b, p.c, p.delta)
    for q in (Params(F(1, 2), 1, F(1, 4)), Params(1, 2, 1), Params(0.5, 1, 0.25)):
        assert [type(v) for v in q._float] == [float] * 3
        assert q._float == (float(q.b), float(q.c), float(q.delta))


def hex_or_overflow(to_float, v) -> str:
    try:
        return to_float(v).hex()
    except OverflowError:
        return "OverflowError"


def test_float_image_is_float_of_each_value_to_the_bit():
    # the image comes from the lift as int / int; float() of a Fraction is its own
    # int / int, so both must round the same rational the same way
    rng = random.Random(83)
    triples = rational_triples(40) + [tuple(rng.randint(1, 10 ** rng.randint(1, 320)) for _ in range(3)) for _ in range(60)]

    def near_1e300():  # a numerator or a denominator near 10^300, the other below 10^15
        big, small = 10 ** rng.randint(290, 345) + rng.randint(1, 10**280), rng.randint(1, 10 ** rng.randint(0, 15))
        return F(*rng.choice([(big, small), (small, big)]))

    triples += [(near_1e300(), near_1e300(), near_1e300()) for _ in range(300)]
    seen = {"image": 0, "overflow": 0, "underflow": 0, "subnormal": 0}
    for vals in triples:
        p = Params(*vals)
        # _to_float, the image local and finite_singular_points take, is float() too
        assert [hex_or_overflow(_to_float, v) for v in vals] == [hex_or_overflow(float, v) for v in vals], vals
        try:
            want = [float(v) for v in vals]
        except OverflowError:
            want = None
        if want is None or 0.0 in want:
            seen["overflow" if want is None else "underflow"] += 1
            with pytest.raises(AnalysisError, match="range of doubles"):
                p._float
            continue
        seen["image"] += 1
        seen["subnormal"] += any(v < sys.float_info.min for v in want)
        assert [v.hex() for v in p._float] == [v.hex() for v in want], vals
    assert min(seen.values()) >= 5, seen


def test_vector_field_equilibria():
    p = Params(0.5, 1.0, 0.25)
    assert vector_field(p, (0.0, 0.0)) == (0.0, 0.0)
    assert vector_field(p, (1.0, 0.0)) == (0.0, 0.0)


def test_vector_field_vanishes_at_p2_exactly():
    # substitute the closed-form interior point with rational arithmetic
    p = Params(F(1, 2), F(1), F(1, 4))
    b, c, d = p.exact_triple()
    x2 = b * d / (c - d)
    y2 = -b * c * (d + b * d - c) / (c - d) ** 2
    assert (x2, y2) == (F(1, 6), F(5, 9))
    assert vector_field(p, (x2, y2)) == (0, 0)


def test_jacobian_at_axial_points():
    p = Params(0.5, 1.0, 0.25)
    j0 = np.asarray(jacobian(p, (0.0, 0.0)), dtype=float)
    assert np.allclose(j0, [[0.5, 0.0], [0.0, -0.125]])
    j1 = np.asarray(jacobian(p, (1.0, 0.0)), dtype=float)
    eig = sorted(np.linalg.eigvals(j1).real)
    assert eig == pytest.approx([-1.5, 0.625])


def test_jacobian_is_nested_tuples_exact_for_rational_input():
    exact = jacobian(Params(F(1, 2), F(1), F(1, 4)), (F(1, 6), F(5, 9)))
    assert all(isinstance(v, F) for row in exact for v in row)
    floats = jacobian(Params(0.5, 1.0, 0.25), (F(1, 6), F(5, 9)))
    assert all(type(v) is float for row in floats for v in row)
    assert [list(row) for row in floats] == [pytest.approx([float(v) for v in row]) for row in exact]


def test_closed_form_eigenvalues_match_numpy_at_p2():
    # the integrator's stop modes read only the signs of the real parts, so
    # those and the realness must agree exactly, the values to 1e-12
    rng = random.Random(71)
    mats = []
    while len(mats) < 500:
        b, c, d = 10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1.5, 0.5)
        p = Params(b, c, d)
        if c > d and b * d < c - d:
            mats.append(jacobian(p, interior_point(p)))
    # exact points on A = 0 (case 7, trace 0), cast to float
    for c, d in [(F(1), F(1, 4)), (F(2), F(1, 3)), (F(5, 2), F(7, 10)), (F(9), F(1, 20))]:
        p = Params((c - d) / (c + d), c, d)
        assert classify_case(p).case == 7
        (p2,) = [q.location for q in finite_singular_points(p) if q.name == "P2"]
        mats.append(tuple(tuple(float(v) for v in row) for row in jacobian(p, p2)))
    # far out: (a-d)^2 overflows unscaled, and the smaller root is lost to
    # cancellation unless it is taken as det over the larger
    p = Params(1.5485431864783346e174, 1.1229562123685506e24, 1.3945112294371462e-253)
    mats.append(jacobian(p, interior_point(p)))
    for m in mats:
        got = _sorted_eig(m)
        want = sorted((complex(z) for z in np.linalg.eigvals(np.array(m))), key=lambda z: (z.real, z.imag))
        norm = np.linalg.norm(np.array(m), np.inf)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * norm, (m, got, want)
            assert (g.real > 0) - (g.real < 0) == (w.real > 0) - (w.real < 0), (m, got, want)
            assert (g.imag == 0) == (w.imag == 0), (m, got, want)


def test_p2_eigenvalues_are_those_of_the_float_twins_jacobian():
    # finite_singular_points takes the Jacobian on the float image, not on a second Params it builds
    for vals in rational_triples(60) + [tuple(map(float, t)) for t in rational_triples(60)]:
        p = Params(*vals)
        for q in finite_singular_points(p):
            if q.name == "P2":
                m = jacobian(Params(*p._float), tuple(float(v) for v in q.location))
                assert q.eigenvalues == _sorted_eig(m), vals


def test_jacobian_matches_finite_differences():
    # independent oracle: central differences of the field, step 1e-6
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        p = random_params(rng)
        x, y = rng.uniform(0.0, 3.0, 2)
        j = np.asarray(jacobian(p, (x, y)), dtype=float)
        fd = np.empty((2, 2))
        for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            fp = vector_field(p, (x + dx, y + dy))
            fm = vector_field(p, (x - dx, y - dy))
            fd[0, col] = (fp[0] - fm[0]) / (2 * h)
            fd[1, col] = (fp[1] - fm[1]) / (2 * h)
        scale = np.abs(j).max() + 1.0
        assert np.abs(j - fd).max() / scale <= 1e-6


def test_discriminants_frozen_values():
    d1 = discriminants(Params(F(1, 2), F(1), F(1, 4)))
    assert d1.A == F(1, 32)
    assert d1.B == F(-359, 256)
    assert float(d1.A) == 0.03125
    assert float(d1.B) == -1.40234375

    d2 = discriminants(Params(F(3, 5), F(1), F(1, 4)))
    assert d2.A == 0

    d3 = discriminants(Params(F(1, 10), F(1, 10), F(9, 100)))
    assert d3.A == F(-81, 100000)
    assert d3.B == F(725, 100000000)
    assert d3.A < 0 < d3.B  # the region {B > 0, A < 0} is nonempty


def test_discriminant_b_signs_eigenvalue_reality():
    # delta*B equals trace^2 - 4 det at P2 up to a positive factor
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        p = random_params(rng)
        b, c, d = p.b, p.c, p.delta
        if not (c > d and 0 < b * d < c - d):
            continue
        checked += 1
        x2 = b * d / (c - d)
        y2 = b * c * (c - d - b * d) / (c - d) ** 2
        j = np.asarray(jacobian(p, (x2, y2)), dtype=float)
        tr = j[0, 0] + j[1, 1]
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        disc = discriminants(p)
        assert ((tr * tr - 4 * det) < 0) == (disc.B < 0)
        # trace sign equals sign(A); determinant strictly positive
        assert np.sign(tr) == np.sign(float(disc.A))
        assert det > 0
        # the P2 location and A each have one closed form, shared bit for bit
        (p2,) = [q.location for q in finite_singular_points(p) if q.name == "P2"]
        assert interior_point(p) == p2
        assert _mu_omega(b, c, d)[0] == b * disc.A / (2 * (c - d) ** 2)


def test_finite_points_case1():
    pts = finite_singular_points(Params(2, 1, 1))
    names = [(q.name, q.kind) for q in pts]
    assert names == [("P0", "saddle"), ("P1", "stable-node")]


def test_finite_points_saddle_node_collision():
    pts = finite_singular_points(Params(1, 3, F(3, 2)))
    names = [(q.name, q.kind) for q in pts]
    assert names == [("P0", "saddle"), ("P1", "saddle-node")]


def test_finite_points_case5():
    pts = finite_singular_points(Params(F(1, 2), F(1), F(1, 4)))
    assert [(q.name, q.kind) for q in pts] == [
        ("P0", "saddle"),
        ("P1", "saddle"),
        ("P2", "unstable-focus"),
    ]
    p2 = pts[2]
    assert p2.location == (F(1, 6), F(5, 9))
    lam = p2.eigenvalues
    assert lam[0].imag != 0 and lam[0].real > 0


def test_finite_points_kind_consistent_with_eigenvalues():
    rng = np.random.default_rng(23)
    for _ in range(300):
        p = random_params(rng)
        for q in finite_singular_points(p):
            lam = sorted(q.eigenvalues, key=lambda z: z.real)
            if q.kind == "saddle":
                assert lam[0].real < 0 < lam[1].real
            elif q.kind == "stable-node":
                assert lam[0].real < 0 and lam[1].real < 0 and lam[0].imag == 0
            elif q.kind == "unstable-node":
                assert lam[0].real > 0 and lam[1].real > 0
            elif q.kind == "stable-focus":
                assert lam[0].real < 0 and lam[0].imag != 0
            elif q.kind == "unstable-focus":
                assert lam[0].real > 0 and lam[0].imag != 0
            elif q.kind == "saddle-node":
                assert min(abs(z) for z in lam) <= 1e-9


def test_classify_frozen_examples():
    lab = classify_case(Params(2, 1, 1))
    assert (lab.case, lab.region, lab.portrait, lab.status) == (1, "I", "A", "proven")
    assert lab.boundary == ()

    lab = classify_case(Params(F(1, 2), F(1), F(1, 4)))
    assert (lab.case, lab.region, lab.portrait, lab.status) == (5, "III", "B", "proven")

    lab = classify_case(Params(2, 1, F(1, 5)))
    assert (lab.case, lab.region, lab.portrait, lab.status) == (6, "II-a", "C", "proven")

    lab = classify_case(Params(1, 3, F(3, 2)))
    assert (lab.case, lab.region, lab.portrait) == (2, "S1", "A")
    assert lab.boundary == ("case2-boundary",)

    lab = classify_case(Params(F(3, 5), F(1), F(1, 4)))
    assert (lab.case, lab.region, lab.portrait, lab.status) == (7, "S3", "C", "conjectured")
    assert lab.boundary == ("A-zero",)

    lab = classify_case(Params(F(1, 10), F(1, 10), F(9, 100)))
    assert (lab.case, lab.region, lab.portrait, lab.status) == (4, "II-b", "C", "conjectured")


def test_classify_total_and_deterministic():
    rng = np.random.default_rng(5)
    for _ in range(500):
        p = random_params(rng)
        a = classify_case(p)
        assert a == classify_case(p)
        assert a.case in range(1, 8)
        assert a.region in {"I", "II-a", "II-b", "III", "S1", "S2", "S3"}
        assert a.portrait in {"A", "B", "C"}
        # label invariants
        if a.case in (1, 2):
            assert (a.portrait, a.status) == ("A", "proven")
        elif a.case in (3, 5):
            assert (a.portrait, a.status) == ("B", "proven")
        else:
            assert a.portrait == "C"
            s2 = 1 + p.c - p.delta - p.b - p.b * p.delta
            assert a.status == ("proven" if s2 < 0 else "conjectured")


def test_p1_second_eigenvalue_sign_matches_case():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = random_params(rng)
        lab = classify_case(p)
        lam2 = p.c - p.delta - p.b * p.delta
        if lab.case == 1:
            assert lam2 < 0
        elif lab.case == 2:
            assert abs(lam2) <= 1e-9
        else:
            assert lam2 > 0


def test_positive_trace_region_is_inside_conjecture_margin():
    # A > 0 forces 1 + c - delta - b - b*delta > 0
    rng = np.random.default_rng(17)
    seen = 0
    while seen < 300:
        p = random_params(rng)
        if discriminants(p).A <= 0:
            continue
        seen += 1
        assert 1 + p.c - p.delta - p.b - p.b * p.delta > 0
    # and the algebraic witness of the implication is positive
    for _ in range(100):
        b, c, d = rng.uniform(0.05, 5.0, 3)
        if c <= d:
            continue
        assert (1 + c - d) * (c + d) - (c - d) * (1 + d) == pytest.approx(
            2 * d + c * (c - d)
        )


def test_boundary_tags_fire_only_on_bands():
    # exact boundaries by construction
    lab = classify_case(Params(F(1, 2), F(3, 2), F(1)))  # b*d = 1/2 = c - d
    assert lab.case == 2 and lab.boundary == ("case2-boundary",)
    # float twin lands inside the epsilon band
    labf = classify_case(Params(0.5, 1.5, 1.0))
    assert labf.case == 2 and labf.boundary == ("case2-boundary",)
    # generic interior point carries no tag
    assert classify_case(Params(0.51, 1.5, 1.0)).boundary == ()
    # A = 0 and the S2 surface, exact and as float twins
    for p in (Params(F(3, 5), F(1), F(1, 4)), Params(0.6, 1.0, 0.25)):
        lab = classify_case(p)
        assert lab.case == 7 and lab.boundary == ("A-zero",)
    for p in (Params(F(19, 11), F(1), F(1, 10)), Params(19 / 11, 1.0, 0.1)):
        assert classify_case(p).region == "S2"


@pytest.mark.parametrize("eps", [1e-9, -1e-9, 1e-14, -1e-14])
def test_float_band_width_is_pinned_from_both_sides(eps):
    # A = 0 at b = 0.6 and b*delta = c - delta at b = 3 (c = 1, delta = 1/4): a relative
    # distance of 1e-14 lies inside the float band, and 1e-9 outside it
    near_a = classify_case(Params(0.6 * (1 + eps), 1.0, 0.25))
    near_q1 = classify_case(Params(3.0 * (1 + eps), 1.0, 0.25))
    inside = abs(eps) < 1e-12
    assert near_a.boundary == (("A-zero",) if inside else ())
    assert near_q1.boundary == (("case2-boundary",) if inside else ())


def test_exact_and_float_modes_agree_off_boundaries():
    rng = np.random.default_rng(29)
    for _ in range(500):
        p = random_rational_params(rng)
        le = classify_case(p)
        lf = classify_case(Params(*p._float))
        if lf.boundary:
            continue  # exact mode is authoritative inside the band
        assert (le.case, le.region, le.portrait, le.status) == (
            lf.case,
            lf.region,
            lf.portrait,
            lf.status,
        )
    # where float products overflow, float mode refuses instead of guessing
    for trip, case in (((1e160, 1e160, 1e160), 1), ((1.0, 1e308, 1e-308), 6)):
        assert classify_case(Params(*map(F, trip))).case == case
        with pytest.raises(AnalysisError, match="--exact"):
            classify_case(Params(*trip))


def _fraction_signs(b, c, d):
    """Signs of the four classifying quantities, evaluated directly in Fractions."""
    b, c, d = F(b), F(c), F(d)
    s = d * (b + 1) + c * (b - 1)
    vals = (
        b * d - (c - d),
        d * (c - d) - b * d * (c + d),
        d * s * s - 4 * c * (c - d) ** 2 * (c - d * (b + 1)),
        1 + c - d - b - b * d,
    )
    return tuple((v > 0) - (v < 0) for v in vals)


BOUNDARY_TRIPLES = [
    (F(1, 2), F(3, 2), F(1)),  # case 2: b*delta = c - delta
    (F(3, 5), F(1), F(1, 4)),  # A = 0
    (F(7, 5), F(1), F(1, 4)),  # on S2: 1 + c - delta - b - b*delta = 0
    (F(7, 9), 2, 1),  # B = 0, with integer c and delta
]


def rational_triples(n=170):
    """Three families of rational triples, then the four boundary triples."""
    rng = random.Random(61)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    triples = []
    for _ in range(n):  # large, unrelated denominators
        triples.append(tuple(F(rng.randint(1, 10**15), rng.randint(1, 10**12)) for _ in range(3)))
    for _ in range(n):  # pairwise coprime denominators
        dens = rng.sample(primes, 3)
        triples.append(tuple(F(rng.randint(1, 6 * q), q) for q in dens))
    for _ in range(n):  # one shared denominator
        q = rng.randint(1, 10**9)
        triples.append(tuple(F(rng.randint(1, 6 * q), q) for _ in range(3)))
    return triples + BOUNDARY_TRIPLES


def _is_exact_by_abc(*vals) -> bool:
    """The rule :func:`kportrait.model._is_exact` decides, by the ABC alone: no value of
    type float, and every value a ``numbers.Rational``; the reference for its type tests."""
    return float not in map(type, vals) and all(isinstance(v, Rational) for v in vals)


class _Int(int):
    pass


class _Fraction(F):
    pass


class _Float(float):
    pass


def test_is_exact_decides_as_the_abc_rule():
    from kportrait.model import _is_exact

    rng = random.Random(28)
    makers = (
        lambda: rng.randint(-9, 9),
        lambda: rng.random() < 0.5,
        lambda: F(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: _Int(rng.randint(1, 9)),
        lambda: _Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        lambda: np.int64(rng.randint(1, 9)),
        lambda: np.uint8(rng.randint(1, 9)),
        lambda: Decimal(rng.randint(1, 99)) / 8,
        lambda: rng.random(),
        lambda: _Float(rng.random()),
        lambda: np.float64(rng.random()),
    )
    seen = set()
    for _ in range(4000):
        vals = tuple(rng.choice(makers)() for _ in range(rng.randint(1, 5)))
        want = _is_exact_by_abc(*vals)
        assert _is_exact(*vals) is want, vals
        seen.add(want)
    assert seen == {True, False}
    assert _is_exact() is _is_exact_by_abc() is True


def test_integer_signs_match_fraction_evaluation():
    seen = set()
    for b, c, d in rational_triples():
        want = _fraction_signs(b, c, d)
        assert Params(b, c, d)._case[1] == want, (b, c, d)
        seen.add(want)
    assert {(0, -1, 1, 1), (-1, 0, -1, 1), (-1, -1, -1, 0), (-1, -1, 0, 1)} <= seen


def test_lifted_exact_values_match_fraction_formulas():
    mixed = [(2, F(7, 3), 1), (1, 3, F(1, 2)), (F(1, 3), 5, 2), (1, 4, 1), (F(9, 7), F(13, 4), 3)]
    for b, c, d in rational_triples(60) + mixed:
        p = Params(b, c, d)
        b, c, d = F(b), F(c), F(d)
        s = d * (b + 1) + c * (b - 1)
        disc = discriminants(p)
        assert disc.A == d * (c - d) - b * d * (c + d) and type(disc.A) is F
        assert disc.B == d * s * s - 4 * c * (c - d) ** 2 * (c - d * (b + 1)) and type(disc.B) is F
        assert dulac_check(p).margin == float(1 + c - d - b - b * d)
        if c > d:
            assert hopf_analysis(p.c, p.delta).b0 == (c - d) / (c + d)
        if not b * d < c - d:
            with pytest.raises(AnalysisError):
                uniqueness_check(p)
            continue
        x2, y2 = b * d / (c - d), b * c * (c - d - b * d) / (c - d) ** 2
        assert finite_singular_points(p)[2].location == (x2, y2)
        rep = uniqueness_check(p)
        a = (1 - b) / 2
        assert (rep.g_slope, rep.a, rep.lam, rep.x_star) == (c - d, a, b * d, x2)
        assert rep.conditions_hold == (True, a > 0, x2 < a, b <= 1)


def test_float_values_keep_their_float_formulas():
    rng = random.Random(67)
    triples = [tuple(float(v) for v in t) for t in BOUNDARY_TRIPLES]
    triples += [tuple(10 ** rng.uniform(-2, 1) for _ in range(3)) for _ in range(400)]
    for b, c, d in triples:
        p = Params(b, c, d)
        s = d * (b + 1) + c * (b - 1)
        disc = discriminants(p)
        assert disc.A == d * (c - d) - b * d * (c + d)
        assert disc.B == d * s * s - 4 * c * (c - d) ** 2 * (c - d * (b + 1))
        assert dulac_check(p).margin == 1 + c - d - b - b * d
        if c > d:
            assert hopf_analysis(c, d).b0 == (c - d) / (c + d)
        if classify_case(p).case < 3:
            continue
        x2, y2 = b * d / (c - d), b * c * (c - d - b * d) / (c - d) ** 2
        assert finite_singular_points(p)[2].location == (x2, y2)
        rep = uniqueness_check(p)
        assert (rep.g_slope, rep.a, rep.lam, rep.x_star) == (c - d, (1 - b) / 2, b * d, x2)
        assert all(type(v) is float for v in (rep.g_slope, rep.a, rep.lam, rep.x_star, disc.A, disc.B))


def test_case_signs_are_computed_once_per_params(monkeypatch):
    import kportrait.model as model
    import kportrait.numerics as numerics

    calls = {"_case": [], "_float": [], "stops": [], "lift": []}

    def counting(key, fn):
        def counted(first, *args):
            calls[key].append(first)
            return fn(first, *args)

        return counted

    for name in ("_case", "_float"):
        prop = vars(Params)[name]
        monkeypatch.setattr(prop, "func", counting(name, prop.func))
    # the stop tables are the one use numerics makes of finite_singular_points
    monkeypatch.setattr(numerics, "finite_singular_points", counting("stops", numerics.finite_singular_points))
    monkeypatch.setattr(model, "_lift", counting("lift", model._lift))
    cfg = numerics.IntegratorConfig(max_time=1.0)
    for vals in ((F(1, 2), 1, F(1, 4)), (0.5, 1.0, 0.25)):
        p = Params(*vals)
        assert calls["lift"] == [vals]  # on construction, before any use
        for _ in range(2):
            classify_case(p)
            finite_singular_points(p)
            discriminants(p)
            dulac_check(p)
            interior_point(p)
            for direction in ("forward", "backward"):
                numerics.integrate(p, (0.3, 0.3), direction, cfg)
        for key in ("_case", "_float"):
            # by identity: a Params compares equal to one built from its float image
            assert [q is p for q in calls[key]] == [True], key
        # one classification of p itself for both time directions, and no second Params lifted
        assert [q is p for q in calls["stops"]] == [True]
        assert calls["lift"] == [vals]
        # a Params carrying every cache still pickles, and its copy gives the same answers
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.is_exact == p.is_exact
        assert classify_case(back) == classify_case(p)
        assert finite_singular_points(back) == finite_singular_points(p)
        assert dulac_check(back)[:2] == dulac_check(p)[:2]
        assert numerics.integrate(back, (0.3, 0.3), "forward", cfg) == numerics.integrate(p, (0.3, 0.3), "forward", cfg)
        for key in calls:
            calls[key].clear()

    # b*delta exceeds c - delta by 2^-45: a zero in the float band, positive exactly.
    # The two triples compare and hash equal, so no cache may be keyed on equality.
    floats, rationals = (0.5 + 2.0**-45, 1.5, 1.0), (F(0.5 + 2.0**-45), F(3, 2), 1)
    pf, pe = Params(*floats), Params(*rationals)
    assert pf == pe and len({pf, pe}) == 1
    assert (classify_case(pf).case, classify_case(pe).case) == (2, 1)
    pe2, pf2 = Params(*rationals), Params(*floats)  # the exact twin read first
    assert (classify_case(pe2).case, classify_case(pf2).case) == (1, 2)
    assert not pf.is_exact and pe.is_exact
    assert len(calls["_case"]) == 4

    # a Params crosses process boundaries (scan --jobs) by pickle, cached or not
    for p in (Params(F(3, 10), 1, F(1, 4)), pf, pe):
        for q in (p, pickle.loads(pickle.dumps(p))):
            back = pickle.loads(pickle.dumps(q))
            assert back == p and back.is_exact == p.is_exact
            assert classify_case(back) == classify_case(p)
            assert discriminants(back) == discriminants(p)


def test_params_caches_fill_once_into_the_instance_dict():
    import kportrait.model as model

    assert isinstance(Params._case, model._cached) and Params._case is vars(Params)["_case"]
    p = Params(F(1, 2), 1, F(1, 4))
    for name in ("_case", "_float", "_p2"):
        assert name not in vars(p)
        value = getattr(p, name)
        assert vars(p)[name] is value and getattr(p, name) is value, name
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p) and back._case == p._case
    # equal and equally hashed, yet each keeps the case of its own arithmetic
    pf, pe = Params(0.5, 1, 0.25), Params(F(1, 2), 1, F(1, 4))
    assert pf == pe and hash(pf) == hash(pe)
    assert pe._case[0] == (-10, 2, -1436, 18) and pf._case[0] == (-0.625, 0.03125, -1.40234375, 1.125)


class _FractionSubclass(F):
    pass


@pytest.mark.parametrize("v", [F(0), F(-1, 3), F(10**400, 3), _FractionSubclass(-2, 7), _FractionSubclass(2, 7)])
def test_parameter_rule_reads_a_fractions_sign_as_v_above_zero_does(v):
    from kportrait.model import _check_parameter

    if v > 0:
        assert _check_parameter("c", v) is None
    else:
        with pytest.raises(ValueError) as err:
            _check_parameter("c", v)
        assert str(err.value) == f"c must be positive, got {v!r}"


def _draw_triple(rng):
    """One seeded (b, c, delta): doubles across 10^+-3 or 10^+-300, rationals with
    denominators up to 10^12, exact and float boundary triples, and a few invalid values."""
    kind = rng.random()
    if kind < 0.4:
        e = 300 if rng.random() < 0.3 else 3
        vals = [10 ** rng.uniform(-e, e) for _ in range(3)]
    elif kind < 0.8:
        vals = [F(rng.randint(1, 10 ** rng.randint(1, 13)), rng.randint(1, 10 ** rng.randint(0, 12))) for _ in range(3)]
    else:  # case-2 boundary c = delta(1 + b), A = 0 at b = (c-delta)/(c+delta), and S2 = 0
        b, c, d = (F(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(3))
        c, d = max(c, d) + 1, min(c, d)
        vals = rng.choice([(b, d * (1 + b), d), ((c - d) / (c + d), c, d), ((c - d + 1) / (1 + d), c, d)])
        if rng.random() < 0.5:
            vals = [float(v) for v in vals]
    vals = list(vals)
    if rng.random() < 0.05:
        vals[rng.randrange(3)] = rng.choice([-vals[0], 0, F(0), float("nan"), float("inf"), -1])
    return tuple(vals)


def _analysis_digest(n):
    """sha256 over the repr of every analysis result, or the type and message of the
    error raised, for ``n`` seeded triples.  The records are rewritten in the fields they
    had when the digest was recorded: HopfData's closure mu_at as None and omega_at as its
    value at b0, DulacReport's closure as None, and UniquenessReport with K = 1 and its
    conditions as a dict."""
    from collections import namedtuple

    from kportrait import lyapunov_procedural
    from kportrait.model import _check_parameter

    old_hopf = namedtuple("HopfData", "b0 mu_at omega_at dmu_db_at_b0 equilibrium g20 g11 g21 ell1 p_vec q_vec")
    old_dulac = namedtuple("DulacReport", "applicable margin bound_expression_value_at conclusion")
    old_uniqueness = namedtuple("UniquenessReport", "g_slope a lam x_star K conditions_hold")
    h = hashlib.sha256()

    def record(f, *args):
        try:
            out = f(*args)
        except Exception as exc:  # the error is part of the result
            out = (type(exc).__name__, str(exc))
        h.update(repr(out).encode() + b"\n")
        return out

    def hopf(c, d):
        b0, omega, *rest = hopf_analysis(c, d)
        return old_hopf(b0, None, omega, *rest)

    def dulac(p):
        applicable, margin, conclusion = dulac_check(p)
        return old_dulac(applicable, margin, None, conclusion)

    def uniqueness(p):
        *values, conditions = uniqueness_check(p)
        return old_uniqueness(*values, 1, dict(zip(("i", "ii", "iii", "iv"), conditions)))

    rng = random.Random(2020)
    for _ in range(n):
        b, c, d = _draw_triple(rng)
        for name, v in zip(("b", "c", "delta"), (b, c, d)):
            record(_check_parameter, name, v)
        record(hopf, c, d)
        record(lyapunov_procedural, c, d)
        p = record(Params, b, c, d)
        if isinstance(p, Params):
            for f in (classify_case, finite_singular_points, discriminants, dulac, uniqueness):
                record(f, p)
    return h.hexdigest()


def test_analysis_results_and_errors_match_the_recorded_digest():
    # recorded before the straight-line forms, the lock-free caches and the integer
    # sign tests: each must leave every bit, error type and message as it was
    assert _analysis_digest(2400) == "4e7dbe13f1a121d3aa21d445b7d26e610ba851a819815778b91e9f3c8e6c2b3e"


def _record_twins():
    """Frozen dataclasses with the fields of Params and CaseLabel, the oracle of their
    record behaviour; the twin of Params holds its fields to the parameter rule."""
    from dataclasses import field, make_dataclass

    from kportrait.model import _check_parameter

    def check(self):
        for name in ("b", "c", "delta"):
            _check_parameter(name, getattr(self, name))

    params = make_dataclass("Params", ["b", "c", "delta"], frozen=True, namespace={"__post_init__": check})
    label = make_dataclass(
        "CaseLabel", ["case", "region", "portrait", "status", ("boundary", tuple, field(default=()))], frozen=True
    )
    return params, label


def _record_triples():
    rng = random.Random(24)
    triples = [(2, 1, 1), (F(3, 10), 1, F(1, 4)), (0.5, 1, 0.25), (0.9, 1.2, 0.3), (F(3, 5), 1, F(1, 4)), (0.5, 1.5, 1.0)]
    for _ in range(100):
        triples.append(tuple(10 ** rng.uniform(-3, 3) for _ in range(3)))
        triples.append(tuple(F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(3)))
    return triples


def _assert_frozen(record, name):
    for act in (lambda: setattr(record, name, 1), lambda: delattr(record, name),
                lambda: setattr(record, "no_such_field", 1), lambda: delattr(record, "no_such_field")):
        with pytest.raises(AttributeError):
            act()


def test_params_and_caselabel_behave_as_frozen_dataclasses():
    import kportrait.numerics as numerics
    from kportrait import CaseLabel

    TwinParams, TwinLabel = _record_twins()
    params, twins, labels = [], [], []
    for i, (b, c, d) in enumerate(_record_triples()):
        p, t = Params(b, c, d), TwinParams(b, c, d)
        assert repr(p) == repr(t) and hash(p) == hash(t)
        assert Params(b=b, c=c, delta=d) == p == Params(b, delta=d, c=c) and p == Params(b, c, d)
        assert p != t and t != p and not p == (b, c, d)
        _assert_frozen(p, "b")
        numerics._stops(p, 1.0)  # fills _case, _float, _p2 where P2 is reported, and _stops
        if i == 2:
            numerics.detect_limit_cycle(p)  # the P1 separatrix turn
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is Params and back == p and hash(back) == hash(p) and vars(back) == vars(p)
        params.append(p)
        twins.append(t)
        labels.append(classify_case(p))
    for group, oracle in ((params, twins), (labels, [TwinLabel(**vars(label)) for label in labels])):
        for x, tx in zip(group, oracle):
            assert [x == y for y in group] == [tx == ty for ty in oracle]
            assert [x != y for y in group] == [tx != ty for ty in oracle]
    assert {label.case for label in labels} >= {1, 5, 7}
    for label, twin in zip(labels, (TwinLabel(**vars(label)) for label in labels)):
        assert vars(label) == vars(twin) and list(vars(label)) == ["case", "region", "portrait", "status", "boundary"]
        assert repr(label) == repr(twin) and hash(label) == hash(twin)
        assert type(label)(**vars(label)) == label == CaseLabel(*vars(label).values())
        assert label != twin and twin != label
        _assert_frozen(label, "case")
        back = pickle.loads(pickle.dumps(label))
        assert type(back) is CaseLabel and back == label and vars(back) == vars(label)
    assert CaseLabel(case=1, region="I", portrait="A", status="proven") == CaseLabel(1, "I", "A", "proven", ())

    for bad in (0, -1, F(0), F(-1, 2), -0.5, float("nan"), float("inf"), float("-inf")):
        for at in range(3):
            vals = [F(1, 2), 1, 0.25]
            vals[at] = bad
            errors = []
            for cls in (Params, TwinParams):
                with pytest.raises(ValueError) as err:
                    cls(*vals)
                errors.append(str(err.value))
            assert errors[0] == errors[1], (bad, at)
