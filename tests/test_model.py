"""Field, Jacobian, discriminants and case classification."""

import hashlib
import itertools
import pickle
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F
from numbers import Rational

import numpy as np
import pytest

from kportrait import (
    AnalysisError,
    CaseLabel,
    Params,
    build_portrait,
    classify_case,
    discriminants,
    dulac_check,
    finite_singular_points,
    hopf_analysis,
    interior_point,
    uniqueness_check,
)
from kportrait.local import _mu_omega
from kportrait.model import _to_float
from poincare_engine import jacobian, vector_field


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
    # those and the realness must agree exactly, the values to 1e-12; numpy judges
    # P2's pair on the Jacobian of the exact twin at the exact P2, each entry rounded once
    rng = random.Random(71)
    params = []
    while len(params) < 500:
        b, c, d = 10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1.5, 0.5)
        if c > d and b * d < c - d:
            params.append(Params(b, c, d))
    # exact points on A = 0 (case 7, trace 0)
    for c, d in [(F(1), F(1, 4)), (F(2), F(1, 3)), (F(5, 2), F(7, 10)), (F(9), F(1, 20))]:
        params.append(Params((c - d) / (c + d), c, d))
        assert classify_case(params[-1]).case == 7
    # far out: a11 = b - y2 + ... cancels at the float P2, so the pair is read off A and B
    params.append(Params(1.5485431864783346e174, 1.1229562123685506e24, 1.3945112294371462e-253))
    for p in params:
        (got,) = [q.eigenvalues for q in finite_singular_points(p) if q.name == "P2"]
        twin = Params(F(p.b), F(p.c), F(p.delta))
        m = np.array([[float(v) for v in row] for row in jacobian(twin, twin._p2)])
        want = sorted((complex(z) for z in np.linalg.eigvals(m)), key=lambda z: (z.real, z.imag))
        norm = np.linalg.norm(m, np.inf)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * norm, (p, got, want)
            assert (g.real > 0) - (g.real < 0) == (w.real > 0) - (w.real < 0), (p, got, want)
            assert (g.imag == 0) == (w.imag == 0), (p, got, want)


def test_p2_eigenvalues_are_mu_omega_of_the_float_image():
    # where B < 0 off the A band, P2's pair is mu -+ i omega of _mu_omega on the float image to the bit,
    # and the Hopf summary of a portrait reads its mu and omega off P2's eigenvalue
    rng, checked = random.Random(17), 0
    draws = [(10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1.5, 0.5)) for _ in range(300)]
    for vals in [tuple(map(float, t)) for t in rational_triples(60)] + draws:
        p = Params(*vals)
        if p._case[1][1:3] in ((1, -1), (-1, -1)):
            (q,) = [q for q in finite_singular_points(p) if q.name == "P2"]
            mu, omega = _mu_omega(*p._float)
            assert q.eigenvalues == (complex(mu, -omega), complex(mu, omega)), vals
            checked += 1
    assert checked >= 100, checked
    rep = build_portrait(Params(0.5, 1.0, 0.25))  # README B
    (q,) = [q for q in rep.finite_points if q.name == "P2"]
    assert (rep.hopf.mu, rep.hopf.omega) == (q.eigenvalues[1].real, q.eigenvalues[1].imag)
    assert rep.hopf.mu == 0.013888888888888888


def _p2_pair_oracle(b, c, d):
    """P2's eigenvalues of the rational triple, sorted by (real, imag), from Fraction and decimal
    alone: trace and determinant of the field's Jacobian at P2, the root to 60 digits, and the
    smaller root of a real pair as det over the larger, each rounded once to a double."""
    b, c, d = F(b), F(c), F(d)
    x, y = b * d / (c - d), b * c * (c - d - b * d) / (c - d) ** 2
    (a11, a12), (a21, a22) = (-3 * x * x + 2 * (1 - b) * x - y + b, -x), ((c - d) * y, (c - d) * x - d * b)
    half, det = (a11 + a22) / 2, a11 * a22 - a12 * a21
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(q: F) -> Decimal:
            return Decimal(q.numerator) / Decimal(q.denominator)

        root = dec(abs(half * half - det)).sqrt()
        if half * half < det:
            return complex(float(half), -float(root)), complex(float(half), float(root))
        big = dec(half) + root.copy_sign(dec(half))
        return tuple(complex(v) for v in sorted((float(big), float(dec(det) / big))))


def test_p2_spectrum_matches_an_exact_oracle():
    # each eigenvalue to 1e-12 of its modulus, realness and the sign of each real part as the kind says
    rng = random.Random(2026)
    triples = [(f"1e{e}", tuple(10 ** rng.uniform(-e, e) for _ in range(3))) for e in (3, 100) for _ in range(1500)]
    triples += [("exact", tuple(F(rng.randint(1, 10**9), rng.randint(1, 10**9)) for _ in range(3))) for _ in range(1500)]
    for _ in range(100):  # the exact A = 0 surface b = (c - delta)/(c + delta)
        c, d = sorted((F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(2)), reverse=True)
        triples.append(("A-zero", ((c - d) / (c + d), c, d) if c > d else (F(3, 5), F(1), F(1, 4))))
    signs = {"unstable-node": 1, "stable-node": -1, "unstable-focus": 1, "stable-focus": -1, "weak-stable-focus": 0}
    checked = dict.fromkeys(("1e3", "1e100", "exact", "A-zero"), 0)
    for draw, t in triples:
        b, c, d = map(F, t)
        S = d * (b + 1) + c * (b - 1)
        B, scale = d * S * S - 4 * c * (c - d) ** 2 * (c - d * (b + 1)), d * S * S + 4 * c * (c - d) ** 2 * abs(c - d * (b + 1))
        p = Params(*t)
        try:
            points = finite_singular_points(p)
        except AnalysisError:  # a float triple whose classification leaves the range of doubles
            assert not p.is_exact and "_label" not in vars(p), t
            continue
        if len(points) < 3 or not p.is_exact and abs(B) < F(1, 10**6) * scale:
            continue
        q = points[2]
        want = _p2_pair_oracle(*t)
        for g, w in zip(q.eigenvalues, want):
            assert abs(g - w) <= 1e-12 * abs(w), (t, q.eigenvalues, want)
            assert (g.real > 0) - (g.real < 0) == signs[q.kind], (t, q)
        assert all(g.imag == 0 for g in q.eigenvalues) == q.kind.endswith("node"), (t, q)
        checked[draw] += 1
    assert min(checked.values()) >= 90, checked
    pinned = {
        (F(3, 5), F(1), F(1, 4)): (0.0, 0.0),
        (F(3, 5), F(8, 5), F(2, 5)): (0.0, 0.0),
        (F(10**200), F(10**200), F(1, 2)): (complex(-2.5e199, -4.330127018922193e199), complex(-2.5e199, 4.330127018922193e199)),
        (F(3, 10), F(10**100), F(1, 4)): (complex(2.625e-102, -0.15), complex(2.625e-102, 0.15)),
        (1.5485431864783346e174, 1.1229562123685506e24, 1.3945112294371462e-253): (-2.9778707030094776e71, -1.1229562123685506e24),
    }
    for t, want in pinned.items():
        (got,) = [q.eigenvalues for q in finite_singular_points(Params(*t)) if q.name == "P2"]
        if want == (0.0, 0.0):
            assert [z.real for z in got] == [0.0, 0.0] and all(z.imag for z in got), (t, got)
        else:
            assert got == want, (t, got)


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


# the paper's case list: (case, the signs of b*delta - (c-delta), A and B it holds on,
# portrait, P1 kind, P2 kind); P2 lies in the open quadrant from case 3 on
PAPER_CASES = [
    (1, lambda q1, A, B: q1 > 0, "A", "stable-node", None),
    (2, lambda q1, A, B: q1 == 0, "A", "saddle-node", None),
    (3, lambda q1, A, B: q1 < 0 and A > 0 and B >= 0, "B", "saddle", "unstable-node"),
    (4, lambda q1, A, B: q1 < 0 and A < 0 and B >= 0, "C", "saddle", "stable-node"),
    (5, lambda q1, A, B: q1 < 0 and A > 0 and B < 0, "B", "saddle", "unstable-focus"),
    (6, lambda q1, A, B: q1 < 0 and A < 0 and B < 0, "C", "saddle", "stable-focus"),
    (7, lambda q1, A, B: q1 < 0 and A == 0, "C", "saddle", "weak-stable-focus"),
]

# the regions of parameter space and the surfaces between them, by the signs of
# b*delta - (c-delta), A and the S2 margin 1 + c - delta - b - b*delta
PAPER_REGIONS = [
    ("I", lambda q1, A, s2: q1 > 0),
    ("S1", lambda q1, A, s2: q1 == 0),
    ("III", lambda q1, A, s2: q1 < 0 and A > 0),
    ("S3", lambda q1, A, s2: q1 < 0 and A == 0),
    ("II-a", lambda q1, A, s2: q1 < 0 and A < 0 and s2 < 0),
    ("S2", lambda q1, A, s2: q1 < 0 and A < 0 and s2 == 0),
    ("II-b", lambda q1, A, s2: q1 < 0 and A < 0 and s2 > 0),
]


@pytest.mark.parametrize("signs", list(itertools.product((-1, 0, 1), repeat=4)), ids=str)
def test_every_sign_tuple_gets_the_papers_case_region_tags_and_kinds(signs):
    q1, A, B, s2 = signs
    p = Params(F(1, 2), 1, F(1, 4))  # case 5, so P2 lies in the quadrant whatever the signs say
    vars(p)["_case"] = ((0, 0, 0, 0), signs)
    [(case, _, portrait, p1_kind, p2_kind)] = [row for row in PAPER_CASES if row[1](q1, A, B)]
    [region] = [name for name, holds in PAPER_REGIONS if holds(q1, A, s2)]
    # at most one tag: the first surface of the three that the signs sit on
    tags = tuple(tag for tag, on in (("case2-boundary", q1 == 0), ("A-zero", q1 < 0 and A == 0),
                                     ("B-zero", q1 < 0 and A != 0 and B == 0)) if on)
    # portraits A and B are proven; C only below S2
    status = "conjectured" if portrait == "C" and s2 >= 0 else "proven"
    assert classify_case(p) == CaseLabel(case, region, portrait, status, tags)
    kinds = [(q.name, q.kind) for q in finite_singular_points(p)]
    assert kinds == [("P0", "saddle"), ("P1", p1_kind)] + [("P2", p2_kind)] * (p2_kind is not None)


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
    # where float products overflow, or a scale of the band underflows, float mode refuses instead of guessing
    underflows = (((1e-200, 1e-200, 1e-200), 1), ((1.1683229682558197e-122, 7.956599072006431e-142, 2.3455979493381626e-215), 3))
    for trip, case in (((1e160, 1e160, 1e160), 1), ((1.0, 1e308, 1e-308), 6), *underflows):
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
                numerics.integrate(p, (0.3, 0.3), direction, section=0.4)
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
        assert numerics.integrate(back, (0.3, 0.3), section=0.4) == numerics.integrate(p, (0.3, 0.3), section=0.4)
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
    for name in ("_case", "_label", "_float", "_p2"):
        assert name not in vars(p)
        value = getattr(p, name)
        assert vars(p)[name] is value and getattr(p, name) is value, name
    # classify_case hands out the one label, and finite_singular_points reads it, not a second derivation
    assert classify_case(p) is classify_case(p) is vars(p)["_label"]
    fresh = Params(0.5, 1, 0.25)
    assert "_label" not in vars(fresh)
    finite_singular_points(fresh)
    label = vars(fresh)["_label"]
    assert classify_case(fresh) is label
    # a pickle carries the label to a scan worker (scan --jobs)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p) and back._case == p._case
    assert "_label" in vars(back) and vars(back)["_label"] == p._label and classify_case(back) is vars(back)["_label"]
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
    value at b0, DulacReport's closure as None, UniquenessReport with K = 1 and its
    conditions as a dict, and SingularPoint without its sector."""
    from collections import namedtuple

    from kportrait import lyapunov_procedural
    from kportrait.model import _check_parameter

    old_hopf = namedtuple("HopfData", "b0 mu_at omega_at dmu_db_at_b0 equilibrium g20 g11 g21 ell1 p_vec q_vec")
    old_dulac = namedtuple("DulacReport", "applicable margin bound_expression_value_at conclusion")
    old_uniqueness = namedtuple("UniquenessReport", "g_slope a lam x_star K conditions_hold")
    old_point = namedtuple("SingularPoint", "name chart location kind eigenvalues")
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

    def points(p):
        return [old_point(*q[:-1]) for q in finite_singular_points(p)]

    rng = random.Random(2020)
    for _ in range(n):
        b, c, d = _draw_triple(rng)
        for name, v in zip(("b", "c", "delta"), (b, c, d)):
            record(_check_parameter, name, v)
        record(hopf, c, d)
        record(lyapunov_procedural, c, d)
        p = record(Params, b, c, d)
        if isinstance(p, Params):
            for f in (classify_case, points, discriminants, dulac, uniqueness):
                record(f, p)
    return h.hexdigest()


def test_analysis_results_and_errors_match_the_recorded_digest():
    # recorded before the straight-line forms, the lock-free caches and the integer
    # sign tests: each must leave every bit, error type and message as it was; re-recorded
    # when hopf_analysis's range errors began to name the Hopf point (b0, c, delta), and
    # when float classification began to refuse an underflowed scale and hopf_analysis to
    # name an overflow or underflow of B(b0) as a range error: the triples with such a scale
    # and those hopf records alone moved; re-recorded when P2's eigenvalues began to come from
    # A and B: the points records alone moved, and with the Jacobian's pair put back they give the old digest
    assert _analysis_digest(2400) == "2553d21d80b8d5f6cd606b634352e4214761c947697d9c9ff78837a15e5912f2"


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
