"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import functools
import io
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from kportrait import (
    GridSpec,
    NoReturnError,
    Params,
    build_portrait,
    classify_case,
    conjecture_scan,
    cycle_loop,
    detect_limit_cycle,
    discriminants,
    hopf_analysis,
    integrate,
    interior_point,
    lyapunov_procedural,
    return_map,
    scan_to_csv,
    separatrix_section_crossing,
)
from kportrait.local import _mu_omega
from kportrait.model import ZERO_BAND
from polyline_oracle import polyline_hausdorff
from test_compactify import (
    SYMBOLIC,
    U,
    V,
    W1,
    field,
    golden_blowup_raw,
    golden_blowup_rescaled,
    golden_u1,
    golden_u2,
    horizontal_blowup,
    integrator_field_is_the_log_chart,
    poincare_chart,
    same,
)


def criterion(num, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {text}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {text}")

        return run

    return wrap


def random_rational(rng, hi=5):
    den = int(rng.integers(1, 64))
    num = int(rng.integers(1, hi * den + 1))
    return F(num, den)


@criterion(1, "float classification agrees with exact rational classification")
def test_criterion_1_classification_oracle_equivalence():
    rng = np.random.default_rng(101)
    disagreements = 0
    banded = 0
    for _ in range(10_000):
        p = Params(*(random_rational(rng) for _ in range(3)))
        exact_label = classify_case(p)
        pf = Params(*p._float)
        float_label = classify_case(pf)
        if float_label.boundary:
            banded += 1
            # exact mode is authoritative; the float tag must be adjacent,
            # i.e. the exact quantity really is inside the band
            b, c, d = (float(v) for v in (p.b, p.c, p.delta))
            q1 = b * d - (c - d)
            disc = discriminants(pf)
            s = d * (b + 1) + c * (b - 1)
            bands = {
                "case2-boundary": (q1, b * d + abs(c - d)),
                "A-zero": (float(disc.A), d * abs(c - d) + b * d * (c + d)),
                "B-zero": (
                    float(disc.B),
                    d * s * s + 4 * c * (c - d) ** 2 * abs(c - d * (b + 1)),
                ),
            }
            for tag in float_label.boundary:
                q, scale = bands[tag]
                if abs(q) > ZERO_BAND * scale:
                    disagreements += 1
            continue
        if (exact_label.case, exact_label.region, exact_label.portrait, exact_label.status) != (
            float_label.case,
            float_label.region,
            float_label.portrait,
            float_label.status,
        ):
            disagreements += 1
    assert disagreements == 0


@criterion(2, "charted systems and blow-up match the golden coefficient tables")
def test_criterion_2_charted_golden_match():
    # for symbolic positive (b, c, delta): the Poincare charts and the blow-up
    # of O2 equal the tables, and the integrator's field is the family's field
    # in the log chart on its clock
    for chart, golden in (("U1", golden_u1), ("U2", golden_u2)):
        assert same(poincare_chart(chart), field(golden(SYMBOLIC), U, V))
    assert integrator_field_is_the_log_chart(1)
    raw, rescaled = horizontal_blowup()
    assert same(raw, field(golden_blowup_raw(SYMBOLIC), W1, V))
    assert same(rescaled, field(golden_blowup_rescaled(SYMBOLIC), W1, V))


@criterion(3, "Hopf pipeline: mu(b0)=0, transversality, ell1 dual-route, spot values")
def test_criterion_3_hopf_pipeline():
    rng = np.random.default_rng(107)
    count = 0
    while count < 200:
        c = float(10 ** rng.uniform(-1.0, 0.7))
        d = float(10 ** rng.uniform(-1.0, 0.7))
        if c <= d:
            c, d = d, c
        if c == d:
            continue
        count += 1
        hd = hopf_analysis(c, d)
        b0 = float(hd.b0)
        assert abs(_mu_omega(b0, c, d)[0]) <= 1e-12
        assert hd.dmu_db_at_b0 == pytest.approx(-d / (2 * (c - d)), rel=1e-12)
        h = 1e-6 * b0
        fd = (_mu_omega(b0 + h, c, d)[0] - _mu_omega(b0 - h, c, d)[0]) / (2 * h)
        assert hd.dmu_db_at_b0 == pytest.approx(fd, rel=1e-6)
        ell_proc = lyapunov_procedural(c, d)
        assert hd.ell1 < 0 and ell_proc < 0
        assert abs(hd.ell1 - ell_proc) / abs(hd.ell1) <= 1e-8
    spot = hopf_analysis(1.0, 0.25)
    assert float(spot.b0) == pytest.approx(0.6, abs=1e-12)
    # frozen by evaluating the closed form
    # ell1 = -delta^2 / (omega (c+delta)^2) with omega^2 = c^2 d (c-d)/(c+d)^3
    assert spot.ell1 == pytest.approx(-0.12909944487358058, abs=1e-3)


@criterion(4, "unique stable limit cycle at (0.5, 1, 0.25), two-sided convergence")
def test_criterion_4_limit_cycle_existence_uniqueness():
    t0 = time.monotonic()
    p = Params(0.5, 1.0, 0.25)
    res = detect_limit_cycle(p)
    assert res.found and res.encloses_p2
    assert 0.0 < res.multiplier < 1.0

    # displacement changes sign exactly once on the admissible interval
    x2, y2 = interior_point(p)
    x_sep, _ = separatrix_section_crossing(p)
    signs = []
    for x in np.linspace(x2 + 1e-4, x_sep, 200):
        xn, _ = return_map(p, float(x))
        signs.append(np.sign(xn - x))
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0)
    assert flips == 1

    # inside and outside long-time orbits settle onto the same loop
    def settled_loop(start):
        o1 = integrate(p, start, "forward", max_time=450.0)
        assert o1.terminal == "max-time"
        o2 = integrate(p, o1.affine_points()[-1], "forward", max_time=60.0, max_step=0.04)
        return o2.affine_points()

    inner = settled_loop((x2 + 0.5 * (res.section_x - x2), y2))
    outer = settled_loop((0.95, y2))
    assert polyline_hausdorff(inner, outer) <= 1e-4

    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"criterion 4 took {elapsed:.1f}s"


@criterion(5, "no cycles in the Dulac zone: contraction verdicts only")
def test_criterion_5_dulac_zone_nonexistence():
    triples = [(2.0, 1.0, 0.2)]
    rng = np.random.default_rng(109)
    while len(triples) < 51:
        b, c, d = (float(v) for v in rng.uniform(0.05, 5.0, 3))
        lab = classify_case(Params(b, c, d))
        if lab.region == "II-a" and not lab.boundary:
            triples.append((b, c, d))
    cycle_found = 0
    for b, c, d in triples:
        p = Params(b, c, d)
        res = detect_limit_cycle(p)
        if res.found:
            cycle_found += 1
            continue
        x2, _ = interior_point(p)
        x_sep = x2 + 0.3 * max(1.0 - x2, x2)
        seq = [x2 + max(1e-3, x_sep - x2)]
        for _ in range(5):
            try:
                seq.append(return_map(p, seq[-1])[0])
            except NoReturnError:  # absorbed by P2
                break
        assert all(bb < aa for aa, bb in zip(seq, seq[1:]))
        assert all(x > x2 for x in seq)
    assert cycle_found == 0


@criterion(6, "supercritical square-root amplitude scaling near b0")
def test_criterion_6_hopf_amplitude_scaling():
    amps = {}
    for db in (0.01, 0.0025):
        p = Params(0.6 - db, 1.0, 0.25)
        res = detect_limit_cycle(p)
        assert res.found
        # the largest distance from the cycle to the P2 it encloses
        x2, y2 = interior_point(p)
        amps[db] = max(math.hypot(x - x2, y - y2) for x, y in cycle_loop(p, res))
    ratio = amps[0.01] / amps[0.0025]
    assert abs(ratio - 2.0) <= 0.4


@criterion(7, "conjecture scan: zero cycle verdicts, byte-identical CSV across workers")
def test_criterion_7_conjecture_scan():
    grid = GridSpec(b=(0.65, 1.3, 6), c=(0.9, 1.5, 6), delta=(0.15, 0.4, 6))
    rows1 = conjecture_scan(grid, jobs=1)
    assert rows1, "grid must intersect region II-b"
    assert all(r.verdict == "contraction-to-P2" for r in rows1)
    rows8 = conjecture_scan(grid, jobs=8)
    buf1, buf8 = io.StringIO(), io.StringIO()
    scan_to_csv(rows1, buf1)
    scan_to_csv(rows8, buf8)
    assert buf1.getvalue().encode() == buf8.getvalue().encode()


@criterion(8, "portrait topology per proven region: limit-set bookkeeping")
def test_criterion_8_portrait_topology():
    rep = build_portrait(Params(2.0, 1.0, 1.0))  # region I
    assert (rep.label.portrait, rep.label.status) == ("A", "proven")
    for tr in rep.representatives:
        assert tr.alpha_limit == "O1" and tr.omega_limit == "P1"

    rep = build_portrait(Params(2.0, 1.0, 0.2))  # region II-a
    assert (rep.label.portrait, rep.label.status) == ("C", "proven")
    for tr in rep.representatives:
        assert tr.omega_limit == "P2"

    rep = build_portrait(Params(0.5, 1.0, 0.25))  # region III
    assert (rep.label.portrait, rep.label.status) == ("B", "proven")
    assert rep.cycle is not None and rep.cycle.found
    for tr in rep.representatives:
        assert tr.omega_limit == "cycle"


@criterion(9, "axis invariance over 1000 random integrations")
def test_criterion_9_axis_invariance():
    rng = np.random.default_rng(113)
    for k in range(1000):
        p = Params(*(float(v) for v in rng.uniform(0.05, 5.0, 3)))
        s = float(rng.uniform(0.01, 5.0))
        start = (s, 0.0) if k % 2 == 0 else (0.0, s)
        direction = "forward" if k % 4 < 2 else "backward"
        orbit = integrate(p, start, direction, max_time=10.0)
        off_axis = (
            max(abs(q[2][1]) for q in orbit.samples if q[1] == "affine")
            if k % 2 == 0
            else max(abs(q[2][0]) for q in orbit.samples if q[1] == "affine")
        )
        assert off_axis <= 1e-9
