"""The slow-fast cycles of small b against the Bessel-zero limit and the log-chart reference of
``slowfast_oracle``."""

import math
import random

import pytest

import slowfast_oracle as oracle
from kportrait import Params, classify_case, detect_limit_cycle, integrate, interior_point


@pytest.mark.parametrize("c, delta", [(3.8313, 2.2056), (1.2, 0.3)])
def test_small_b_cycle_follows_the_bessel_zero_limit(c, delta):
    # the reference alone: as b -> 0, delta b^2 times the cycle's period and its top tend to y_in;
    # the top's gap, an O(b ln(1/b)) correction, is 3.06% at (0.005, 3.8313, 2.2056) and shrinks
    # about 1.7-fold with each halving of b
    y_in = oracle.y_in(c, delta)
    gaps = []
    for b in (0.005, 0.0025):
        _, period, y_max = oracle.cycle(b, c, delta)
        assert delta * b * b * period / y_in == pytest.approx(1.0, abs=0.03), b
        gaps.append(1.0 - y_max / y_in)
    assert 0.0 < gaps[1] <= 0.03 and gaps[1] < gaps[0] / 1.5, gaps


def test_the_bessel_zero_height_is_the_recorded_one():
    # y_in = (k j/2)^2, j the first zero of J_(1/k - 1): for k = 1, J_0 vanishes first at 2.404825557695773
    assert oracle.y_in(1.5, 0.5) == pytest.approx((2.404825557695773 / 2.0) ** 2, rel=1e-13)
    assert [round(oracle.y_in(*pair), 4) for pair in ((3.8313, 2.2056), (1.2, 0.3))] == [2.0874, 1.3419]


@pytest.mark.parametrize("triple", [(0.0107, 3.4481, 1.7601), (0.0025, 1.2, 0.3)])
def test_slow_fast_return_matches_the_log_reference(triple):
    # one return from (1, y2): the passage near the y-axis, where x drops to e^-111 and e^-1767,
    # takes 1e4 and 7e5 time units and a few hundred steps
    p = Params(*triple)
    _, y2 = interior_point(p)
    orbit = integrate(p, (1.0, y2), section=y2)
    assert orbit.terminal == "hit-section"
    t, _, (x, _) = orbit.samples[-1]
    x_ref, t_ref, _ = oracle.first_return(*triple, 1.0)
    assert t == pytest.approx(t_ref, rel=1e-6) and x == pytest.approx(x_ref, rel=1e-6)
    assert len(orbit.samples) < 1000


def test_a_depth_below_every_double_is_kept_in_the_log_chart():
    # at (0.0025, 1.2, 0.3) x falls to e^-1767, below every double: those samples hold
    # (ln x, ln y), and the drawn points read x = 0 there
    p = Params(0.0025, 1.2, 0.3)
    _, y2 = interior_point(p)
    orbit = integrate(p, (1.0, y2), section=y2)
    deep = [(q, pt) for q, (_, chart, pt) in zip(orbit.affine_points(), orbit.samples) if chart == "log"]
    assert deep and min(u for _, (u, _) in deep) < -1700.0
    assert all(q == (math.exp(u), math.exp(v)) for q, (u, v) in deep) and (0.0, y2) > min(q for q, _ in deep)


def test_cycle_search_finds_the_slow_fast_cycle_of_the_reference():
    # a case-5 cycle whose passage near the y-axis drops x to 1e-41: the section abscissa,
    # period and multiplier match the reference's, the multiplier from its central difference
    triple = (0.3158298635186272, 6.95340195203038, 0.1949516018567411)
    res = detect_limit_cycle(Params(*triple))
    assert res.found
    x_ref, period_ref, _ = oracle.cycle(*triple)
    x2, _ = oracle.interior_point(*triple)
    step = 1e-5 * (x_ref - x2)
    multiplier_ref = (oracle.first_return(*triple, x_ref + step)[0] - oracle.first_return(*triple, x_ref - step)[0]) / (2.0 * step)
    assert res.section_x == pytest.approx(x_ref, rel=1e-6) and res.period == pytest.approx(period_ref, rel=1e-6)
    assert res.multiplier == pytest.approx(multiplier_ref, rel=1e-4)


@pytest.mark.parametrize("c, delta", [(3.8313, 2.2056), (1.2, 0.3)])
def test_the_cycle_search_follows_the_bessel_zero_limit(c, delta):
    # the search itself, on cycles of period 4e4 to 7e5: delta b^2 period/y_in read 0.980, 0.988,
    # 0.9985 and 0.9989, as the reference does
    y_in = oracle.y_in(c, delta)
    for b in (0.005, 0.0025):
        res = detect_limit_cycle(Params(b, c, delta))
        assert res.found and delta * b * b * res.period / y_in == pytest.approx(1.0, abs=0.03), (b, res)


def test_the_step_budget_finds_every_slow_cycle_of_a_log_uniform_draw():
    # the first 30 case-3/5 triples of b in 10^U(-3, 0.5), c in 10^U(-1, 1) and delta in 10^U(-1.5, 0.5),
    # drawn with seed 3, with periods from 38 to 4e7: every cycle is found, and four of them, of
    # periods 2e4 to 2e6 and one in case 3, match the reference within 1e-6
    rng = random.Random(3)
    triples = []
    while len(triples) < 30:
        triple = (10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1.5, 0.5))
        if classify_case(Params(*triple)).case in (3, 5):
            triples.append(triple)
    found = [detect_limit_cycle(Params(*triple)) for triple in triples]
    assert all(res.found for res in found)
    for k in (0, 4, 6, 26):
        x_ref, period_ref, _ = oracle.cycle(*triples[k])
        assert found[k].section_x == pytest.approx(x_ref, rel=1e-6) and found[k].period == pytest.approx(period_ref, rel=1e-6), k
