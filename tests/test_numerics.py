"""Integration, return maps, cycle detection, scanner."""

import csv
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kportrait import (
    AnalysisError,
    GridSpec,
    IntegrationFailure,
    NoReturnError,
    Params,
    build_portrait,
    classify_case,
    conjecture_scan,
    cycle_loop,
    detect_limit_cycle,
    finite_singular_points,
    integrate,
    interior_point,
    return_map,
    scan_to_csv,
    separatrix_section_crossing,
)
from kportrait.numerics import _DISC_CHORD, _MAX_STEPS, _SETTLED, _p1_separatrix_start, _project, _stops, _turn, _walk
from poincare_engine import vector_field

P_CASE1 = Params(2.0, 1.0, 1.0)
P_CYCLE = Params(0.5, 1.0, 0.25)
P_DULAC = Params(2.0, 1.0, 0.2)


def test_config_validation():
    # the section is keyword-only, and the one orbit limit is the module's step budget:
    # integrate takes no time budget and no step cap
    for name in ("max_step", "max_time"):
        with pytest.raises(TypeError):
            integrate(P_CASE1, (0.5, 0.5), **{name: 1.0})
    with pytest.raises(TypeError):
        integrate(P_CASE1, (0.5, 0.5), "forward", 0.6)


def _halve_tolerances(monkeypatch):
    import kportrait.numerics as numerics

    monkeypatch.setattr(numerics, "_ABS_TOL", numerics._ABS_TOL / 2)
    monkeypatch.setattr(numerics, "_REL_TOL", numerics._REL_TOL / 2)


def test_converges_to_global_attractor_case1(monkeypatch):
    orbit = integrate(P_CASE1, (0.5, 0.5), "forward")
    assert orbit.terminal == "converged-to-point"
    assert orbit.detail == "P1"
    _, _, (x, y) = orbit.samples[-1]
    assert np.hypot(x - 1.0, y) <= 1e-6
    # oracle: same endpoint under halved tolerances, along other steps
    _halve_tolerances(monkeypatch)
    orbit2 = integrate(Params(2.0, 1.0, 1.0), (0.5, 0.5), "forward")
    assert orbit2.terminal == "converged-to-point" and orbit2.detail == "P1"
    assert len(orbit2.samples) > len(orbit.samples)


def test_saddle_stops_orbit_only_on_axis_approach():
    # P1 is a saddle here; an interior orbit squeezed along its stable
    # manifold comes within 1e-7 of it and must leave along the unstable one
    orbit = integrate(P_CYCLE, (1.5, 1e-12), "forward")
    near = [
        np.hypot(x - 1.0, y)
        for _, chart, (x, y) in orbit.samples
        if chart == "affine" and y > 0.0
    ]
    assert min(near) <= 1e-7
    # it then winds onto the cycle until the step budget ends it
    assert orbit.terminal == "max-steps" and len(orbit.samples) == _MAX_STEPS + 1
    # on the invariant x-axis an orbit stops at a saddle only when moving toward it
    orbit = integrate(P_CYCLE, (1e-9, 0.0), "forward")
    assert (orbit.terminal, orbit.detail) == ("converged-to-point", "P1")


def test_slow_case1_orbits_reach_p1_within_the_step_budget():
    # at small b the flow near P0 is slow, at the rates b and -delta b along the axes: here the
    # eight diagonal seeds r = 0.15 (4/0.15)^(k/7) all converge to P1, in 91 to 115 steps each
    p = Params(0.01455, 0.4006, 0.5084)
    assert classify_case(p).case == 1
    for k in range(8):
        s = 0.15 * (4.0 / 0.15) ** (k / 7) / math.sqrt(2.0)
        orbit = integrate(p, (s, s))
        assert (orbit.terminal, orbit.detail) == ("converged-to-point", "P1") and len(orbit.samples) < 200, k


def test_orbit_times_increase_and_steps_bounded():
    # steps are bounded by their chord on the Poincare disc, where the portrait draws them
    orbit = integrate(P_CYCLE, (0.9, 0.6), "forward")
    times = [s[0] for s in orbit.samples]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    disc = [_project(*q) for q in orbit.affine_points()]
    assert max(math.dist(a, b) for a, b in zip(disc, disc[1:])) <= 2.0 * _DISC_CHORD


def test_axes_are_invariant():
    rng = np.random.default_rng(61)
    for _ in range(30):
        p = Params(*(float(v) for v in rng.uniform(0.1, 4.0, 3)))
        x0 = float(rng.uniform(0.01, 5.0))
        orbit = integrate(p, (x0, 0.0), "forward")
        assert max(abs(s[2][1]) for s in orbit.samples if s[1] == "affine") <= 1e-9
        y0 = float(rng.uniform(0.01, 5.0))
        orbit = integrate(p, (0.0, y0), "forward")
        assert max(abs(s[2][0]) for s in orbit.samples if s[1] == "affine") <= 1e-9


def test_quadrant_is_invariant():
    rng = np.random.default_rng(67)
    for _ in range(20):
        p = Params(*(float(v) for v in rng.uniform(0.1, 3.0, 3)))
        start = (float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 3.0)))
        orbit = integrate(p, start, "forward")
        for _, chart, (x, y) in orbit.samples:
            if chart == "affine":
                assert x > -1e-9 and y > -1e-9


def test_backward_orbit_escapes_to_o1():
    orbit = integrate(P_CYCLE, (5.0, 5.0), "backward")
    assert (orbit.terminal, orbit.detail) == ("escaped", "O1")
    _, chart, (x, y) = orbit.samples[-1]
    # past ln x = ln 1e9, in the direction of the unstable node at infinity O1, the x-direction
    assert chart == "affine" and x > 1e9 and y < 1e-6 * x


def test_backward_y_axis_orbit_escapes_along_the_axis():
    # the y-axis comes from the degenerate O2: on x = 0, y' = delta b y, so backward y = 2 e^(t/8)
    # runs past ln y = ln 1e9 at t = 8 ln(5e8), in true time on the weighted clock
    orbit = integrate(P_CYCLE, (0.0, 2.0), "backward")
    assert (orbit.terminal, orbit.detail) == ("escaped", "infinity")
    assert all(chart == "affine" and x == 0.0 for _, chart, (x, _) in orbit.samples)
    t, _, (_, y) = orbit.samples[-1]
    assert y > 1e9 and t == pytest.approx(8.0 * math.log(y / 2.0), rel=1e-6)


def test_orbit_from_far_out_settles_without_gaps():
    # from beyond radius 10 the orbit falls back and settles at P1 in the one chart, and the
    # drawing has no gap: no step is long on the Poincare disc, where the portrait draws it
    for start, direction, end in (((0.05, 11.0), "forward", ("converged-to-point", "P1")), ((5.0, 5.0), "backward", ("escaped", "O1"))):
        orbit = integrate(P_CASE1, start, direction)
        assert (orbit.terminal, orbit.detail) == end
        assert {chart for _, chart, _ in orbit.samples} == {"affine"}
        disc = [_project(*q) for q in orbit.affine_points()]
        assert max(math.dist(a, b) for a, b in zip(disc, disc[1:])) < 0.1


def test_integrate_rejects_bad_start():
    with pytest.raises(ValueError):
        integrate(P_CYCLE, (-0.1, 0.5))
    with pytest.raises(ValueError):
        integrate(P_CYCLE, (0.1, 0.5), "sideways")
    for start in ((math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            integrate(P_CYCLE, start)


def test_interior_point_follows_the_case2_sign_of_finite_singular_points():
    # one ulp below the case-2 surface b*delta = c - delta: the float band reads P1 = P2
    p = Params(math.nextafter(3.0, 0.0), 1.0, 0.25)
    assert [(q.name, q.kind) for q in finite_singular_points(p)] == [("P0", "saddle"), ("P1", "saddle-node")]
    with pytest.raises(AnalysisError):
        interior_point(p)
    rng = random.Random(11)
    in_band = 0
    for _ in range(400):
        b, d = 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-2, 1)
        # c near the case-2 surface c = delta*(1 + b), inside and outside the band, or anywhere
        near = d * (1.0 + b) * (1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -9))
        p = Params(b, rng.choice((near, 10 ** rng.uniform(-2, 1))), d)
        points = {q.name: q.location for q in finite_singular_points(p)}
        if "P2" in points:
            assert interior_point(p) == points["P2"]
        else:
            in_band += 0 < b * d < p.c - d
            with pytest.raises(AnalysisError):
                interior_point(p)
    assert in_band > 0  # the sample reaches points that the raw inequality misreads


def test_stop_event_transversality():
    x2, y2 = interior_point(P_CYCLE)
    xn, tof = return_map(P_CYCLE, 0.6)
    assert tof > 0
    assert xn > x2
    # the crossing is transversal upward: y' > 0 on the ray right of P2
    dy = vector_field(P_CYCLE, (xn, y2))[1]
    assert dy > 0


def test_return_map_spirals_out_near_p2():
    x2, _ = interior_point(P_CYCLE)
    x = x2 + 1e-6
    xn, _ = return_map(P_CYCLE, x)
    assert xn > x  # unstable focus pushes outward


def test_return_map_contracts_from_outside():
    xn, _ = return_map(P_CYCLE, 0.95)
    assert xn < 0.95


def test_return_map_monotone_decrease_in_dulac_zone():
    x2, _ = interior_point(P_DULAC)
    seq = [0.9]
    for _ in range(6):
        try:
            seq.append(return_map(P_DULAC, seq[-1])[0])
        except NoReturnError:  # absorbed by P2
            break
    assert len(seq) >= 3
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert all(x > x2 for x in seq)


def test_return_map_requires_interior_point():
    with pytest.raises(ValueError):
        return_map(P_CASE1, 0.7)
    x2, _ = interior_point(P_CYCLE)
    with pytest.raises(ValueError):
        return_map(P_CYCLE, x2 - 0.01)


def test_detect_limit_cycle_case5():
    res = detect_limit_cycle(P_CYCLE)
    assert res.found and res.encloses_p2
    assert 0.0 < res.multiplier < 1.0
    assert res.period > 0
    x2, _ = interior_point(P_CYCLE)
    assert res.section_x > x2
    # the fixed point really is fixed
    xn, _ = return_map(P_CYCLE, res.section_x)
    assert abs(xn - res.section_x) <= 1e-8


def test_detect_limit_cycle_contraction_case6():
    res = detect_limit_cycle(P_DULAC)
    assert not res.found
    assert res.multiplier is None and res.section_x is None
    assert not res.encloses_p2


def test_separatrix_crossing_bounds_cycle_outside():
    res = detect_limit_cycle(P_CYCLE)
    x_sep, _ = separatrix_section_crossing(P_CYCLE)
    assert x_sep > res.section_x


def test_displacement_single_sign_change():
    # uniqueness witness on a coarse scan of the admissible interval
    res = detect_limit_cycle(P_CYCLE)
    x2, _ = interior_point(P_CYCLE)
    x_sep, _ = separatrix_section_crossing(P_CYCLE)
    xs = np.linspace(x2 + 1e-4, x_sep, 40)
    signs = []
    for x in xs:
        xn, _ = return_map(P_CYCLE, float(x))
        signs.append(np.sign(xn - x))
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0)
    assert flips == 1


def test_cycle_two_sided_convergence():
    res = detect_limit_cycle(P_CYCLE)
    x2, y2 = interior_point(P_CYCLE)

    def settled_crossing(start):
        # a whole step budget, a few hundred periods, then on to the next upward crossing of the section line
        o1 = integrate(P_CYCLE, start, "forward")
        assert o1.terminal == "max-steps"
        o2 = integrate(P_CYCLE, o1.affine_points()[-1], "forward", section=y2)
        assert o2.terminal == "hit-section"
        return o2.samples[-1][2][0]

    inner = settled_crossing((x2 + 0.5 * (res.section_x - x2), y2))
    outer = settled_crossing((0.95, y2))
    # an orbit is fixed by one point: both settle onto the found cycle, from either side
    assert inner == pytest.approx(res.section_x, abs=1e-8) and outer == pytest.approx(res.section_x, abs=1e-8)


def test_tolerance_robustness_of_cycle(monkeypatch):
    res = detect_limit_cycle(P_CYCLE)
    # a fresh Params: P_CYCLE keeps its P1 separatrix turn from the default tolerances
    _halve_tolerances(monkeypatch)
    res2 = detect_limit_cycle(Params(0.5, 1.0, 0.25))
    assert res2 != res
    assert abs(res2.section_x - res.section_x) <= 1e-7
    assert abs(res2.multiplier - res.multiplier) <= 1e-4


def test_cycle_amplitude_hopf_scaling():
    # the amplitude is the largest distance from the cycle to the P2 it encloses
    amps = {}
    for db in (0.01, 0.0025):
        p = Params(0.6 - db, 1.0, 0.25)
        x2, y2 = interior_point(p)
        amps[db] = max(math.hypot(x - x2, y - y2) for x, y in cycle_loop(p, detect_limit_cycle(p)))
    ratio = amps[0.01] / amps[0.0025]
    assert ratio == pytest.approx(2.0, rel=0.2)


@pytest.mark.parametrize("c, delta", [(1.0, 0.25), (2.0, 0.5), (1.5, 0.1)])
def test_near_hopf_multiplier_follows_the_normal_form_or_says_near_hopf(c, delta):
    # below the supercritical Hopf point b0 = (c - delta)/(c + delta) the cycle is born with
    # 1 - multiplier = 4 pi Re/Im of P2's eigenvalues to leading order; where the integrator
    # cannot resolve that, the search says so instead of reporting another cycle, and from
    # eps = 1e-4 on it always resolves it
    b0 = (c - delta) / (c + delta)
    for k in range(9):
        eps = 10 ** (-3 - k / 2)
        p = Params(b0 - eps, c, delta)
        lam = next(q.eigenvalues[1] for q in finite_singular_points(p) if q.name == "P2")
        res = detect_limit_cycle(p)
        if res.found:
            assert 1.0 - res.multiplier == pytest.approx(4.0 * math.pi * lam.real / lam.imag, rel=0.05), eps
        else:
            assert res.detail.startswith("near-hopf:") and eps < 1e-4, (eps, res.detail)


def test_cycle_search_failures_quote_their_cause():
    # the step budget finds the slow cycles of the first 12 case-3/5 triples of b in 10^U(-3, 0.5),
    # c in 10^U(-1, 1) and delta in 10^U(-1.5, 0.5), drawn with seed 3, and of (0.3, 1e6, 0.25),
    # whose inner orbit dips toward the y-axis for 4e7 time units
    rng = random.Random(3)
    triples = [Params(0.3, 1e6, 0.25)]
    while len(triples) < 13:
        p = Params(10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1.5, 0.5))
        if classify_case(p).case in (3, 5):
            triples.append(p)
    assert all(res.found for res in map(detect_limit_cycle, triples))
    # near b = 1e-5 a passage outlasts the step budget: a miss names the orbit that did not
    # return and its terminal, or where the section map expands; near b = 1.5e-6 the P1
    # separatrix's true time passes 7e13 within 200 steps, and its steps still do not underflow
    misses = (
        (1e-5, 1.2, 0.3),
        (1e-5, 10.0, 5.0),
        (1.8378589666371364e-05, 10.488010197424767, 0.010121016800070727),
        (1.5357860642359684e-06, 11.896121115984442, 0.0739312176315767),
    )
    assert [detect_limit_cycle(Params(*t)).detail for t in misses] == [
        "inner orbit did not recross the section (max-steps)",
        "no outer contraction bracket: outer orbit did not recross the section (max-steps)",
        "no outer contraction bracket: section map expands at x = 0.216",
        "no outer contraction bracket: outer orbit did not recross the section (max-steps)",
    ]


def test_cycle_loop_closes():
    # one turn from the section crossing back to it, sampled like every drawn orbit: 44 points
    # whose chords on the Poincare disc stay within the disc-chord rule
    res = detect_limit_cycle(P_CYCLE)
    loop = cycle_loop(P_CYCLE, res)
    assert len(loop) > 40
    assert math.dist(loop[0], loop[-1]) <= 1e-6
    disc = [_project(*q) for q in loop]
    assert max(math.dist(a, b) for a, b in zip(disc, disc[1:])) <= 2.0 * _DISC_CHORD


def test_walk_reads_the_section_map_turn_by_turn(monkeypatch):
    import kportrait.numerics as numerics

    _, y2 = interior_point(P_CYCLE)
    orbit, xs = _walk(P_CYCLE, (0.9, y2))
    # a start on the ray is the first crossing, and the walk settles after two turns at the earliest
    assert orbit.terminal == "hit-section" and len(xs) >= 3 and xs[0] == 0.9
    assert abs(xs[-1] - xs[-2]) <= _SETTLED < abs(xs[-2] - xs[-3])
    iterates = [0.9]
    for _ in xs[1:]:
        iterates.append(return_map(P_CYCLE, iterates[-1])[0])
    assert max(abs(u - v) for u, v in zip(iterates, xs)) <= 1e-9
    times = [t for t, _, _ in orbit.samples]
    assert all(u < v for u, v in zip(times, times[1:]))
    # a start on the cycle itself still makes two turns
    _, xs = _walk(P_CYCLE, (detect_limit_cycle(P_CYCLE).section_x, y2))
    assert len(xs) == 3
    # the walk ends once its samples pass the step budget: here after two turns of 49 and 45 steps
    monkeypatch.setattr(numerics, "_MAX_STEPS", 60)
    orbit, xs = _walk(P_CYCLE, (0.9, y2))
    assert orbit.terminal == "hit-section" and len(xs) == 3 and len(orbit.samples) == 93
    assert abs(xs[-1] - xs[-2]) > _SETTLED


def test_no_return_message_joins_only_the_parts_it_has(monkeypatch):
    # the turn of return_map, under a smaller step budget
    import kportrait.numerics as numerics

    _, y2 = interior_point(P_CYCLE)
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "_MAX_STEPS", 10)
        with pytest.raises(NoReturnError) as err:
            _turn(P_CYCLE, (0.9, y2), y2, "orbit did not recross the section")
    assert str(err.value) == "orbit did not recross the section (max-steps)"
    assert len(err.value.orbit.samples) == 11
    # a slow stable node: the orbit reaches P2 before it turns
    p = Params(0.1, 0.1, 0.09)
    x2, y2 = interior_point(p)
    with pytest.raises(NoReturnError) as err:
        _turn(p, (x2 + 0.05, y2), y2, "orbit did not recross the section")
    assert str(err.value) == "orbit did not recross the section (converged-to-point P2)"


def test_the_kept_p1_turn_is_served_to_every_caller(monkeypatch):
    # the cycle search keeps the P1 separatrix turn on the Params, and every later turn from the
    # P1 seed, a walk's first one included, is that orbit: only the seed's backward turn is new
    import kportrait.numerics as numerics

    p = Params(0.5, 1.0, 0.25)
    detect_limit_cycle(p)
    start, (_, y2) = _p1_separatrix_start(p), interior_point(p)
    kept = _turn(p, start, y2, "")
    assert kept.terminal == "hit-section" and _turn(p, start, y2, "") is kept
    starts = []
    real = numerics.integrate

    def recorded(p, start, *args, **kwargs):
        starts.append((start, *args))
        return real(p, start, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate", recorded)
    orbit, xs = _walk(p, start)
    assert orbit.samples[: len(kept.samples)] == kept.samples and starts and start not in [s[0] for s in starts]
    with pytest.raises(NoReturnError):
        _turn(p, start, y2, "", "backward")
    assert starts[-1] == (start, "backward")


def test_weak_focus_attracts_forward():
    # case 7's P2 has eigenvalues +-0.3098i at (3/5, 1, 1/4), real part 0; ell1 < 0 makes it attract
    for p in (Params(Fraction(3, 5), 1, Fraction(1, 4)), Params(0.6, 1.6, 0.4)):
        modes = {sgn: {name: mode for name, _, _, mode in _stops(p, sgn)} for sgn in (1.0, -1.0)}
        assert (modes[1.0]["P2"], modes[-1.0]["P2"]) == ("always", "axis-only")


def _attracts(kind: str, sgn: float) -> bool:
    """Whether an equilibrium of this kind attracts in the time direction ``sgn``: a node or
    focus by its stability, the case-2 saddle-node forward through its centre direction."""
    if kind == "saddle":
        return False
    if kind == "saddle-node":
        return sgn > 0
    return kind.startswith("unstable") == (sgn < 0)


def test_stop_tables_are_the_printed_kinds_of_exact_input():
    # just below the Hopf point b0 = (c - delta)/(c + delta), where a float classification reads
    # the repelling focus as case 7's weak attracting one, on it (A = 0), and on the case-2 surface
    rng = random.Random(61)
    cases = set()
    for _ in range(60):
        d = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        c = d + Fraction(rng.randint(1, 400), rng.randint(1, 400))
        b0 = (c - d) / (c + d)
        for b in (b0 - Fraction(1, 10**15), b0, (c - d) / d):
            p = Params(b, c, d)
            pts = finite_singular_points(p)
            for sgn in (1.0, -1.0):
                modes = ["always" if _attracts(q.kind, sgn) else "axis-only" for q in pts]
                want = tuple((q.name, float(q.location[0]), float(q.location[1]), m) for q, m in zip(pts, modes))
                assert _stops(p, sgn) == want, (b, c, d, sgn)
            cases.add(classify_case(p).case)
    assert cases == {2, 5, 7}


def test_stop_tables_follow_the_eigenvalue_signs_on_float_input():
    # the oracle reads the linearisation: a point stops every orbit near it when the real parts
    # of both eigenvalues have the attracting sign; the case-2 saddle-node and the case-7 weak
    # focus, with a zero real part, attract forward
    def oracle(q, sgn: float) -> str:
        if q.kind in ("saddle-node", "weak-stable-focus"):
            return "always" if sgn > 0 else "axis-only"
        return "always" if all(sgn * z.real < 0 for z in q.eigenvalues) else "axis-only"

    rng = random.Random(67)
    triples = [tuple(10 ** rng.uniform(-6, 6) for _ in range(3)) for _ in range(4000)]
    kinds = set()
    for triple in triples + [(1.0, 2.0, 1.0), (0.6, 1.0, 0.25)]:
        p = Params(*triple)
        pts = finite_singular_points(p)
        for sgn in (1.0, -1.0):
            want = tuple((q.name, float(q.location[0]), float(q.location[1]), oracle(q, sgn)) for q in pts)
            assert _stops(p, sgn) == want, (triple, sgn)
        kinds.update(q.kind for q in pts)
    assert kinds == {"saddle", "saddle-node", "weak-stable-focus"} | {
        f"{s}-{t}" for s in ("stable", "unstable") for t in ("node", "focus")
    }


def test_grid_spec_cells():
    g = GridSpec(b=(0.5, 1.0, 3), c=(1.0, 1.0, 1), delta=(0.1, 0.2, 2))
    cells = g.cells()
    assert len(cells) == 6
    assert cells[0] == (0.5, 1.0, 0.1)
    assert cells[-1] == (1.0, 1.0, 0.2)


def test_conjecture_scan_filters_and_contracts():
    grid = GridSpec(b=(0.65, 1.3, 3), c=(0.9, 1.5, 3), delta=(0.15, 0.4, 3))
    rows = conjecture_scan(grid, jobs=1)
    assert rows, "grid should intersect the conjectured zone"
    for r in rows:
        assert r.case in (4, 6, 7)
        assert 1 + r.c - r.delta - r.b - r.b * r.delta > 0
        assert r.verdict == "contraction-to-P2"
        assert len(r.seeds) == 3
    # cells in cases 1/2/3/5 never appear
    labels = {(r.b, r.c, r.delta) for r in rows}
    for b, c, d in grid.cells():
        if classify_case(Params(b, c, d)).case in (1, 2, 3, 5):
            assert (b, c, d) not in labels


def test_scan_skips_cells_on_the_s2_surface():
    # classify_case puts this float cell on S2 (1 + c - delta - b - b*delta
    # within the band), though the raw margin rounds a few ulp positive
    cell = (1.45, 1.478, 0.41959183673469375)
    grid = GridSpec(*((v, v, 1) for v in cell))
    assert conjecture_scan(grid, jobs=1) == []


def test_scan_cell_lets_programming_errors_raise(monkeypatch):
    import kportrait.numerics as numerics

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(numerics, "return_map", broken)
    grid = GridSpec(b=(0.9, 0.9, 1), c=(1.2, 1.2, 1), delta=(0.3, 0.3, 1))
    with pytest.raises(ValueError, match="bug"):
        conjecture_scan(grid, jobs=1)


def _csv_row(row):
    buf = io.StringIO()
    scan_to_csv([row], buf)
    header, fields = csv.reader(io.StringIO(buf.getvalue()))
    return dict(zip(header, fields))


def test_scan_cell_reports_a_found_cycle():
    import kportrait.numerics as numerics

    row = numerics._scan_cell((Params(0.5, 1.0, 0.25), 5))
    res = detect_limit_cycle(P_CYCLE)
    assert (row.verdict, row.section_x, row.multiplier) == ("cycle-found", res.section_x, res.multiplier)
    fields = _csv_row(row)
    assert fields["verdict"] == "cycle-found"
    assert fields["section_x"] == format(res.section_x, ".17g")
    assert fields["multiplier"] == format(res.multiplier, ".17g")


def test_scan_cell_without_returns_is_inconclusive(monkeypatch):
    import kportrait.numerics as numerics

    def failing(*args, **kwargs):
        raise IntegrationFailure("step size underflow", None)

    monkeypatch.setattr(numerics, "return_map", failing)
    row = numerics._scan_cell((Params(0.9, 1.2, 0.3), 6))
    assert row.verdict == "inconclusive"
    fields = _csv_row(row)
    assert fields["verdict"] == "inconclusive"
    assert fields["section_x"] == fields["multiplier"] == fields["seeds"] == ""


def test_scan_cell_asks_the_cycle_search_alone(monkeypatch):
    # a contracting II-b cell costs the P1 separatrix turn, which both the seeds and the
    # outer bracket read, and the one return map that finds the section map contracting
    import kportrait.numerics as numerics

    calls = {"integrate": 0, "return_map": 0}

    def counted(name):
        real = getattr(numerics, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(numerics, name, counted(name))
    row = numerics._scan_cell((Params(0.9, 1.2, 0.3), 6))
    assert row.verdict == "contraction-to-P2" and len(row.seeds) == 3
    assert calls == {"integrate": 2, "return_map": 1}


def test_outer_bracket_has_one_fallback(monkeypatch):
    # a separatrix that does not return, or returns at or left of x2, gives the same offset
    import kportrait.numerics as numerics

    x2, _ = interior_point(P_DULAC)
    fallback = x2 + 0.75 * max(1.0 - x2, x2)
    assert numerics._outer_seed(P_DULAC, x2) == separatrix_section_crossing(P_DULAC)[0] != fallback

    def no_return(p):
        raise NoReturnError("separatrix did not reach the section", None)

    for stand_in in (no_return, lambda p: (x2, 1.0), lambda p: (x2 - 0.1, 1.0)):
        monkeypatch.setattr(numerics, "separatrix_section_crossing", stand_in)
        assert numerics._outer_seed(P_DULAC, x2) == fallback


def test_the_near_hopf_verdict_integrates_nothing(monkeypatch):
    # the verdict reads P2's eigenvalues alone, so it comes before the P1 separatrix turn
    # that seeds the outer bracket: here b = b0 (1 - 2e-6) with b0 = 0.6
    import kportrait.numerics as numerics

    calls = []
    real = numerics.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "integrate", counted)
    res = detect_limit_cycle(Params(0.5999988, 1.0, 0.25))
    assert res.detail.startswith("near-hopf:") and calls == []


def test_cycle_search_builds_the_stop_table_once(monkeypatch):
    # the equilibria and their stop modes depend only on the parameters, so
    # the dozen or more orbits of one cycle search share one classification,
    # kept on the Params instance
    import kportrait.numerics as numerics

    calls = []
    real = numerics.finite_singular_points

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(numerics, "finite_singular_points", counted)
    assert detect_limit_cycle(Params(0.43, 1.07, 0.23)).found
    assert len(calls) == 1


def test_scan_deterministic_across_workers():
    grid = GridSpec(b=(0.7, 1.2, 2), c=(0.9, 1.4, 2), delta=(0.2, 0.35, 2))
    rows1 = conjecture_scan(grid, jobs=1)
    rows2 = conjecture_scan(grid, jobs=3)
    b1, b2 = io.StringIO(), io.StringIO()
    scan_to_csv(rows1, b1)
    scan_to_csv(rows2, b2)
    assert b1.getvalue() == b2.getvalue()
    header = b1.getvalue().splitlines()[0]
    assert header == "b,c,delta,case,verdict,section_x,multiplier,seeds"
    assert b1.getvalue().endswith("\r\n") or b1.getvalue().endswith("\n")


def test_scan_starts_no_more_workers_than_cells(monkeypatch):
    # the fork start method launches every worker at the first submit, so the pool
    # is sized to the cells; a stand-in pool records the size and maps serially
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    grid = GridSpec(b=(0.7, 1.2, 2), c=(0.9, 1.4, 2), delta=(0.2, 0.35, 2))
    rows = conjecture_scan(grid, jobs=16)
    assert 1 < len(rows) < 16
    assert sizes == [len(rows)]
    assert rows == conjecture_scan(grid, jobs=1)


def test_custom_stop_event():
    # a section line of the caller's choosing, reached from below
    orbit = integrate(P_CYCLE, (0.9, 0.3), "forward", section=0.6)
    assert orbit.terminal == "hit-section"
    _, chart, (_, y) = orbit.samples[-1]
    assert chart == "affine" and abs(y - 0.6) <= 1e-8
    assert orbit.samples[-2][2][1] < 0.6


def test_backward_section_event_is_the_downward_crossing_of_the_ray():
    # in reverse time the section ray y = y2, x > x2 is crossed downward, since y' > 0 there
    # forward; the event state lies on or below the line, one step past the sample above it
    x2, y2 = interior_point(P_CYCLE)
    orbit = integrate(P_CYCLE, (0.3, y2), "backward", section=y2)
    assert orbit.terminal == "hit-section"
    (_, chart0, (_, y0)), (_, chart, (x, y)) = orbit.samples[-2:]
    assert chart0 == chart == "affine" and y0 > y2 >= y and y2 - y <= 1e-12 and x > x2
    # the crossing is the preimage of the start under the return map, to the integration tolerance
    assert return_map(P_CYCLE, x)[0] == pytest.approx(0.3, abs=1e-7)


def test_section_events_lie_one_controlled_step_from_the_previous_sample(monkeypatch):
    # a hit-section sample is the end of one Dormand-Prince sub-step from the sample before
    # it, so it carries one local error and no interpolation error, and it lies on or above
    # the section; the sub-step's length on the clock s is the one that takes te - t_prev
    import kportrait.numerics as numerics

    rng = random.Random(29)
    turns = 0
    while turns < 24:
        p = Params(10 ** rng.uniform(-1, 0), 10 ** rng.uniform(-0.3, 0.5), 10 ** rng.uniform(-1, -0.3))
        if classify_case(p).case not in (3, 5):  # P2 repels, and every orbit turns around it
            continue
        turns += 1
        x2, y2 = interior_point(p)
        section = y2 * rng.uniform(0.6, 1.0)
        orbit = integrate(p, (x2 + rng.uniform(0.01, 0.5), 0.5 * section), "forward", section=section)
        assert orbit.terminal == "hit-section"
        (t0, chart0, (x0, y0)), (te, chart, (xe, ye)) = orbit.samples[-2:]
        assert chart0 == chart == "affine" and y0 < section <= ye
        rhs = numerics._rhs(*p._float, 1.0)
        u0, v0 = math.log(x0), math.log(y0)
        k1 = rhs(u0, v0)
        # dt/ds = 1/w lies in (0, 1], so the clock length lies between te - t0 and a bound on w times it
        lo, hi = te - t0, (te - t0) * 2.0 * (1.0 + max(x0, xe) ** 2 + max(y0, ye))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if t0 + numerics._dp_step(rhs, u0, v0, mid, k1)[2] < te else (lo, mid)
        us, vs, _, _, _, _ = numerics._dp_step(rhs, u0, v0, hi, k1)
        assert math.exp(us) == pytest.approx(xe, rel=1e-13) and math.exp(vs) == pytest.approx(ye, rel=1e-13)
    # a crossing costs at most 8 sub-steps of the event search, over the crossings of the
    # README B and C portraits, a slow case-5 triple and case 7
    steps, probes = [0], []
    real_step, real_locate = numerics._dp_step, numerics._locate

    def counted_step(*args):
        steps[0] += 1
        return real_step(*args)

    def counted_locate(*args):
        before = steps[0]
        located = real_locate(*args)
        probes.append(steps[0] - before)
        return located

    monkeypatch.setattr(numerics, "_dp_step", counted_step)
    monkeypatch.setattr(numerics, "_locate", counted_locate)
    for triple in ((0.5, 1.0, 0.25), (0.9, 1.2, 0.3), (0.6673839077599302, 0.8416914094837904, 0.15088470811080343), (0.6, 1.6, 0.4)):
        build_portrait(Params(*triple))
    assert len(probes) > 100 and max(probes) <= 8


def test_step_error_overflow_rejects_the_step():
    # 1e-9 from P2 the field is about 5e-10, so the first trial step is 2e7 long on the clock s
    # and its stages overflow e^u; the step is rejected and shrunk, not raised on, and the orbit's
    # first return follows the linear focus: x2 + 1e-9 e^(2 pi Re/Im), one period 2 pi/Im later.
    # The absolute part of the error scale, 1e-10 in ln x, is a tenth of this offset, so the
    # return lands 4% off (3e-5 from 1e-7, 5e-6 from 1e-5)
    x2, y2 = interior_point(P_CYCLE)
    lam = finite_singular_points(P_CYCLE)[-1].eigenvalues[1]
    orbit = integrate(P_CYCLE, (x2 + 1e-9, y2), section=y2)
    t, _, (x, _) = orbit.samples[-1]
    assert orbit.terminal == "hit-section" and t == pytest.approx(2.0 * math.pi / lam.imag, rel=1e-2)
    assert x - x2 == pytest.approx(1e-9 * math.exp(2.0 * math.pi * lam.real / lam.imag), rel=5e-2)
