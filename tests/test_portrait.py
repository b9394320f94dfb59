"""Portrait assembly, disc projection, SVG and JSON output."""

import json
import math
import pickle
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import numpy as np
import pytest

from kportrait import (
    AnalysisError,
    Params,
    build_portrait,
    classify_case,
    discriminants,
    dulac_check,
    family_infinite_points,
    finite_singular_points,
    hopf_analysis,
    render_svg,
    report_to_dict,
    uniqueness_check,
    write_report,
)
from kportrait.numerics import _p1_separatrix_start, _stops
from kportrait.portrait import _project, _thin


@pytest.fixture(scope="module")
def report_a():
    return build_portrait(Params(2.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def report_b():
    return build_portrait(Params(0.5, 1.0, 0.25))


@pytest.fixture(scope="module")
def report_c():
    return build_portrait(Params(2.0, 1.0, 0.2))


def _analysis_records(p: Params) -> list:
    """Every analysis record of ``p`` that its parameters admit."""
    out = [p, classify_case(p), discriminants(p), dulac_check(p), *finite_singular_points(p)]
    for q in family_infinite_points(p):
        out += [q, q.sector] if q.sector is not None else [q]
    for call in (lambda: uniqueness_check(p), lambda: hopf_analysis(p.c, p.delta)):
        try:
            out.append(call())
        except AnalysisError:  # c <= delta, or no interior point
            pass
    return out


def test_analysis_records_and_portraits_are_plain_values():
    # two calls on separately built Params give equal records with equal hashes,
    # and each record survives a pickle round trip
    rng = random.Random(83)
    seen = set()
    for k in range(60):
        if k % 2:
            vals = tuple(F(rng.randint(1, 400), rng.randint(1, 200)) for _ in range(3))
        else:
            vals = tuple(10 ** rng.uniform(-1.5, 1) for _ in range(3))
        first, second = _analysis_records(Params(*vals)), _analysis_records(Params(*vals))
        assert first == second, vals
        for r, twin in zip(first, second):
            seen.add(type(r).__name__)
            copy = pickle.loads(pickle.dumps(r))
            assert type(copy) is type(r) and copy == r, r
            assert hash(r) == hash(twin) == hash(copy), r
    assert seen == {
        "Params", "CaseLabel", "Discriminants", "DulacReport", "SingularPoint", "SectorData",
        "UniquenessReport", "HopfData",
    }
    # portraits A, B and C of the README
    for vals in ((2, 1, 1), (0.5, 1, 0.25), (0.9, 1.2, 0.3)):
        rep = build_portrait(Params(*vals))
        assert rep == build_portrait(Params(*vals)), vals
        assert pickle.loads(pickle.dumps(rep)) == rep, vals


def test_disc_projection_properties():
    rng = np.random.default_rng(71)
    for _ in range(100):
        x, y = rng.uniform(0.0, 50.0, 2)
        px, py = _project(x, y)
        assert 0.0 <= px < 1.0 and 0.0 <= py < 1.0
    # strictly increasing projected radius along rays, bounded by 1
    direction = np.array([0.6, 0.8])
    radii = [math.hypot(*_project(*(direction * r))) for r in np.linspace(0.1, 200, 50)]
    assert all(r1 > r0 for r0, r1 in zip(radii, radii[1:]))
    assert radii[-1] < 1.0


def test_thin_takes_the_rounded_linspace_indices():
    for n in range(601):
        pts = list(range(n))
        assert _thin(pts, 600) is pts
    for n in range(601, 5001):
        assert _thin(list(range(n)), 600) == np.linspace(0, n - 1, 600).round().astype(int).tolist()


def test_portrait_a_limits(report_a):
    assert report_a.label.portrait == "A"
    assert report_a.label.status == "proven"
    assert report_a.cycle is None
    for tr in report_a.representatives:
        assert tr.alpha_limit == "O1"
        assert tr.omega_limit == "P1"
    assert not any("mismatch" in w for w in report_a.warnings)


def test_portrait_b_limits(report_b):
    assert report_b.label.portrait == "B"
    assert report_b.cycle is not None and report_b.cycle.found
    assert report_b.cycle_points is not None
    for tr in report_b.representatives:
        assert tr.omega_limit == "cycle"
    # orbits leave either the infinite node or the interior repelling focus
    assert {tr.alpha_limit for tr in report_b.representatives} <= {"O1", "P2"}
    assert not any("mismatch" in w for w in report_b.warnings)


def test_portrait_c_limits(report_c):
    assert report_c.label.portrait == "C"
    assert report_c.label.status == "proven"
    for tr in report_c.representatives:
        assert tr.omega_limit == "P2"
    assert not any("mismatch" in w for w in report_c.warnings)


@pytest.mark.parametrize(
    "triple",
    [
        (0.05683323644478372, 6.802847627867152, 1.0751050535137032),
        (0.0123, 1.3174, 1.2244),  # case 3: P0 is a saddle, P2 an unstable node
        (0.5, 1.0, 0.25),
        (0.599, 1.0, 0.25),  # case 5 just below the Hopf point b0 = 0.6
        (0.3158298635186272, 6.95340195203038, 0.1949516018567411),
    ],
)
def test_reported_limits_attract_in_their_time_direction(triple):
    # a saddle, or a node that repels in the orbit's time direction, is never
    # the alpha- or omega-limit of an interior orbit, nor the stable cycle an alpha-limit
    rep = build_portrait(Params(*triple))
    interior = rep.representatives + [tr for tr in rep.separatrices if tr.origin == "P1"]
    assert interior
    for sgn in (1.0, -1.0):
        modes = {name: mode for name, _, _, mode in _stops(Params(*triple), sgn)}
        for tr in interior:
            limit = tr.omega_limit if sgn > 0 else tr.alpha_limit
            if tr.origin == "P1" and sgn < 0:
                # the separatrix is the unstable manifold of the saddle P1, which it leaves
                assert limit == "P1", (tr.origin, sgn, limit)
            elif limit == "cycle":
                assert sgn > 0, (tr.origin, sgn, limit)
            elif limit in modes:
                assert modes[limit] == "always", (tr.origin, sgn, limit)


@pytest.mark.parametrize(
    "triple",
    [
        (2.0, 1.0, 1.0),  # README A
        (0.5, 1.0, 0.25),  # README B
        (0.9, 1.2, 0.3),  # README C
        (0.00337, 1.861, 1.722),  # small b: the flow near P0 along the axes is slow
        (0.0068, 1.226, 0.174),
        (0.0123, 1.3174, 1.2244),
        (F(3, 5), 1, F(1, 4)),  # case 7
    ],
)
def test_axis_traces_come_from_the_closed_form(triple, monkeypatch):
    # on y = 0 the field is x' = -x(x - 1)(x + b), on x = 0 it is y' = -delta*b*y, so
    # P0's separatrices are P0 -> P1 and O2 -> P0 and no orbit is integrated on an axis
    import kportrait.numerics as numerics
    import kportrait.portrait as portrait

    starts = []
    real = numerics.integrate

    def recorded(p, start, *args, **kwargs):
        starts.append(start)
        return real(p, start, *args, **kwargs)

    # where P2 exists both halves reach integrate through the section walk of numerics
    monkeypatch.setattr(numerics, "integrate", recorded)
    monkeypatch.setattr(portrait, "integrate", recorded)
    unstable, stable = build_portrait(Params(*triple)).separatrices[:2]
    assert (unstable.role, unstable.origin, unstable.stability) == ("axis", "P0", "unstable")
    assert (unstable.alpha_limit, unstable.omega_limit) == ("P0", "P1")
    assert (stable.role, stable.origin, stable.stability) == ("axis", "P0", "stable")
    assert (stable.alpha_limit, stable.omega_limit) == ("O2", "P0")
    # ordered by time: along the open segment toward P1, and down the y-axis toward P0
    xs = [x for x, y in unstable.points if y == 0.0]
    assert len(xs) == len(unstable.points) and 0.0 < xs[0] and xs[-1] < 1.0
    assert all(u < v for u, v in zip(xs, xs[1:]))
    ys = [y for x, y in stable.points if x == 0.0]
    assert len(ys) == len(stable.points) and ys[-1] > 0.0
    assert all(u > v for u, v in zip(ys, ys[1:]))
    assert starts and all(x > 0.0 and y > 0.0 for x, y in starts)


def test_the_p1_separatrix_turn_is_integrated_once(monkeypatch):
    # detect_limit_cycle takes its outer bracket from the first section crossing of the P1
    # separatrix, and the separatrix walk starts with that turn: it is integrated once
    import pickle

    import kportrait.numerics as numerics
    import kportrait.portrait as portrait

    starts = []
    real = numerics.integrate

    def recorded(p, start, *args, **kwargs):
        starts.append(tuple(start))
        return real(p, start, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate", recorded)
    monkeypatch.setattr(portrait, "integrate", recorded)
    p = Params(0.5, 1.0, 0.25)  # README B
    seed = numerics._p1_separatrix_start(p)
    want = report_to_dict(build_portrait(p))
    # 50 calls: the cycle search, the separatrix's forward walk and both walks of the outer
    # and the inner representative, one call per turn
    assert len(starts) == 50 and starts.count(seed) == 1
    # the kept turn pickles with the other caches of p, and a second pass integrates it no more
    back = pickle.loads(pickle.dumps(p))
    assert back == p and vars(back).keys() == vars(p).keys()
    starts.clear()
    assert report_to_dict(build_portrait(back)) == want and numerics.separatrix_section_crossing(back)
    assert len(starts) == 49 and seed not in starts


@pytest.mark.parametrize(
    "triple, stability, alpha, omega",
    [
        ((0.5, 1.0, 0.25), "unstable", "P1", "cycle"),  # README B
        ((0.9, 1.2, 0.3), "unstable", "P1", "P2"),  # README C
        ((1.0, 3.0, 1.5), "center", "O1", "P1"),  # case 2: the centre branch has both halves
    ],
)
def test_p1_separatrix_limits(triple, stability, alpha, omega):
    # in cases 3-7 the separatrix is P1's unstable manifold, integrated forward
    # from P1 only, so no backward half runs out along the x-axis to O1
    rep = build_portrait(Params(*triple))
    (sep,) = [tr for tr in rep.separatrices if tr.origin == "P1"]
    assert (sep.stability, sep.alpha_limit, sep.omega_limit) == (stability, alpha, omega)
    starts_at_p1 = math.dist(sep.points[0], (1.0, 0.0)) <= 1e-5
    assert starts_at_p1 == (alpha == "P1"), sep.points[0]


@pytest.mark.parametrize(
    "triple, p2",
    [((20.0, 41.0, 1.0), (0.5, 10.25)), ((40.0, 81.0, 1.0), (0.5, 20.25)), ((100.0, 201.0, 1.0), (0.5, 50.25))],
)
def test_p2_beyond_radius_ten_is_reached(triple, p2):
    # in cases 4, 6 and 7 x2 < 1 but y2 grows toward c/(4 delta); the stop tests and the section
    # compare in x and y in the one chart that holds the whole quadrant, so an orbit reaches P2
    rep = build_portrait(Params(*triple))
    assert rep.label.case == 6 and rep.finite_points[2].location == p2
    (sep,) = [tr for tr in rep.separatrices if tr.origin == "P1"]
    assert [sep.omega_limit] + [tr.omega_limit for tr in rep.representatives] == ["P2", "P2"]
    assert not [w for w in rep.warnings if w.startswith("portrait-corroboration-mismatch")], rep.warnings


@pytest.mark.parametrize("triple", [(5.0, 100.0, 2.0), (2.0, 50.0, 1.0), (1.0, 30.0, 0.5)])
def test_p1_separatrix_passes_near_o2_and_settles_into_p2(triple):
    # P1's separatrix climbs to y = 28 .. 69 along the y-axis, toward the degenerate O2, with
    # x down to 1e-24, before it turns; its walk, budgeted in true time, settles into P2
    rep = build_portrait(Params(*triple))
    assert (rep.label.case, rep.label.portrait) == (6, "C")
    (sep,) = [tr for tr in rep.separatrices if tr.origin == "P1"]
    assert sep.omega_limit == "P2" and max(y for _, y in sep.points) > 25.0
    assert not [w for w in rep.warnings if w.startswith("portrait-corroboration-mismatch")], rep.warnings


@pytest.mark.parametrize(
    "triple", [(0.19995720197436545, 0.14476629985548972, 0.05006896677288789), (0.10407548250921636, 0.28197638086039284, 0.1587655420016215)]
)
def test_a_return_onto_the_cycle_reads_cycle_on_either_side_of_it(triple):
    # the section map contracts about 1e-6-fold per turn here, so the one return that the time budget
    # allows lands within 1e-9 of the found cycle, past it; within _SETTLED a crossing is on the cycle
    rep = build_portrait(Params(*triple))
    assert [tr.omega_limit for tr in rep.representatives] == ["cycle", "cycle"]
    assert rep.warnings == []


def test_no_trace_ends_at_the_degenerate_o2():
    # O2 attracts no interior orbit: at (0.3, 1e6, 0.25), where P2 = (7.5e-8, 0.3) and the orbits
    # dip toward the y-axis deeper than any double, none of them reads omega = O2
    rep = build_portrait(Params(0.3, 1e6, 0.25))
    assert [tr.omega_limit for tr in rep.separatrices + rep.representatives].count("O2") == 0


@pytest.mark.parametrize(
    "triple, limit",
    [
        ((F(3, 5), 1, F(1, 4)), "P2"),  # case 7: A = 0 exactly, P2 a weak focus
        ((0.6, 1.6, 0.4), "P2"),  # case 7 in floats
        ((0.6673839077599302, 0.8416914094837904, 0.15088470811080343), "cycle"),  # case 5, slow returns
    ],
)
def test_forward_limits_come_from_the_section_crossings(triple, limit):
    # monotone crossings settle the limit: into P2 in case 7, where no cycle exists, and
    # onto the unique cycle in case 5, where P2 repels, from outside and from inside it
    rep = build_portrait(Params(*triple))
    assert [tr.omega_limit for tr in rep.representatives] == [limit] * (2 if limit == "cycle" else 1)
    (sep,) = [tr for tr in rep.separatrices if tr.origin == "P1"]
    assert sep.omega_limit == limit


def test_backward_halves_are_walked_and_read_alpha_from_their_crossings(monkeypatch):
    # README B: inside the cycle the backward crossings of the section ray fall toward x2 and
    # settle, which gives alpha = P2 where P2 repels; the outer orbit escapes to O1
    import kportrait.portrait as portrait

    walks = []
    real = portrait._walk

    def recorded(p, start, direction):
        walks.append((direction, *real(p, start, direction)))
        return walks[-1][1:]

    monkeypatch.setattr(portrait, "_walk", recorded)
    rep = build_portrait(Params(0.5, 1.0, 0.25))
    back = [(orbit, xs) for direction, orbit, xs in walks if direction == "backward"]
    (outer, _), (inner, xs) = back
    assert (outer.terminal, outer.detail) == ("escaped", "O1")
    assert inner.terminal == "hit-section" and len(xs) > 2
    assert all(v < u for u, v in zip(xs, xs[1:])), xs
    assert [tr.alpha_limit for tr in rep.representatives] == ["O1", "P2"]
    assert [tr.omega_limit for tr in rep.representatives] == ["cycle"] * 2


# README A, B and C, case 7 in floats, exact cases 2 and 7, and the first 16 triples of a
# draw with b in 10^U(-2, 0.5), c in 10^U(-1, 1) and delta in 10^U(-1.5, 0.5)
_DRAW = random.Random(5)
_CLASS_TRIPLES = [(2.0, 1.0, 1.0), (0.5, 1.0, 0.25), (0.9, 1.2, 0.3), (0.6, 1.6, 0.4), (3, 1, F(1, 4)), (F(3, 5), 1, F(1, 4))]
_CLASS_TRIPLES += [tuple(10 ** _DRAW.uniform(lo, hi) for lo, hi in ((-2, 0.5), (-1, 1), (-1.5, 0.5))) for _ in range(16)]
_CLASSES = {
    "A": {("O1", "P1")},
    "B": {("O1", "cycle"), ("P2", "cycle")},
    "B-inner": {("P2", "cycle")},
    "C": {("O1", "P2")},
}


@pytest.mark.parametrize(
    "triple, classes",
    zip(_CLASS_TRIPLES, "A B C C A C B A A B A A B-inner B-inner B C C A B-inner C B-inner A".split()),
)
def test_one_orbit_per_region_shows_every_class_of_the_eight_orbit_ladders(triple, classes):
    # the resolved (alpha, omega) classes are those that eight seeds on a geometric ladder
    # along the section ray, or on a diagonal ladder without P2, showed when they were drawn;
    # the cycles of the 14th and 21st, slow case-5 triples, lie beyond the outer seed, so both
    # representatives show the inner class
    rep = build_portrait(Params(*triple))
    got = {(tr.alpha_limit, tr.omega_limit) for tr in rep.representatives}
    assert {pair for pair in got if "unresolved" not in pair} == _CLASSES[classes]


@pytest.mark.parametrize("start_x, direction", [(0.9, "forward"), (0.3, "backward")])
def test_a_settled_walk_draws_its_last_two_crossings_within_a_pixel(start_x, direction):
    # README B: a walk stops once two successive crossings are too close to tell apart on the
    # 640 px disc, onto the cycle forward and into P2 backward
    from kportrait.numerics import _MAX_STEPS, _walk, interior_point
    from kportrait.portrait import _MARGIN, _SIZE

    p = Params(0.5, 1.0, 0.25)
    _, y2 = interior_point(p)
    orbit, xs = _walk(p, (start_x, y2), direction)
    assert orbit.terminal == "hit-section" and len(orbit.samples) <= _MAX_STEPS
    (u0, v0), (u1, v1) = (_project(x, y2) for x in xs[-2:])
    assert (_SIZE - 2.0 * _MARGIN) * math.hypot(u1 - u0, v1 - v0) < 1.0, xs[-2:]


def test_portrait_letter_matches_classification(report_a, report_b, report_c):
    # the JSON report and the SVG caption carry the letter and status of the label
    for rep in (report_a, report_b, report_c):
        d = report_to_dict(rep)
        assert (d["portrait"], d["status"]) == (rep.label.portrait, rep.label.status)
        assert (d["case"]["portrait"], d["case"]["status"]) == (rep.label.portrait, rep.label.status)
        doc = render_svg(rep)
        assert f"portrait {rep.label.portrait}</text>" in doc
        assert f"{rep.label.status.upper()}</text>" in doc


def test_separatrix_bookkeeping(report_a, report_b):
    # P0's separatrices are the axes in every case
    axis_origins = [tr.origin for tr in report_a.separatrices if tr.role == "axis"]
    assert axis_origins == ["P0", "P0"]
    # portraits B/C carry the P1 separatrix entering the open quadrant
    p1_traces = [tr for tr in report_b.separatrices if tr.origin == "P1"]
    assert len(p1_traces) == 1
    assert p1_traces[0].omega_limit == "cycle"
    # portrait A has no interior saddle connection
    assert not [tr for tr in report_a.separatrices if tr.origin == "P1"]


def test_conjectured_zone_report():
    rep = build_portrait(Params(0.1, 0.1, 0.09))
    assert rep.label.portrait == "C"
    assert rep.label.status == "conjectured"
    assert any("classification-sources-conflict" in w for w in rep.warnings)


def test_render_svg_deterministic(report_b):
    s1 = render_svg(report_b)
    s2 = render_svg(report_b)
    assert s1 == s2


def test_render_svg_well_formed(report_a, report_b, report_c):
    # case 2 (b delta = c - delta) draws P1 as a saddle-node
    report_case2 = build_portrait(Params(3.0, 1.0, 0.25))
    for rep, letter in ((report_a, "A"), (report_b, "B"), (report_c, "C"), (report_case2, "A")):
        doc = render_svg(rep)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert f"portrait {letter}" in doc
        if letter == "B":
            assert 'class="cycle"' in doc
        else:
            assert 'class="cycle"' not in doc
        # singular point glyphs present
        assert 'data-name="P0"' in doc
        assert 'data-name="O1"' in doc and 'data-name="O2"' in doc
    (p1,) = [g for g in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}g") if g.get("data-name") == "P1"]
    assert '<g class="pt saddle-node" data-name="P1" data-kind="saddle-node">' in doc
    assert [child.tag.split("}")[1] for child in p1] == ["title", "circle", "path"]
    # the filled half-disc: an arc from the top of the circle to its bottom, closed by its chord
    x0, y0, x1, y1 = map(float, re.fullmatch(r"M (\S+) (\S+) A 5\.00 5\.00 0 0 1 (\S+) (\S+) Z", p1[2].get("d")).groups())
    cx, cy = float(p1[1].get("cx")), float(p1[1].get("cy"))
    assert x0 == x1 == cx and (y0, y1) == pytest.approx((cy - 5.0, cy + 5.0), abs=0.006)


def test_render_svg_empty_orbits_is_valid(report_a):
    bare = report_a._replace(separatrices=[], representatives=[])
    doc = render_svg(bare)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")


def test_render_svg_conjectured_banner():
    rep = build_portrait(Params(0.1, 0.1, 0.09))
    doc = render_svg(rep)
    assert "CONJECTURED" in doc
    assert 'class="status-conjectured"' in doc


def test_report_schema_totality(report_a, report_b):
    d = report_to_dict(report_a)
    assert d["schema_version"] == "1"
    assert d["cycle"] is None  # null, never absent
    assert d["warnings"] == []
    assert d["hopf"] is None
    db = report_to_dict(report_b)
    assert db["cycle"]["found"] is True
    assert db["hopf"]["b0"] == pytest.approx(0.6)
    order = list(d.keys())
    assert order == list(db.keys())  # stable field ordering


def test_report_round_trip(report_b):
    text = write_report(report_b)
    parsed = json.loads(text)
    ref = report_to_dict(report_b)

    def compare(a, b):
        if isinstance(a, dict):
            assert set(a) == set(b)
            for k in a:
                compare(a[k], b[k])
        elif isinstance(a, (list, tuple)):
            assert len(a) == len(b)
            for u, v in zip(a, b):
                compare(u, v)
        elif isinstance(a, float):
            assert a == b  # 17 significant digits round-trip exactly
        else:
            assert a == b

    compare(parsed, ref)
    # serialise(parse(serialise(x))) is stable
    assert json.loads(text) == json.loads(write_report(report_b))


def test_report_numbers_17_digits(report_b):
    text = write_report(report_b)
    # a full-precision float appears verbatim
    assert format(float(report_b.cycle.section_x), ".17g") in text


def test_exact_params_round_into_report():
    from fractions import Fraction as F

    rep = build_portrait(Params(F(1, 2), F(1), F(1, 4)))
    d = report_to_dict(rep)
    assert d["params"]["exact"] == {"b": "1/2", "c": "1", "delta": "1/4"}


@pytest.mark.parametrize("c", [F(10**100), F(10**300)], ids=["c=1e100", "c=1e300"])
def test_exact_input_beyond_float_arithmetic_still_gets_its_portrait(c):
    # the float arithmetic of Hopf data and integration leaves the range of doubles, yet the
    # exact classification stands and every failure is a warning
    p = Params(F(3, 10), c, F(1, 4))
    rep = build_portrait(p)
    assert (rep.label.case, rep.label.portrait) == (5, "B")
    assert [q.kind for q in rep.finite_points] == ["saddle", "saddle", "unstable-focus"]
    heads = {w.split(":")[0] for w in rep.warnings}
    assert {"hopf-analysis-unavailable", "cycle-detection-failed", "integration-failure"} <= heads
    # each integration failure names the direction and start of its orbit, then what failed
    failures = [w for w in rep.warnings if w.startswith("integration-failure:")]
    named = r"integration-failure: (forward|backward) orbit from \([^,]+, [^,]+\): step size underflow"
    assert failures and all(re.fullmatch(named, w) for w in failures), failures
    # so does the cycle search: its outer seed, the P1 separatrix, is the orbit that fails
    cycle_failures = [w for w in rep.warnings if w.startswith("cycle-detection-failed:")]
    assert cycle_failures == [f"cycle-detection-failed: forward orbit from {_p1_separatrix_start(p)}: step size underflow"]
    assert rep.hopf is None and rep.cycle is None


def test_build_portrait_lets_programming_errors_raise(monkeypatch):
    import kportrait.portrait as portrait

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(portrait, "integrate", broken)
    with pytest.raises(ValueError, match="bug"):
        build_portrait(Params(2.0, 1.0, 1.0))
    monkeypatch.undo()
    monkeypatch.setattr(portrait, "hopf_analysis", broken)
    with pytest.raises(ValueError, match="bug"):
        build_portrait(Params(0.5, 1.0, 0.25))
