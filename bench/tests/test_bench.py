"""Tests of the benchmark itself: oracle, inputs, checks and tracing.

Run with ``python3 -m pytest bench/tests``.
"""

import json
from fractions import Fraction

import pytest

import kportrait
import kportrait.cli
import kportrait.local
import kportrait.model
import kportrait.numerics
import layertrace
import oracle
import run
import workloads

# README example (0.5, 1, 0.25): its cycle, closed by the DOP853 oracle
GOOD_CYCLE = (0.5181042285971519, 27.070077498291223, 0.488335775925638)


def item(b, c, d):
    return workloads.Item(Fraction(b), Fraction(c), Fraction(d), False, oracle.expected(b, c, d))


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def test_oracle_matches_paper_table():
    assert oracle.expected(2, 1, 1).case == 1
    assert oracle.expected(0.5, 1, 0.25).case == 5
    assert oracle.expected(0.9, 1.2, 0.3).case == 6
    surface = oracle.expected(Fraction(3, 5), 1, Fraction(1, 4))
    assert (surface.case, surface.boundary, surface.letter) == (7, ("A-zero",), "C")
    assert oracle.expected(3, 1, Fraction(1, 4)).boundary == ("case2-boundary",)
    assert oracle.first_lyapunov(1, Fraction(1, 4)) < 0


def test_cycle_closure_oracle_accepts_the_true_cycle():
    x, period, _ = GOOD_CYCLE
    gap = oracle.cycle_closure(0.5, 1.0, 0.25, x, period)
    assert abs(gap[0]) < 1e-6 and abs(gap[1]) < 1e-6 * period
    assert abs(oracle.cycle_closure(0.5, 1.0, 0.25, x + 0.01, period)[0]) > 1e-6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed(name, work_dir):
    wl = workloads.WORKLOADS[name](work_dir)
    assert wl.inputs(3) == wl.inputs(3)
    assert wl.inputs(3) != wl.inputs(4)


def test_portrait_inputs_are_stratified_over_letters(work_dir):
    letters = [it.want.letter for it in workloads.Portraits(work_dir).inputs(1)]
    assert letters.count("A") == letters.count("B") == letters.count("C")


def _run_ops(wl, items):
    tally, cats = workloads.Tally(len(items)), set()
    for index, it in enumerate(items):
        seconds, verdict = run.execute(wl, it)
        tally.add(index, seconds, verdict)
        cats |= {cat for cat, _ in verdict.reasons}
    return tally, cats


def test_analysis_passes_and_garbage_fails(work_dir, monkeypatch):
    wl = workloads.Analysis(work_dir)
    items = wl.inputs(1)[:12]
    tally, _ = _run_ops(wl, items)
    assert tally.failed == 0
    assert wl.summary(tally)["analysis_ms_p50"] > 0

    monkeypatch.setattr(kportrait.local, "lyapunov_procedural", lambda c, d: 1.0)
    tally, cats = _run_ops(wl, items)
    hopf_ops = sum(1 for it in items if it.c > it.d)
    assert tally.failed == hopf_ops
    assert "ell1-sign" in cats


def _listed_workloads():
    return [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", _listed_workloads())
def test_listed_workloads_pass_their_checks(name, work_dir):
    wl = workloads.WORKLOADS[name](work_dir)
    tally, cats = _run_ops(wl, wl.inputs(2)[:30])
    assert (tally.failed, cats) == (0, set())


def _on_s2(it):
    return 1 + it.c - it.d - it.b - it.b * it.d == 0


def test_s2_points_are_kept_to_their_own_workload(work_dir):
    for seed in range(1, 21):
        assert not any(_on_s2(it) for it in workloads.Analysis(work_dir).inputs(seed))
        assert not any(_on_s2(it) for _, it in workloads.Cli(work_dir).inputs(seed))
    assert all(_on_s2(it) for it in workloads.S2Surface(work_dir).inputs(1))


def test_cli_garbage_fails(work_dir, monkeypatch):
    wl = workloads.Cli(work_dir)
    ops = wl.inputs(1)[:14]
    monkeypatch.setattr(kportrait.cli, "lyapunov_procedural", lambda c, d: 1.0)
    monkeypatch.setattr(kportrait.cli, "finite_singular_points", lambda p: [])
    tally, cats = _run_ops(wl, ops)
    assert tally.failed == tally.attempted
    assert {"ell1-sign", "finite-points"} <= cats
    assert wl.summary(tally)["cli_ms_p50"] is None


def test_cli_wrong_letter_fails(work_dir, monkeypatch):
    real = kportrait.model.classify_case

    def shifted(p):
        label = real(p)
        return type(label)(**{**vars(label), "case": label.case % 7 + 1})

    monkeypatch.setattr(kportrait.cli, "classify_case", shifted)
    wl = workloads.Cli(work_dir)
    tally, cats = _run_ops(wl, [op for op in wl.inputs(1)[:14] if op[0] == "classify"])
    assert tally.failed == tally.attempted
    assert cats == {"classify"}


def test_raising_layer_is_a_failed_operation(work_dir, monkeypatch):
    def boom(p):
        raise RuntimeError("stubbed layer")

    monkeypatch.setattr(kportrait.model, "classify_case", boom)
    wl = workloads.Analysis(work_dir)
    tally, cats = _run_ops(wl, wl.inputs(1)[:5])
    assert tally.failed == tally.attempted
    assert cats == {"raised"}
    assert wl.summary(tally)["analysis_ms_p50"] is None


def _stub_cycle(monkeypatch, x, period, mult):
    result = kportrait.numerics.CycleResult(True, x, period, mult, True)
    monkeypatch.setattr(kportrait.cli, "detect_limit_cycle", lambda p, cfg=None: result)


def test_cycle_check_accepts_a_true_cycle(work_dir, monkeypatch):
    _stub_cycle(monkeypatch, *GOOD_CYCLE)
    wl = workloads.Cycles(work_dir)
    tally, cats = _run_ops(wl, [item(0.5, 1.0, 0.25)])
    assert cats == set()
    assert wl.summary(tally)["cycle_ms_p50"] > 0


@pytest.mark.parametrize(
    "stub, category",
    [
        ((GOOD_CYCLE[0] + 1e-3, GOOD_CYCLE[1], GOOD_CYCLE[2]), "closure"),
        ((GOOD_CYCLE[0], GOOD_CYCLE[1] * 1.01, GOOD_CYCLE[2]), "closure"),
        ((GOOD_CYCLE[0], GOOD_CYCLE[1], 1.5), "multiplier"),
    ],
)
def test_cycle_garbage_fails(work_dir, monkeypatch, stub, category):
    _stub_cycle(monkeypatch, *stub)
    wl = workloads.Cycles(work_dir)
    tally, cats = _run_ops(wl, [item(0.5, 1.0, 0.25)])
    assert category in cats
    assert wl.summary(tally)["cycle_ms_p50"] is None


def test_cycle_found_where_none_exists_fails(work_dir, monkeypatch):
    _stub_cycle(monkeypatch, *GOOD_CYCLE)
    wl = workloads.Cycles(work_dir)
    _, cats = _run_ops(wl, [item(0.9, 1.2, 0.3)])
    assert cats == {"found"}


def test_portrait_garbage_svg_fails(work_dir, monkeypatch):
    monkeypatch.setattr(kportrait.cli, "render_svg", lambda report: "<svg")
    wl = workloads.Portraits(work_dir)
    tally, cats = _run_ops(wl, [item(2, 1, 1)])
    assert "svg" in cats
    assert wl.summary(tally)["portrait_ms_p50"] is None


def test_scan_missing_cells_fail(work_dir, monkeypatch):
    monkeypatch.setattr(kportrait.cli, "conjecture_scan", lambda grid, cfg, jobs=1: [])
    wl = workloads.Scan(work_dir)
    tally, cats = _run_ops(wl, wl.inputs(1)[:1])
    assert "cell-count" in cats
    assert wl.summary(tally)["scan_cells_per_s"] == 0.0


def _count_metrics(metrics):
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("name", ["analysis", "cycles"])
def test_traced_counts_repeat_for_a_seed(name, work_dir):
    counts = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name](work_dir)
        _, metrics, _ = run.traced_run(wl, wl.inputs(5))
        counts.append(_count_metrics(metrics))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_tracer_sees_every_binding_and_restores_it():
    orig = kportrait.numerics.integrate
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert kportrait.numerics.integrate is kportrait.portrait.integrate is kportrait.integrate
        assert kportrait.numerics.integrate is not orig
        assert kportrait.cli.build_portrait is kportrait.portrait.build_portrait
    finally:
        tracer.uninstall()
    assert kportrait.numerics.integrate is orig is kportrait.portrait.integrate


def test_removed_layer_is_reported_absent(monkeypatch):
    monkeypatch.delattr(kportrait.numerics, "cycle_loop")
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["numerics.cycle_loop"]
    assert tracer.metrics()["numerics.cycle_loop.calls"] == 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layertrace.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [layertrace.unit(n) for n in layertrace.metric_names()]
    assert {m["name"] for m in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert spec["command"][1:] == ["bench/run.py"]
    assert {m["name"] for m in spec["end_to_end"]} == {"op_ms_p50", "op_ms_p90", "setup_s", "peak_rss_mb"}
