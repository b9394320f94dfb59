"""The benchmark workloads: seeded inputs, one operation, its checks.

Every operation goes through the entry point a user calls: ``kportrait.cli.main``
for cli, portraits, cycles and the scan, the library functions for the
analysis pipeline (analysis, s2-surface).  kportrait is looked up at call time (never imported at module
level) so that the set-up probe can time its import, and so that traced
wrappers installed on the modules are seen.

A check returns failure reasons as (category, message) pairs; an operation
with any reason counts as failed and is left out of the latency figures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys
import time
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass
from fractions import Fraction

import oracle

FORBIDDEN_WARNINGS = (
    "orbit-rejected",
    "integration-failure",
    "cycle-detection-failed",
    "portrait-corroboration-mismatch",
)
SCAN_HEADER = "b,c,delta,case,verdict,section_x,multiplier,seeds"
README_GRID = ((0.65, 1.3, 6), (0.9, 1.5, 6), (0.15, 0.4, 6))


@dataclass(frozen=True)
class Item:
    """One parameter triple, exact, with the oracle's verdict on it."""

    b: Fraction
    c: Fraction
    d: Fraction
    exact: bool  # the program receives Fractions (analysis) or exact surface points
    want: oracle.Expected

    def floats(self) -> tuple[float, float, float]:
        return float(self.b), float(self.c), float(self.d)

    def argv(self) -> list[str]:
        b, c, d = self.floats()
        return ["--b", repr(b), "--c", repr(c), "--delta", repr(d)]


@dataclass
class Verdict:
    reasons: list[tuple[str, str]]
    cells: int = 0  # conclusive scan cells of a passed scan operation
    jobs_s: tuple[float, float] = (0.0, 0.0)  # scan seconds at --jobs 1 and --jobs 2


# exact points on a boundary surface: b as a function of (c, delta)
SURFACES = {
    2: lambda c, d: (c - d) / d,  # b*delta = c - delta
    7: lambda c, d: (c - d) / (c + d),  # A = 0
    "S2": lambda c, d: (1 + c - d) / (1 + d),  # 1 + c - delta - b - b*delta = 0
}


def draw_surface(rng: random.Random, surface) -> Item:
    """An exact point on one boundary surface: on S2 inside region A < 0,
    on the case-2 and A = 0 surfaces off S2."""
    for _ in range(10_000):
        c = Fraction(rng.randint(16, 32), 20)
        d = Fraction(rng.randint(3, 10), 20)
        b = SURFACES[surface](c, d)
        want = oracle.expected(b, c, d)
        on_s2 = SURFACES["S2"](c, d) == b
        if want.region == "S2" if surface == "S2" else not on_s2:
            return Item(b, c, d, True, want)
    raise RuntimeError(f"no point found on surface {surface}")


def draw(rng: random.Random, case: int, exact: bool = False) -> Item:
    """A parameter triple of the given case, at least 1e-6 (relative) away
    from the surfaces that separate the cases, or exactly on one for cases
    2 and 7."""
    if case in SURFACES:
        return draw_surface(rng, case)
    for _ in range(10_000):
        c = rng.uniform(0.8, 1.6)
        # case 3 (a node inside the cycle) needs delta close to c and small b
        d = c * rng.uniform(0.3, 0.97) if case == 3 else rng.uniform(0.15, 0.5)
        b0, b1 = (c - d) / (c + d), (c - d) / d
        if case == 1:
            b = b1 * rng.uniform(1.1, 2.0)
        elif case == 3:
            b = b0 * rng.uniform(0.01, 0.97)
        elif case == 5:
            # small cycles near b0, large ones at small b
            b = b0 * rng.uniform(0.1, 0.97)
        else:
            b = b0 + (b1 - b0) * rng.uniform(0.02, 0.98)
        q = (Fraction(b), Fraction(c), Fraction(d))
        if exact:
            q = tuple(v.limit_denominator(1000) for v in q)
            if not min(q) > 0:
                continue
        want = oracle.expected(*q)
        if want.case == case and want.margin > 1e-6:
            return Item(*q, exact, want)
    raise RuntimeError(f"no case-{case} sample found")


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from kportrait import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _exit_reason(rc: int, err: str) -> list[tuple[str, str]]:
    if rc == 0:
        return []
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return [("exit-code", f"exit {rc}: {last}")]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Tally:
    """Running totals of one run.

    Kept compact (no per-operation objects) so that the benchmark's own
    memory does not grow with the number of operations a run completes.
    """

    def __init__(self, n_items: int) -> None:
        self.best_s = [math.inf] * n_items  # fastest attempt of each input
        self.passed_ms = array("d")
        self.attempted = self.failed = 0
        self.failures: dict[str, dict] = {}
        self.cells = 0
        self.jobs_s = [0.0, 0.0]

    def add(self, index: int, seconds: float, verdict: Verdict) -> None:
        self.attempted += 1
        self.best_s[index] = min(self.best_s[index], seconds)
        self.cells += verdict.cells
        self.jobs_s[0] += verdict.jobs_s[0]
        self.jobs_s[1] += verdict.jobs_s[1]
        if not verdict.reasons:
            self.passed_ms.append(seconds * 1e3)
            return
        self.failed += 1
        seen = set()
        for category, message in verdict.reasons:
            if category not in seen:
                seen.add(category)
                entry = self.failures.setdefault(category, {"ops": 0, "example": message})
                entry["ops"] += 1

    def best_ms(self) -> list[float]:
        """Each attempted input's fastest time, ascending."""
        return sorted(t * 1e3 for t in self.best_s if t < math.inf)


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _latency(prefix: str, tally: Tally) -> dict:
    """p50 and p90 over passed operations; None (never 0) when none passed."""
    ms = sorted(tally.passed_ms)
    return {
        f"{prefix}_ms_p50": percentile(ms, 50) if ms else None,
        f"{prefix}_ms_p90": percentile(ms, 90) if ms else None,
        f"{prefix}_ms_n": len(ms),
    }


class Workload:
    """Base: ``inputs`` draws the seeded list, ``run`` is the timed
    operation, ``check`` judges its output, ``summary`` gives the metrics
    named after the workload."""

    name = ""
    trace_ops = 0  # operations in a traced run; fixed so counts repeat

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        # the runner swaps in the tracer's pause for work that is not traced
        self.untraced = contextlib.nullcontext

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, raw) -> Verdict:
        raise NotImplementedError

    def summary(self, tally: Tally) -> dict:
        raise NotImplementedError


class Portraits(Workload):
    """``kportrait portrait --out --report``: letters A, B, C in equal parts."""

    name = "portraits"
    trace_ops = 12
    LETTER_CASES = {"A": (1, 2), "B": (3, 5), "C": (4, 6, 7)}

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(f"portraits-{seed}")
        items = []
        for k in range(60):
            cases = self.LETTER_CASES["ABC"[k % 3]]
            items.append(draw(rng, cases[(k // 3) % len(cases)]))
        return items

    def run(self, item: Item):
        return _cli(["portrait", *item.argv(), "--out", self.path("p.svg"), "--report", self.path("p.json")])

    def check(self, item: Item, raw) -> Verdict:
        rc, _out, err = raw
        reasons = _exit_reason(rc, err)
        try:
            reasons += self._check_files(item)
        finally:
            for name in ("p.svg", "p.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.path(name))
        return Verdict(reasons)

    def _check_files(self, item: Item) -> list[tuple[str, str]]:
        try:
            with open(self.path("p.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return [("report-unreadable", str(exc))]
        reasons = []
        if report.get("schema_version") != "1":
            reasons.append(("schema", repr(report.get("schema_version"))))
        want = item.want
        if report.get("portrait") != want.letter or report.get("case", {}).get("case") != want.case:
            reasons.append(("letter", f"got {report.get('portrait')}, want {want.letter} (case {want.case})"))
        attractor = oracle.ATTRACTOR[want.letter]
        omegas = [o.get("omega_limit") for o in report.get("representative_orbits", [])]
        wrong = sorted({w for w in omegas if w != attractor})
        if not omegas or wrong:
            reasons.append(("omega-limit", f"want {attractor}, got {wrong or 'no orbits'}"))
        for w in report.get("warnings", []):
            tag = w.split(":", 1)[0]
            if tag in FORBIDDEN_WARNINGS:
                reasons.append((f"warning:{tag}", w[:160]))
        try:
            root = ET.parse(self.path("p.svg")).getroot()
            if not root.tag.endswith("svg"):
                reasons.append(("svg", f"root element {root.tag}"))
        except (OSError, ET.ParseError) as exc:
            reasons.append(("svg", str(exc)))
        return reasons

    def summary(self, tally: Tally) -> dict:
        return _latency("portrait", tally)


class Cycles(Workload):
    """``kportrait cycle``: cases 3 and 5 (a cycle) with 4, 6, 7 (none) mixed in."""

    name = "cycles"
    trace_ops = 9
    CASES = (5, 3, 6, 5, 3, 4, 5, 3, 7)

    def __init__(self, work_dir: str) -> None:
        super().__init__(work_dir)
        # loaded up front so the oracle's memory shows the same on every
        # commit, whether or not a cycle is ever found
        import scipy.integrate  # noqa: F401

        self._closures: dict = {}

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(f"cycles-{seed}")
        return [draw(rng, self.CASES[k % len(self.CASES)]) for k in range(45)]

    def run(self, item: Item):
        return _cli(["cycle", *item.argv()])

    def check(self, item: Item, raw) -> Verdict:
        rc, out, err = raw
        reasons = _exit_reason(rc, err)
        if reasons:
            return Verdict(reasons)
        want_cycle = item.want.letter == "B"
        found = out.startswith("cycle found")
        if found != want_cycle:
            return Verdict([("found", f"letter {item.want.letter} (case {item.want.case}): {out.strip()[:120]}")])
        if not found:
            return Verdict([])
        fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
        try:
            x, period, mult = (float(fields[k]) for k in ("section_x", "period", "multiplier"))
        except (KeyError, ValueError):
            return Verdict([("output", out[:160])])
        if not 0.0 < mult < 1.0:
            reasons.append(("multiplier", repr(mult)))
        key = (item.floats(), x, period)
        if key not in self._closures:
            self._closures[key] = oracle.cycle_closure(*item.floats(), x, period)
        gap = self._closures[key]
        if gap is None:
            reasons.append(("closure", "no return within 1.5 periods"))
        elif abs(gap[0]) > 1e-6 * max(1.0, abs(x)) or abs(gap[1]) > 1e-6 * period:
            reasons.append(("closure", f"x gap {gap[0]:.3g}, period gap {gap[1]:.3g}"))
        return Verdict(reasons)

    def summary(self, tally: Tally) -> dict:
        return _latency("cycle", tally)


class Scan(Workload):
    """``kportrait scan`` over a jittered README grid, ``--jobs 1`` then ``--jobs 2``."""

    name = "scan"
    trace_ops = 1

    def inputs(self, seed: int) -> list[str]:
        """One jittered grid, scanned again and again."""
        rng = random.Random(f"scan-{seed}")
        axes = [f"{lo * rng.uniform(0.98, 1.02)!r}:{hi * rng.uniform(0.98, 1.02)!r}:{n}" for lo, hi, n in README_GRID]
        return [",".join(axes)]

    def run(self, grid: str):
        t0 = time.perf_counter()
        one = _cli(["scan", "--grid", grid, "--jobs", "1", "--out", self.path("s1.csv")])
        t1 = time.perf_counter()
        with self.untraced():
            two = _cli(["scan", "--grid", grid, "--jobs", "2", "--out", self.path("s2.csv")])
        return one, two, t1 - t0, time.perf_counter() - t1

    def check(self, grid: str, raw) -> Verdict:
        one, two, t1, t2 = raw
        reasons = _exit_reason(one[0], one[2]) + _exit_reason(two[0], two[2])
        texts = []
        for name in ("s1.csv", "s2.csv"):
            try:
                with open(self.path(name), "rb") as fh:
                    texts.append(fh.read())
                os.remove(self.path(name))
            except OSError as exc:
                reasons.append(("csv-missing", str(exc)))
        if len(texts) < 2:
            return Verdict(reasons, 0, (t1, t2))
        if texts[0] != texts[1]:
            reasons.append(("jobs-differ", "--jobs 1 and --jobs 2 CSVs differ"))
        rows = list(csv.reader(io.StringIO(texts[0].decode())))
        if not rows or ",".join(rows[0]) != SCAN_HEADER:
            return Verdict(reasons + [("csv-header", repr(rows[:1]))], 0, (t1, t2))
        axes = []
        for ax in grid.split(","):
            lo, hi, n = ax.split(":")
            axes.append(oracle.grid_axis(float(lo), float(hi), int(n)))
        want = sum(oracle.in_scan_zone(b, c, d) for b in axes[0] for c in axes[1] for d in axes[2])
        cells = rows[1:]
        if len(cells) != want:
            reasons.append(("cell-count", f"got {len(cells)}, want {want}"))
        inconclusive = sum(r[4] == "inconclusive" for r in cells)
        if inconclusive:
            reasons.append(("inconclusive", f"{inconclusive} of {len(cells)} cells"))
        return Verdict(reasons, 0 if reasons else len(cells), (t1, t2))

    def summary(self, tally: Tally) -> dict:
        # conclusive cells of passed operations over the time of all of them
        t1, t2 = tally.jobs_s
        return {
            "scan_cells_per_s": tally.cells / t1 if t1 > 0 else 0.0,
            "scan_cells_per_s_jobs2": tally.cells / t2 if t2 > 0 else 0.0,
        }


class Analysis(Workload):
    """The non-numerical pipeline on float and exact parameters, with exact
    points on the case-2 and A = 0 surfaces."""

    name = "analysis"
    trace_ops = 120
    FLOAT_CASES = (1, 3, 4, 5, 6)
    EXACT_CASES = (1, 2, 3, 4, 5, 6, 7)

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(f"analysis-{seed}")
        items = []
        for _ in range(10):
            items += [draw(rng, case) for case in self.FLOAT_CASES]
            items += [draw(rng, case, exact=True) for case in self.EXACT_CASES]
        return items

    @staticmethod
    def params(item: Item, exact: bool):
        from kportrait.model import Params

        return Params(item.b, item.c, item.d) if exact else Params(*item.floats())

    def run(self, item: Item):
        from kportrait import local, model

        # the package re-exports the function compactify over the module name
        compactify = sys.modules["kportrait.compactify"]
        p = self.params(item, item.exact)
        out = {
            "label": model.classify_case(p),
            "finite": model.finite_singular_points(p),
            "infinite": compactify.family_infinite_points(p),
            "dulac": local.dulac_check(p),
        }
        if item.want.case >= 3:
            out["uniqueness"] = local.uniqueness_check(p)
        if p.c > p.delta:
            out["hopf"] = local.hopf_analysis(p.c, p.delta)
            out["ell1"] = local.lyapunov_procedural(p.c, p.delta)
        return out

    def check(self, item: Item, raw) -> Verdict:
        from kportrait import model

        want, reasons = item.want, []
        label = raw["label"]
        got = (label.case, label.region, label.portrait, label.status, tuple(label.boundary))
        if got != (want.case, want.region, want.letter, want.status, want.boundary):
            reasons.append(("classify", f"got {got}, want {want}"))
        other = model.classify_case(self.params(item, not item.exact))
        if (other.case, other.portrait, tuple(other.boundary)) != (label.case, label.portrait, tuple(label.boundary)):
            reasons.append(("exact-float", f"{label} vs {other}"))
        reasons += self._check_points(item, raw)
        s2 = 1 + item.c - item.d - item.b - item.b * item.d
        if raw["dulac"].applicable != (s2 < 0):
            reasons.append(("dulac", f"applicable={raw['dulac'].applicable}, margin {float(s2)!r}"))
        a = item.d * (item.c - item.d) - item.b * item.d * (item.c + item.d)
        if "uniqueness" in raw and raw["uniqueness"].all_hold != (a > 0):
            reasons.append(("uniqueness", f"all_hold={raw['uniqueness'].all_hold} with A={float(a)!r}"))
        if "hopf" in raw:
            reasons += self._check_hopf(item, raw["hopf"], raw["ell1"])
        return Verdict(reasons)

    def _check_points(self, item: Item, raw) -> list[tuple[str, str]]:
        case, reasons = item.want.case, []
        kinds = [(q.name, q.kind) for q in raw["finite"]]
        p1 = {1: "stable-node", 2: "saddle-node"}.get(case, "saddle")
        want = [("P0", "saddle"), ("P1", p1)] + ([("P2", oracle.P2_KIND[case])] if case >= 3 else [])
        if kinds != want:
            reasons.append(("finite-points", f"got {kinds}, want {want}"))
        elif case >= 3:
            got = raw["finite"][2].location
            x2, y2 = oracle.p2_location(item.b, item.c, item.d)
            if item.exact:
                ok = tuple(got) == (x2, y2)
            else:
                ok = _close(float(got[0]), float(x2), 1e-12) and _close(float(got[1]), float(y2), 1e-12)
            if not ok:
                reasons.append(("p2-location", f"got {got}, want {(float(x2), float(y2))}"))
        inf = [(q.chart, q.kind) for q in raw["infinite"]]
        if inf != [("U1", "unstable-node"), ("U2", "degenerate")]:
            reasons.append(("infinite-points", repr(inf)))
        return reasons

    def _check_hopf(self, item: Item, hopf, ell1_proc: float) -> list[tuple[str, str]]:
        reasons = []
        b0 = (item.c - item.d) / (item.c + item.d)
        if not (hopf.b0 == b0 if item.exact else _close(float(hopf.b0), float(b0), 1e-12)):
            reasons.append(("hopf-b0", f"got {hopf.b0}, want {b0}"))
        if not (hopf.ell1 < 0 and ell1_proc < 0):
            reasons.append(("ell1-sign", f"{hopf.ell1!r}, {ell1_proc!r}"))
        ell1 = oracle.first_lyapunov(item.c, item.d)
        if not (_close(hopf.ell1, ell1_proc, 1e-8) and _close(hopf.ell1, ell1, 1e-9)):
            reasons.append(("ell1", f"closed {hopf.ell1!r}, procedural {ell1_proc!r}, oracle {ell1!r}"))
        return reasons

    def summary(self, tally: Tally) -> dict:
        return _latency("analysis", tally)


class S2Surface(Analysis):
    """The analysis pipeline on exact points of the S2 surface
    1 + c - delta - b - b*delta = 0 inside region A < 0."""

    name = "s2-surface"
    trace_ops = 20

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(f"s2-surface-{seed}")
        return [draw_surface(rng, "S2") for _ in range(20)]


class Cli(Workload):
    """``kportrait classify`` (float and ``--exact``) and ``kportrait hopf``."""

    name = "cli"
    trace_ops = 140
    FLOAT_CASES = (1, 3, 4, 5, 6)
    EXACT_CASES = (1, 2, 3, 4, 5, 6, 7)
    HOPF_CASES = (3, 5)  # any c > delta; these draw c/delta across (1, 6.7)

    def inputs(self, seed: int) -> list[tuple[str, Item]]:
        rng = random.Random(f"cli-{seed}")
        items = []
        for _ in range(10):
            items += [("classify", draw(rng, case)) for case in self.FLOAT_CASES]
            items += [("classify", draw(rng, case, exact=True)) for case in self.EXACT_CASES]
            items += [("hopf", draw(rng, case)) for case in self.HOPF_CASES]
        return items

    def run(self, op: tuple[str, Item]):
        command, item = op
        if command == "hopf":
            b, c, d = item.floats()
            return _cli(["hopf", "--c", repr(c), "--delta", repr(d)])
        if item.exact:
            return _cli(["classify", "--b", str(item.b), "--c", str(item.c), "--delta", str(item.d), "--exact"])
        return _cli(["classify", *item.argv()])

    def check(self, op: tuple[str, Item], raw) -> Verdict:
        command, item = op
        rc, out, err = raw
        reasons = _exit_reason(rc, err)
        if reasons:
            return Verdict(reasons)
        if command == "hopf":
            return Verdict(self._check_hopf(item, out))
        return Verdict(self._check_classify(item, out))

    @staticmethod
    def _check_classify(item: Item, out: str) -> list[tuple[str, str]]:
        want, reasons = item.want, []
        lines = out.splitlines()
        head = f"case {want.case} (region {want.region}): portrait {want.letter} [{want.status}]"
        if not lines or lines[0] != head:
            return [("classify", f"got {lines[:1]}, want {head!r}")]
        boundary = [ln for ln in lines if ln.startswith("boundary: ")]
        if boundary != ([f"boundary: {', '.join(want.boundary)}"] if want.boundary else []):
            reasons.append(("boundary", f"got {boundary}, want {want.boundary}"))
        fields = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
        b, c, d = item.b, item.c, item.d
        a = d * (c - d) - b * d * (c + d)
        try:
            a_text, a_float = fields["A"].rstrip(")").split(" (")
            b_float = float(fields["B"].rstrip(")").split(" (")[1])
            got_a = Fraction(a_text) if item.exact else float(a_float)
        except (KeyError, ValueError, IndexError):
            return reasons + [("output", out[:160])]
        if item.exact and got_a != a:
            reasons.append(("A", f"got {got_a}, want {a}"))
        elif abs(got_a - float(a)) > 1e-12 * float(d * abs(c - d) + b * d * (c + d)):
            reasons.append(("A", f"got {got_a!r}, want {float(a)!r}"))
        if want.case >= 3:
            tr, det = oracle.p2_trace_det(b, c, d)
            if (b_float > 0) - (b_float < 0) != oracle._sign(tr * tr - 4 * det):
                reasons.append(("B-sign", f"B = {b_float!r}, tr^2 - 4 det = {float(tr * tr - 4 * det)!r}"))
        points = []
        for ln in lines:
            name, sep, rest = ln.partition(": ")
            if sep and name in ("P0", "P1", "P2"):
                kind, _, at = rest.partition(" at ")
                points.append((name, kind, tuple(float(v) for v in at.strip("()").split(", "))))
        p1 = {1: "stable-node", 2: "saddle-node"}.get(want.case, "saddle")
        kinds = [("P0", "saddle"), ("P1", p1)] + ([("P2", oracle.P2_KIND[want.case])] if want.case >= 3 else [])
        if [(n, k) for n, k, _ in points] != kinds:
            reasons.append(("finite-points", f"got {points}, want {kinds}"))
        elif want.case >= 3:
            x2, y2 = oracle.p2_location(b, c, d)
            got = points[2][2]
            if not (_close(got[0], float(x2), 1e-12) and _close(got[1], float(y2), 1e-12)):
                reasons.append(("p2-location", f"got {got}, want {(float(x2), float(y2))}"))
        return reasons

    @staticmethod
    def _check_hopf(item: Item, out: str) -> list[tuple[str, str]]:
        fields = dict(ln.split(" = ", 1) for ln in out.splitlines() if " = " in ln)
        try:
            b0, omega = float(fields["b0"]), float(fields["omega(b0)"])
            ell1, ell1_proc = float(fields["ell1"]), float(fields["ell1 (from-scratch cross-check)"])
        except (KeyError, ValueError):
            return [("output", out[:160])]
        _, c, d = item.floats()
        want_b0 = (Fraction(c) - Fraction(d)) / (Fraction(c) + Fraction(d))
        reasons = []
        if not _close(b0, float(want_b0), 1e-12):
            reasons.append(("hopf-b0", f"got {b0!r}, want {float(want_b0)!r}"))
        want_omega = math.sqrt(oracle.p2_trace_det(want_b0, c, d)[1])
        if not _close(omega, want_omega, 1e-9):
            reasons.append(("omega", f"got {omega!r}, want {want_omega!r}"))
        if not (ell1 < 0 and ell1_proc < 0):
            reasons.append(("ell1-sign", f"{ell1!r}, {ell1_proc!r}"))
        want_ell1 = oracle.first_lyapunov(c, d)
        if not (_close(ell1, ell1_proc, 1e-8) and _close(ell1, want_ell1, 1e-9)):
            reasons.append(("ell1", f"closed {ell1!r}, procedural {ell1_proc!r}, oracle {want_ell1!r}"))
        return reasons

    def summary(self, tally: Tally) -> dict:
        return _latency("cli", tally)


WORKLOADS = {w.name: w for w in (Portraits, Cycles, Scan, Analysis, S2Surface, Cli)}
