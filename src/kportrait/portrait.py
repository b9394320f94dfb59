"""Global portrait assembly, SVG rendering and the JSON report.

A portrait is drawn on the positive quarter of the Poincare disc: the affine
quadrant maps through (x, y) / sqrt(1 + x^2 + y^2), the quarter circle is the
image of infinity.  The portrait letter is decided by classification alone;
the integrated orbits corroborate it and any mismatch is surfaced as a
warning, never silently resolved.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

from .compactify import family_infinite_points
from .local import DulacReport, dulac_check, hopf_analysis
from .model import (
    AnalysisError,
    CaseLabel,
    Params,
    SingularPoint,
    classify_case,
    discriminants,
    finite_singular_points,
)
from .numerics import (
    CycleResult,
    IntegrationFailure,
    NoReturnError,
    Orbit,
    _SETTLED,
    _p1_separatrix_start,
    _project,
    _stops,
    _walk,
    cycle_loop,
    detect_limit_cycle,
    integrate,
    interior_point,
)

__all__ = [
    "OrbitTrace",
    "HopfSummary",
    "PortraitReport",
    "build_portrait",
    "render_svg",
    "write_report",
    "report_to_dict",
]

_THIN_TO = 600  # most points stored per orbit trace and cycle loop
_AXIS_TRACE_END = 10.0  # the y at which the drawn trace of the y-axis, O2 -> P0, begins

# SVG canvas side and margin in pixels, glyph radius and stroke colours
_SIZE = 640
_MARGIN = 48.0
_POINT_SIZE = 5.0
_ORBIT_COLOR = "#4477aa"
_SEPARATRIX_COLOR = "#111111"
_CYCLE_COLOR = "#cc3311"
_SKELETON_COLOR = "#000000"


class OrbitTrace(NamedTuple):
    """An integrated curve with its limit-set bookkeeping.

    ``points`` are affine (x, y) tuples ordered by increasing true time, so
    separately integrated backward halves are reversed before storage.
    """

    role: str  # axis, separatrix, representative
    origin: str
    stability: Optional[str]
    alpha_limit: str
    omega_limit: str
    points: list[tuple[float, float]]


class HopfSummary(NamedTuple):
    b0: float
    dmu_db_at_b0: float
    mu: float
    omega: Optional[float]
    ell1: float


class PortraitReport(NamedTuple):
    params: Params
    label: CaseLabel
    finite_points: list[SingularPoint]
    infinite_points: list[SingularPoint]
    hopf: Optional[HopfSummary]
    cycle: Optional[CycleResult]
    dulac: DulacReport
    separatrices: list[OrbitTrace]
    representatives: list[OrbitTrace]
    cycle_points: Optional[list[tuple[float, float]]]
    warnings: list[str]


def _thin(points: list[tuple[float, float]], target: int) -> list[tuple[float, float]]:
    """At most ``target`` points, evenly spaced in index, keeping both ends."""
    n = len(points)
    if n <= target:
        return points
    step = (n - 1) / (target - 1)
    return [points[round(k * step)] for k in range(target - 1)] + [points[-1]]


def build_portrait(p: Params) -> PortraitReport:
    """Classify, integrate the separatrix skeleton and one representative orbit
    per canonical region, and assemble the full report.

    Integration failures become warnings; classification always completes.
    By the Markus-Neumann-Peixoto theorem the skeleton and one orbit per region
    fix the portrait up to topological equivalence, and the letter names the
    regions: in B one seed on the section ray outside the cycle and one inside
    it, in C one seed on that ray, in A one on the diagonal near P0.
    """
    label = classify_case(p)
    pts = finite_singular_points(p)
    inf_pts = family_infinite_points(p)
    warnings: list[str] = []

    disc = discriminants(p)
    if label.case == 4:
        warnings.append(
            "classification-sources-conflict: B >= 0 with A < 0 is a region where "
            "the headline sign rule and the case analysis disagree; the case "
            "analysis (portrait C) is used"
        )

    hopf: Optional[HopfSummary] = None
    if disc.B < 0 and p.c > p.delta:
        try:
            hd = hopf_analysis(p.c, p.delta)
            lam = pts[-1].eigenvalues[1]  # P2's, with Im >= 0: B < 0 puts P2 in the quadrant
            hopf = HopfSummary(float(hd.b0), hd.dmu_db_at_b0, lam.real, lam.imag or None, hd.ell1)
        except AnalysisError as err:
            warnings.append(f"hopf-analysis-unavailable: {err}")

    dulac = dulac_check(p)

    cycle: Optional[CycleResult] = None
    cycle_pts: Optional[list[tuple[float, float]]] = None
    if label.case in (3, 5):
        try:
            cycle = detect_limit_cycle(p)
            if cycle.found:
                cycle_pts = cycle_loop(p, cycle)
        except (NoReturnError, IntegrationFailure) as err:
            warnings.append(f"cycle-detection-failed: {err}")

    def limit_of(orbit: Orbit, points: list[tuple[float, float]], sgn: float, xs: list[float]) -> str:
        if orbit.terminal in ("converged-to-point", "escaped"):
            return orbit.detail
        if len(xs) > 1:
            # the return map is monotone, so the crossings converge: forward in cases 3 and 5 onto the
            # unique cycle; else, falling, into P2 where it attracts, the one limit set left inside the
            # cycle and in cases 4, 6 and 7, which the Dulac function y^(gamma-1)/x clears of cycles
            steps = [v - u for u, v in zip(xs, xs[1:])]
            if sgn > 0 and label.case in (3, 5):
                # a crossing within _SETTLED of the found cycle is on it, whichever way the rounding turned the last step
                gap = None if cycle is None or cycle.section_x is None else cycle.section_x - xs[-1]
                on_cycle = gap is not None and abs(gap) <= _SETTLED
                toward = gap is None or gap * steps[-1] > 0
                if on_cycle or toward and (min(steps) > 0 or max(steps) < 0):
                    return "cycle"
            elif max(steps) < 0 and ("P2", "always") in [(name, mode) for name, _, _, mode in _stops(p, sgn)]:
                return "P2"
            return "unresolved"
        # a limit attracts in the orbit's time direction
        (ax, ay), (mx, my) = points[-1], points[(3 * len(points)) // 4]
        near = [
            (name, math.hypot(ax - qx, ay - qy), math.hypot(mx - qx, my - qy))
            for name, qx, qy, mode in _stops(p, sgn)
            if mode == "always"
        ]
        for name, d_end, _ in near:
            if d_end <= 1e-3:
                return name
        # still settling (slow foci, saddle-node centre directions):
        # accept a close and strictly shrinking approach
        for name, d_end, d_mid in near:
            if d_end <= 0.05 and d_end <= 0.9 * d_mid:
                return name
        return "unresolved"

    def half(start, direction: str) -> tuple[list[tuple[float, float]], str]:
        """Affine points and limit of the half-orbit from ``start``, walked turn by
        turn in cases 3-7, where P2, with its section ray, exists."""
        xs: list[float] = []
        try:
            if label.case > 2:
                orbit, xs = _walk(p, start, direction)
            else:
                orbit = integrate(p, start, direction)
        except IntegrationFailure as err:
            warnings.append(f"integration-failure: {err}")
            orbit = err.orbit
        points = orbit.affine_points()
        return points, limit_of(orbit, points, 1.0 if direction == "forward" else -1.0, xs)

    def trace(role: str, origin: str, stability: Optional[str], start, alpha: Optional[str] = None) -> OrbitTrace:
        """Both halves of the orbit through ``start``; the forward half alone when
        its ``alpha`` limit is known."""
        points, omega = half(start, "forward")
        if alpha is None:
            back, alpha = half(start, "backward")
            points = back[::-1] + points
        return OrbitTrace(role, origin, stability, alpha, omega, _thin(points, _THIN_TO))

    # P0's separatrices are the invariant axes: x' = -x(x - 1)(x + b) on y = 0 and y' = -delta*b*y on x = 0
    # give P0 -> P1 and O2 -> P0 for all parameters, drawn through 16 even steps on the disc from y = 10 down
    steps = [t / math.sqrt(1.0 - t * t) for t in (_project(0.0, _AXIS_TRACE_END)[1] * k / 16 for k in range(16, 0, -1))]
    separatrices: list[OrbitTrace] = [
        OrbitTrace("axis", "P0", "unstable", "P0", "P1", [(v, 0.0) for v in steps[::-1] if v < 1.0]),
        OrbitTrace("axis", "P0", "stable", "O2", "P0", [(0.0, v) for v in steps]),
    ]
    if label.case == 2:
        # the centre branch of the saddle-node comes from O1 and ends at P1
        separatrices.append(trace("separatrix", "P1", "center", _p1_separatrix_start(p)))
    elif label.case > 2:
        # P1's branch into the quadrant is its unstable manifold: it leaves P1 forward in time
        separatrices.append(trace("separatrix", "P1", "unstable", _p1_separatrix_start(p), alpha="P1"))

    if label.portrait == "A":
        s = 0.15 / math.sqrt(2.0)
        rep_traces = [trace("representative", "diagonal r=0.15", None, (s, s))]
    else:
        x2, y2 = interior_point(p)
        x_hi = x2 + 0.8 * (1.0 - x2) if x2 < 1.0 else 2.0 * x2
        # x_hi lies outside B's cycle, and 0.55^7 of its offset from x2 lies inside it
        xs = [x_hi, x2 + (x_hi - x2) * 0.55**7] if label.portrait == "B" else [x_hi]
        rep_traces = [trace("representative", f"section+{x - x2:.6g}", None, (x, y2)) for x in xs]

    expected_omega = {"A": "P1", "B": "cycle", "C": "P2"}[label.portrait]
    # the representatives and, where its limit resolves, P1's separatrix corroborate the letter
    checked = rep_traces + [tr for tr in separatrices if tr.role == "separatrix" and tr.omega_limit != "unresolved"]
    mismatched = [tr for tr in checked if tr.omega_limit != expected_omega]
    if mismatched:
        warnings.append(
            "portrait-corroboration-mismatch: "
            f"{len(mismatched)} representative or separatrix orbit(s) did not reach {expected_omega}"
        )

    return PortraitReport(
        params=p,
        label=label,
        finite_points=pts,
        infinite_points=inf_pts,
        hopf=hopf,
        cycle=cycle,
        dulac=dulac,
        separatrices=separatrices,
        representatives=rep_traces,
        cycle_points=None if cycle_pts is None else _thin(cycle_pts, _THIN_TO),
        warnings=warnings,
    )


def _fmt_px(v: float) -> str:
    return f"{v:.2f}"


def render_svg(report: PortraitReport) -> str:
    """Deterministic SVG 1.1 document of the quarter-disc portrait."""
    scale = _SIZE - 2.0 * _MARGIN

    def to_px(x: float, y: float) -> tuple[float, float]:
        dx, dy = _project(float(x), float(y))
        return _MARGIN + dx * scale, _SIZE - _MARGIN - dy * scale

    def polyline(points, cls: str) -> str:
        if len(points) < 2:
            return ""
        coords = " ".join(
            f"{_fmt_px(px)},{_fmt_px(py)}" for px, py in (to_px(q[0], q[1]) for q in points)
        )
        return f'<polyline class="{cls}" points="{coords}" />'

    def arrow(points) -> str:
        if len(points) < 4:
            return ""
        mid = len(points) // 2
        x0, y0 = to_px(*points[mid - 1])
        x1, y1 = to_px(*points[mid])
        dx, dy = x1 - x0, y1 - y0
        nrm = math.hypot(dx, dy)
        if nrm < 1e-9:
            return ""
        ux, uy = dx / nrm, dy / nrm
        px, py = -uy, ux
        a = 4.5
        tip = (x1 + a * ux, y1 + a * uy)
        left = (x1 - a * ux + 0.6 * a * px, y1 - a * uy + 0.6 * a * py)
        right = (x1 - a * ux - 0.6 * a * px, y1 - a * uy - 0.6 * a * py)
        pts = " ".join(f"{_fmt_px(u)},{_fmt_px(v)}" for u, v in (tip, left, right))
        return f'<polygon class="arrow" points="{pts}" />'

    def glyph(name: str, kind: str, x: float, y: float) -> str:
        px, py = to_px(x, y)
        r = _POINT_SIZE
        title = f"<title>{name}: {kind}</title>"
        if kind == "saddle":
            return (
                f'<g class="pt saddle" data-name="{name}" data-kind="{kind}">{title}'
                f'<line x1="{_fmt_px(px - r)}" y1="{_fmt_px(py - r)}" x2="{_fmt_px(px + r)}" y2="{_fmt_px(py + r)}"/>'
                f'<line x1="{_fmt_px(px - r)}" y1="{_fmt_px(py + r)}" x2="{_fmt_px(px + r)}" y2="{_fmt_px(py - r)}"/>'
                "</g>"
            )
        if kind == "saddle-node":
            return (
                f'<g class="pt saddle-node" data-name="{name}" data-kind="{kind}">{title}'
                f'<circle cx="{_fmt_px(px)}" cy="{_fmt_px(py)}" r="{_fmt_px(r)}" fill="none"/>'
                f'<path d="M {_fmt_px(px)} {_fmt_px(py - r)} A {_fmt_px(r)} {_fmt_px(r)} 0 0 1 {_fmt_px(px)} {_fmt_px(py + r)} Z"/>'
                "</g>"
            )
        stable = kind in ("stable-node", "stable-focus", "weak-stable-focus")
        fill = "#000000" if stable else "#ffffff"
        extra = ""
        if kind in ("stable-focus", "unstable-focus", "weak-stable-focus"):
            extra = (
                f'<circle cx="{_fmt_px(px)}" cy="{_fmt_px(py)}" r="{_fmt_px(r + 2.5)}" '
                'fill="none" stroke-dasharray="2,2"/>'
            )
        return (
            f'<g class="pt" data-name="{name}" data-kind="{kind}">{title}'
            f'<circle cx="{_fmt_px(px)}" cy="{_fmt_px(py)}" r="{_fmt_px(r)}" fill="{fill}"/>'
            f"{extra}</g>"
        )

    p = report.params
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    )
    parts.append(
        "<desc>Positive quarter of the Poincare disc; the arc is the image of infinity.</desc>"
    )
    parts.append(
        "<style>"
        f"polyline{{fill:none;stroke:{_ORBIT_COLOR};stroke-width:1.1}}"
        f"polyline.separatrix{{stroke:{_SEPARATRIX_COLOR};stroke-width:2.0}}"
        f"polyline.axis{{stroke:{_SKELETON_COLOR};stroke-width:2.0}}"
        f"polyline.cycle{{stroke:{_CYCLE_COLOR};stroke-width:2.4}}"
        f"polyline.skeleton{{stroke:{_SKELETON_COLOR};stroke-width:1.6}}"
        f"path.skeleton{{fill:none;stroke:{_SKELETON_COLOR};stroke-width:1.6}}"
        f".pt circle,.pt line,.pt rect,.pt path{{stroke:#000000;stroke-width:1.4}}"
        f".arrow{{fill:{_ORBIT_COLOR};stroke:none}}"
        "text{font-family:monospace;font-size:13px}"
        "text.status-conjectured{fill:#aa3300;font-weight:bold}"
        "</style>"
    )

    # skeleton: the two axes and the arc at infinity
    ox, oy = to_px(0.0, 0.0)
    xe, ye = _MARGIN + scale, _SIZE - _MARGIN
    parts.append(
        f'<polyline class="skeleton" points="{_fmt_px(ox)},{_fmt_px(oy)} {_fmt_px(xe)},{_fmt_px(ye)}" />'
    )
    parts.append(
        f'<polyline class="skeleton" points="{_fmt_px(ox)},{_fmt_px(oy)} {_fmt_px(_MARGIN)},{_fmt_px(_SIZE - _MARGIN - scale)}" />'
    )
    parts.append(
        f'<path class="skeleton" d="M {_fmt_px(xe)} {_fmt_px(ye)} '
        f'A {_fmt_px(scale)} {_fmt_px(scale)} 0 0 0 {_fmt_px(_MARGIN)} {_fmt_px(_SIZE - _MARGIN - scale)}" />'
    )

    for tr in report.representatives:
        parts.append(polyline(tr.points, "representative"))
        parts.append(arrow(tr.points))
    for tr in report.separatrices:
        parts.append(polyline(tr.points, tr.role))
        parts.append(arrow(tr.points))
    if report.cycle_points is not None and len(report.cycle_points) > 1:
        parts.append(polyline([*report.cycle_points, report.cycle_points[0]], "cycle"))

    for q in report.finite_points:
        parts.append(glyph(q.name, q.kind, float(q.location[0]), float(q.location[1])))
    for q in report.infinite_points:
        # O1 ends the x-axis on the arc, O2 the y-axis
        if q.chart == "U1":
            px, py = _MARGIN + scale, _SIZE - _MARGIN
        else:
            px, py = _MARGIN, _SIZE - _MARGIN - scale
        kind = q.kind
        title = f"{q.name}: {kind}"
        if q.sector is not None:
            title += (
                f"; one {q.sector.sector} sector in the quadrant, separatrices "
                f"{q.sector.separatrices[0]} and {q.sector.separatrices[1]}"
            )
        fill = "#ffffff" if kind == "unstable-node" else "#dddddd"
        parts.append(
            f'<g class="pt infinite" data-name="{q.name}" data-kind="{kind}">'
            f"<title>{title}</title>"
            f'<circle cx="{_fmt_px(px)}" cy="{_fmt_px(py)}" r="{_fmt_px(_POINT_SIZE)}" fill="{fill}"/>'
            "</g>"
        )

    cap1 = f"b={float(p.b):.6g} c={float(p.c):.6g} delta={float(p.delta):.6g}"
    cap2 = (
        f"case {report.label.case} (region {report.label.region}) "
        f"portrait {report.label.portrait}"
    )
    parts.append(f'<text x="{_fmt_px(_MARGIN)}" y="20">{cap1}</text>')
    parts.append(f'<text x="{_fmt_px(_MARGIN)}" y="36">{cap2}</text>')
    status = report.label.status
    status_cls = "status-conjectured" if status == "conjectured" else "status-proven"
    parts.append(
        f'<text class="{status_cls}" x="{_fmt_px(_SIZE - _MARGIN - 140)}" y="20">'
        f"{status.upper()}</text>"
    )
    parts.append("</svg>")
    return "\n".join(s for s in parts if s)


def report_to_dict(report: PortraitReport) -> dict:
    """Schema version 1; stable field order; cycle is null rather than absent."""
    p = report.params
    exact = None
    if p.is_exact:
        bq, cq, dq = p.exact_triple()
        exact = {"b": str(bq), "c": str(cq), "delta": str(dq)}
    cyc = None
    if report.cycle is not None:
        cyc = {
            "found": report.cycle.found,
            "section_x": report.cycle.section_x,
            "period": report.cycle.period,
            "multiplier": report.cycle.multiplier,
            "encloses_P2": report.cycle.encloses_p2,
            "detail": report.cycle.detail,
        }
    return {
        "schema_version": "1",
        "params": {
            "b": float(p.b),
            "c": float(p.c),
            "delta": float(p.delta),
            "exact": exact,
        },
        "case": {
            "case": report.label.case,
            "region": report.label.region,
            "portrait": report.label.portrait,
            "status": report.label.status,
            "boundary": list(report.label.boundary),
        },
        "finite_singular_points": [
            {
                "name": q.name,
                "chart": q.chart,
                "x": float(q.location[0]),
                "y": float(q.location[1]),
                "kind": q.kind,
                "eigenvalues": None
                if q.eigenvalues is None
                else [[z.real, z.imag] for z in q.eigenvalues],
            }
            for q in report.finite_points
        ],
        "infinite_singular_points": [
            {
                "name": q.name,
                "chart": q.chart,
                "u": float(q.location[0]),
                "v": float(q.location[1]),
                "kind": q.kind,
                "sector": None
                if q.sector is None
                else {"sector": q.sector.sector, "separatrices": list(q.sector.separatrices)},
            }
            for q in report.infinite_points
        ],
        "hopf": None if report.hopf is None else report.hopf._asdict(),
        "cycle": cyc,
        "dulac": report.dulac._asdict(),
        "separatrices": [tr._asdict() for tr in report.separatrices],
        "representative_orbits": [tr._asdict() for tr in report.representatives],
        "cycle_points": report.cycle_points,
        "portrait": report.label.portrait,
        "status": report.label.status,
        "warnings": list(report.warnings),
    }


def _emit_json(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} in report")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(value):
            out.append(pad + "  ")
            _emit_json(item, out, indent + 1)
            out.append(",\n" if k < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for k, (key, item) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit_json(item, out, indent + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialise {type(value)!r}")


def write_report(report: PortraitReport) -> str:
    """JSON text of the report; numbers carry 17 significant digits so they
    round-trip exactly."""
    out: list[str] = []
    _emit_json(report_to_dict(report), out, 0)
    out.append("\n")
    return "".join(out)
