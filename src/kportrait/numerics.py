"""Orbit integration, return maps, limit-cycle detection and the grid scanner.

Integration uses an embedded Dormand-Prince 5(4) pair with PI-free step
control and FSAL.  When an orbit leaves the ball of radius 10, or of twice
the farthest equilibrium's radius, the state transfers to the barycentric
chart "S", (X, Y) = (x, y)/(1 + x + y), which maps the whole closed
quadrant, infinity included, onto the triangle X, Y >= 0, X + Y <= 1.
There the line at infinity is Z = 1 - X - Y = 0, the equator points are
O1 = (1, 0) and O2 = (0, 1), and integration continues on the family's
closed-form field in that chart; the recorded ``time`` is the orbit
parameter of the rescaled flow, which preserves orientation on Z > 0.

``integrate(..., section=y)`` stops an orbit at its first crossing of that
horizontal line in the affine chart, upward forward and downward backward.
The crossing is the end of one controlled sub-step from the step start, its
length found by regula falsi, so the event state carries one local error, not
an interpolation error.  Return maps use the ray of that line right of the
interior equilibrium, which the forward flow crosses upward and transversally;
a walk repeats such turns in either time direction until the crossings
settle.  Orbits and cycle loops leave this module as affine (x, y) tuples.
"""

from __future__ import annotations

import csv
import math
from itertools import product
from typing import Callable, NamedTuple, Optional

from .model import AnalysisError, IntegrationFailure, NoReturnError, Params, classify_case, finite_singular_points
from .model import _range_error, _to_float

__all__ = [
    "Orbit",
    "CycleResult",
    "ScanEvidence",
    "GridSpec",
    "IntegrationFailure",
    "NoReturnError",
    "integrate",
    "return_map",
    "detect_limit_cycle",
    "separatrix_section_crossing",
    "interior_point",
    "cycle_loop",
    "conjecture_scan",
    "scan_to_csv",
]

# Dormand-Prince 5(4) tableau (autonomous form; no time arguments needed).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

_CONVERGE_DIST2 = 1e-14  # squared distance to an equilibrium that ends an orbit
_V_ESCAPE = 1e-9  # Z at or below this in the S chart counts as reaching infinity
_O2_RADIUS2 = 1e-4  # squared S-chart radius around the degenerate O2 that is never entered
_MAX_SAMPLES = 2_000_000
_AFFINE_CLAMP = 1e12  # S samples with Z < 1/_AFFINE_CLAMP map as if at that Z
_SEED_OFFSET = 1e-6  # distance of separatrix seeds from their equilibrium
_LOOP_MAX_STEP = 0.2  # step cap that keeps a sampled cycle loop dense
_CHART_SWITCH_RADIUS = 10.0  # least affine radius beyond which an orbit moves to the S chart
_EVENT_TOL = 1e-12  # relative width of the event-time bracket
# P2's rate per turn 2 pi Re/Im below which 1 - multiplier (2 rate near b0) is not resolved at _REL_TOL 1e-8:
# (1 - multiplier)/(2 rate) was 0.986 at rate 1.07e-5 for (c, delta) = (1, 1/4) and 0.892 at 7.6e-6 for (2, 1/2)
_HOPF_RATE_FLOOR = 1e-5
# the share of b0 = (c - delta)/(c + delta) below b0 (A > 0 puts b there) where that normal form is trusted: the
# floor binds at (b0 - b)/b0 <= 1.2e-5 on the tests' Hopf grid, and found multipliers follow it within 5% to 1.7e-3
_HOPF_BAND = 1e-3
_SETTLED = 1e-3  # successive crossings this close end a walk: the disc projection draws them within a pixel
_ABS_TOL = 1e-10  # absolute part of the error scale of a step
_REL_TOL = 1e-8  # relative part of the error scale of a step
_MAX_STEP = 0.5  # default step cap of integrate
_MAX_TIME = 400.0  # default time budget of an orbit, and the budget that a walk's turns share


class Orbit(NamedTuple):
    """Recorded trajectory: (time, chart, point) triples plus a terminal tag.

    The chart of a sample is "affine" or "S".  Terminal is one of max-time,
    converged-to-point, escaped, hit-section, chart-boundary-loop.  ``detail``
    names the limit point when known: the equilibrium an orbit converged to,
    "O1" or "infinity" for an escape, "O2" at the chart boundary.
    """

    samples: list[tuple[float, str, tuple[float, float]]]
    terminal: str
    detail: str = ""

    def affine_points(self) -> list[tuple[float, float]]:
        """Samples pushed to affine (x, y) points; S samples map through
        (x, y) = (X, Y)/Z with Z = 1 - X - Y clamped away from zero."""
        pts = []
        for _, chart, (a, b) in self.samples:
            if chart == "affine":
                pts.append((a, b))
            else:
                z = max(1.0 - a - b, 1.0 / _AFFINE_CLAMP)
                pts.append((a / z, b / z))
        return pts


def _dp_step(f, x, y, h, k1x, k1y):
    """One Dormand-Prince step from (x, y); returns state, error, FSAL stage."""
    k2x, k2y = f(x + h * (_A21 * k1x), y + h * (_A21 * k1y))
    k3x, k3y = f(x + h * (_A31 * k1x + _A32 * k2x), y + h * (_A31 * k1y + _A32 * k2y))
    k4x, k4y = f(
        x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
        y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y),
    )
    k5x, k5y = f(
        x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x),
        y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
    )
    k6x, k6y = f(
        x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
        y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y),
    )
    xn = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
    yn = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
    k7x, k7y = f(xn, yn)
    ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
    ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
    return xn, yn, ex, ey, k7x, k7y


# the kinds of finite_singular_points that attract an orbit in each time direction: the
# case-2 saddle-node through its centre direction, the case-7 weak focus through ell1 < 0
_ATTRACTING = {
    1.0: ("stable-node", "stable-focus", "weak-stable-focus", "saddle-node"),
    -1.0: ("unstable-node", "unstable-focus"),
}


def _points(p: Params) -> list:
    """:func:`finite_singular_points` of ``p``, kept in the instance ``__dict__`` of ``p``."""
    return vars(p).get("_points") or vars(p).setdefault("_points", finite_singular_points(p))


def _stops(p: Params, sgn: float) -> tuple[tuple[str, float, float, str], ...]:
    """The equilibria that :func:`finite_singular_points` reports for ``p``, at their float
    images, with the mode that stops an orbit near each in the time direction ``sgn``.

    An orbit may pass arbitrarily close to a saddle, so proximity alone must not stop
    it: the mode is "always" at a point whose kind attracts in this direction, and
    "axis-only" (on an invariant axis while moving toward the point) elsewhere.  The
    tables of both directions are kept in the instance ``__dict__`` of ``p``."""
    tables = vars(p).get("_stops")
    if tables is None:
        pts = [(q.name, _to_float(q.location[0]), _to_float(q.location[1]), q.kind) for q in _points(p)]
        tables = vars(p)["_stops"] = {
            s: tuple((name, x, y, "always" if kind in kinds else "axis-only") for name, x, y, kind in pts)
            for s, kinds in _ATTRACTING.items()
        }
    return tables[sgn]


def _rhs(b: float, c: float, d: float, sgn: float, chart: str) -> Callable:
    """The family field in ``chart`` ("affine" or "S"), time-reversed when
    ``sgn`` is -1.  The S field is Z^2 times the affine field pushed forward
    by (x, y) -> (x, y)/(1 + x + y), with Z = 1 - X - Y, so it keeps the
    orientation off the line at infinity Z = 0, which it leaves invariant
    together with both axes; ``tests/test_compactify.py`` proves this with
    sympy for all positive parameters.  The grouping of the coefficients and
    the order of the terms fix the orbit bytes, which the byte golden in
    ``tests/test_cli.py`` pins."""
    if chart == "S":
        def f_s(u: float, v: float) -> tuple[float, float]:
            z = 1.0 - u - v
            f = -u * u + (1.0 - b) * u * z - v * z + b * z * z
            g = (c - d) * u - d * b * z
            return (
                sgn * (u * ((z + v) * f - z * v * g)),
                sgn * (v * (z * (z + u) * g - u * f)),
            )
        return f_s

    def f_affine(u: float, v: float) -> tuple[float, float]:
        return (
            sgn * (u * (-u * u + (1.0 - b) * u - v + b)),
            sgn * (v * ((c - d) * u - d * b)),
        )

    return f_affine


def _bracket_root(fn, lo, f_lo, hi, f_hi, payload, tol):
    """Regula falsi with the Anderson-Bjorck scaling (Anderson and Bjorck, BIT 13, 1973) on a bracket
    where ``fn(s)`` = (value, payload) has value ``f_lo`` > 0 at ``lo`` and ``f_hi`` <= 0 at ``hi``; the
    ``hi`` end returns with its payload once the bracket is narrower than ``tol`` or ``f_hi`` is 0."""
    side = 0
    while f_hi and hi - lo > tol:
        s = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        # a secant point on an end falls back to the midpoint; adjacent doubles end the search
        if not lo < s < hi and not lo < (s := 0.5 * (lo + hi)) < hi:
            break
        value, got = fn(s)
        # an end kept twice in a row is scaled by m = 1 - value/(value replaced), 0.5 if m <= 0, so both ends move
        if value > 0.0:
            m = 1.0 - value / f_lo if side > 0 else 1.0
            lo, f_lo, f_hi, side = s, value, f_hi * (m if m > 0.0 else 0.5), 1
        else:
            m = 1.0 - value / f_hi if side < 0 else 1.0
            hi, f_hi, f_lo, side, payload = s, value, f_lo * (m if m > 0.0 else 0.5), -1, got
    return hi, payload


def _locate_section(rhs, sgn, section, x0, y0, t0, h, k1x, k1y, xn, yn):
    """Time and state at which an accepted step from (``x0``, ``y0``), short of y = ``section``
    in the direction ``sgn`` of y, to (``xn``, ``yn``) on or past it reaches it: the end of one
    controlled sub-step from the step start, so the state carries one local truncation error
    rather than an interpolation error, and lies on or past the section."""

    def probe(s):
        xe, ye, _, _, _, _ = _dp_step(rhs, x0, y0, s, k1x, k1y)
        return sgn * (section - ye), (xe, ye)

    s, (xe, ye) = _bracket_root(probe, 0.0, sgn * (section - y0), h, sgn * (section - yn), (xn, yn), _EVENT_TOL * max(1.0, abs(t0)))
    return t0 + s, xe, ye


def integrate(
    p: Params, start, direction: str = "forward", *, section: Optional[float] = None, max_step=_MAX_STEP, max_time=_MAX_TIME
) -> Orbit:
    """Adaptive trajectory of the family field from ``start``, with step cap ``max_step``
    and time budget ``max_time``, both strictly positive.

    ``start`` must be a finite point of the closed positive quadrant.  The
    orbit record switches to the S chart beyond affine radius R, the larger
    of 10 and twice the distance of the farthest equilibrium from P0, and back
    inside radius 0.9 R, so the stop tests and the section, which run in the
    affine chart, see every equilibrium.  It terminates on max-time,
    convergence to an equilibrium, escape to infinity (Z <= 1e-9, at O1 when
    Y < X/2), the located first crossing of the line y = ``section`` in the
    affine chart, upward forward and downward backward (hit-section), or the
    excluded neighbourhood of the degenerate O2 (chart-boundary-loop).
    An IntegrationFailure names the direction and start of the orbit, then what failed.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    x, y = float(start[0]), float(start[1])
    # the comparisons also reject nan
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise ValueError(f"start {start} is not a finite point of the closed positive quadrant")
    for name, v in (("max_step", max_step), ("max_time", max_time)):
        if not v > 0:
            raise ValueError(f"{name} must be strictly positive")
    sgn = 1.0 if direction == "forward" else -1.0
    b, c, d = p._float
    equilibria = _stops(p, sgn)

    chart = "affine"
    rhs = _rhs(b, c, d, sgn, chart)
    t = 0.0
    samples: list[tuple[float, str, tuple[float, float]]] = [(0.0, "affine", (x, y))]
    k1x, k1y = rhs(x, y)
    h = max(1e-10, min(max_step, 0.01 * max(abs(x), abs(y), 1.0) / max(abs(k1x), abs(k1y), 1e-10)))
    terminal = ""
    detail = ""
    radius = max(_CHART_SWITCH_RADIUS, 2.0 * max(math.hypot(qx, qy) for _, qx, qy, _ in equilibria))
    r2_out, r2_in = radius**2, (0.9 * radius) ** 2

    while True:
        if t >= max_time:
            terminal = "max-time"
            break
        if len(samples) > _MAX_SAMPLES:
            raise IntegrationFailure(
                f"{direction} orbit from {samples[0][2]}: sample budget exhausted", Orbit(samples, "failed", "sample-budget")
            )
        h = min(h, max_step, max_time - t)

        while True:
            xn, yn, ex, ey, k7x, k7y = _dp_step(rhs, x, y, h, k1x, k1y)
            scx = _ABS_TOL + _REL_TOL * max(abs(x), abs(xn))
            scy = _ABS_TOL + _REL_TOL * max(abs(y), abs(yn))
            try:
                err = math.sqrt(0.5 * ((ex / scx) ** 2 + (ey / scy) ** 2))
            except OverflowError:  # a float ** 2 overflow raises instead of giving inf
                err = math.inf
            if err <= 1.0 and math.isfinite(xn) and math.isfinite(yn):
                break
            if not math.isfinite(err):
                err = 1e6
            h *= max(0.1, min(0.9, 0.9 * err**-0.2))
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationFailure(
                    f"{direction} orbit from {samples[0][2]}: step size underflow", Orbit(samples, "failed", "step-underflow")
                )
        tn = t + h

        if section is not None and chart == "affine" and sgn * y < sgn * section <= sgn * yn:
            te, xe, ye = _locate_section(rhs, sgn, section, x, y, t, h, k1x, k1y, xn, yn)
            samples.append((te, "affine", (xe, ye)))
            terminal = "hit-section"
            break

        x, y, t = xn, yn, tn
        k1x, k1y = k7x, k7y
        h = h * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2)))
        samples.append((t, chart, (x, y)))

        if chart == "affine":
            hit = ""
            for name, qx, qy, mode in equilibria:
                if (x - qx) ** 2 + (y - qy) ** 2 <= _CONVERGE_DIST2 and (
                    mode == "always"
                    or ((x == 0.0 or y == 0.0) and (qx - x) * k1x + (qy - y) * k1y > 0.0)
                ):
                    hit = name
                    break
            if hit:
                terminal, detail = "converged-to-point", hit
                break
            if x * x + y * y > r2_out:
                w = 1.0 + x + y
                chart, x, y = "S", x / w, y / w
        else:
            z = 1.0 - x - y
            if z <= _V_ESCAPE:
                # u = Y/X is the U1 coordinate of the escape direction
                terminal, detail = "escaped", "O1" if y < 0.5 * x else "infinity"
                break
            # X = 0 is the invariant x = 0 ray, a separatrix of the degenerate
            # point O2 = (0, 1); the cubic-flat field there is never integrated
            # through
            if x == 0.0 or x * x + z * z <= _O2_RADIUS2:
                terminal, detail = "chart-boundary-loop", "O2"
                break
            if (x * x + y * y) / (z * z) < r2_in:
                chart, x, y = "affine", x / z, y / z
        if chart != samples[-1][1]:
            samples[-1] = (t, chart, (x, y))
            rhs = _rhs(b, c, d, sgn, chart)
            k1x, k1y = rhs(x, y)
            h = min(h, 0.05)

    return Orbit(samples=samples, terminal=terminal, detail=detail)


def interior_point(p: Params) -> tuple[float, float]:
    """Float coordinates of the interior equilibrium, each the correctly rounded image
    of the exact one; AnalysisError when it is absent or out of the range of doubles."""
    # the case-2 sign of finite_singular_points, so both agree inside its zero band
    if p._case[1][0] >= 0:
        raise AnalysisError("no interior equilibrium for these parameters")
    p._float  # an AnalysisError when a parameter leaves the range of doubles
    x, y = p._p2
    try:
        return _to_float(x), _to_float(y)
    except OverflowError:
        raise _range_error("(b, c, delta)", (p.b, p.c, p.delta)) from None


def return_map(p: Params, x: float) -> tuple[float, float]:
    """First-return abscissa and time of flight on the ray right of P2.

    On the ray y = y2, x > x2 the flow satisfies y' > 0, so upward crossings
    are transversal and automatically land right of x2.
    """
    x2, y2 = interior_point(p)
    if not x > x2:
        raise ValueError(f"section abscissa must exceed {x2}, got {x}")
    t, _, (xn, _) = _turn(p, (x, y2), y2, "orbit did not recross the section").samples[-1]
    return float(xn), float(t)


def _turn(p: Params, start, y2: float, what: str, direction: str = "forward", max_step=_MAX_STEP, max_time=_MAX_TIME) -> Orbit:
    """The orbit from ``start`` in ``direction`` to its next located crossing of
    y = ``y2``, under the limits of :func:`integrate`; NoReturnError "``what``
    (terminal detail)" on any other terminal.

    The forward turn from the P1 separatrix seed, which both ``detect_limit_cycle``
    and the separatrix walk of ``build_portrait`` take, is kept with its limits in
    the instance ``__dict__`` of ``p``, and served again only under the same limits."""
    p1_turn = direction == "forward" and start == _p1_separatrix_start(p)
    kept = vars(p).get("_p1_turn", ()) if p1_turn else ()
    if kept[:2] != (max_step, max_time):
        kept = max_step, max_time, integrate(p, start, direction, section=y2, max_step=max_step, max_time=max_time)
        if p1_turn:
            vars(p)["_p1_turn"] = kept
    orbit = kept[2]
    if orbit.terminal != "hit-section":
        raise NoReturnError(f"{what} ({' '.join(filter(None, (orbit.terminal, orbit.detail)))})", orbit)
    return orbit


def _walk(p: Params, start, direction: str = "forward") -> tuple[Orbit, list[float]]:
    """The orbit from ``start`` in ``direction`` turn by turn, with the abscissae
    of its crossings of the section ray, upward forward and downward backward.

    A start on the section ray is the first crossing.  The walk ends at a
    terminal, at ``_MAX_TIME`` summed over its turns, or once the crossings
    of two successive turns lie within ``_SETTLED``, so a returning orbit keeps
    at least two turns.  A settled walk ends on ``hit-section``.
    """
    x2, y2 = interior_point(p)
    samples: list[tuple[float, str, tuple[float, float]]] = []
    xs = [float(start[0])] if start[1] == y2 and start[0] > x2 else []
    settles_after = len(xs) + 1
    t0 = 0.0
    while True:
        try:
            orbit = _turn(p, start, y2, "", direction, max_time=_MAX_TIME - t0)
        except NoReturnError as err:
            orbit = err.orbit
        # a later turn starts at the crossing that ended the one before
        samples += [(t0 + t, chart, pt) for t, chart, pt in orbit.samples[bool(samples):]]
        if orbit.terminal != "hit-section":
            return Orbit(samples, orbit.terminal, orbit.detail), xs
        t0, _, start = samples[-1]
        xs.append(start[0])
        if len(xs) > settles_after and abs(xs[-1] - xs[-2]) <= _SETTLED or t0 >= _MAX_TIME:
            return Orbit(samples, orbit.terminal), xs


def separatrix_section_crossing(p: Params) -> tuple[float, float]:
    """First upward section crossing of the unstable separatrix leaving (1, 0).

    The separatrix bounds the cycle (when one exists) from outside, so its
    crossing is a sound outer bracket seed.
    """
    # an interior point exists only where P1 has an unstable direction
    _, y2 = interior_point(p)
    t, _, (xs, _) = _turn(p, _p1_separatrix_start(p), y2, "separatrix did not reach the section").samples[-1]
    return float(xs), float(t)


def _p1_separatrix_start(p: Params) -> tuple[float, float]:
    """Point at distance ``_SEED_OFFSET`` from P1 = (1, 0) along the
    eigenvector that leaves it into the open quadrant; the eigenvalue is
    clamped at 0 so the case-2 saddle-node gets its centre direction."""
    b, c, d = p._float
    vx, vy = -1.0, b + 1.0 + max(c - d - b * d, 0.0)
    nrm = math.hypot(vx, vy)
    return 1.0 + _SEED_OFFSET * vx / nrm, _SEED_OFFSET * vy / nrm


def _outer_seed(p: Params, x2: float) -> float:
    """Section abscissa of the P1 separatrix, the outer bound of any cycle;
    a fixed offset right of x2 when the separatrix does not return right of x2."""
    try:
        xs = separatrix_section_crossing(p)[0]
    except NoReturnError:
        xs = x2
    return xs if xs > x2 else x2 + 0.75 * max(1.0 - x2, x2)


class CycleResult(NamedTuple):
    """Outcome of the return-map fixed-point search."""

    found: bool
    section_x: Optional[float]
    period: Optional[float]
    multiplier: Optional[float]
    encloses_p2: bool
    detail: str = ""


def detect_limit_cycle(p: Params) -> CycleResult:
    """Bracket and refine a fixed point of the section return map.

    Brackets between an inner seed just right of the interior point and the separatrix
    crossing; refines the deflated displacement (P(s) - s)/(s - x2) by regula falsi
    (Anderson-Bjorck) to a bracket narrower than 1e-9 times the inner seed's offset from x2;
    the multiplier is a central difference of the return map with step 1e-5 times the cycle
    offset.  Where P2 repels at less than ``_HOPF_RATE_FLOOR`` per turn with b within
    ``_HOPF_BAND`` b0 below b0, it reports "near-hopf" with the normal-form estimate
    1 - multiplier = 2 rate.  A miss names the terminal of the inner orbit, or of the last
    outer one, that did not return, or where the section map expands.
    """
    x2, _ = interior_point(p)
    lam = _points(p)[-1].eigenvalues[1]  # P2's Re + i Im, Im >= 0: where A > 0 it repels at 2 pi Re/Im per turn
    b, c, d = p._float
    if p._case[1][1] > 0 and b >= (1.0 - _HOPF_BAND) * (c - d) / (c + d) and 2.0 * math.pi * lam.real < _HOPF_RATE_FLOOR * lam.imag:
        detail = f"near-hopf: predicted 1 - multiplier ~ {4.0 * math.pi * lam.real / lam.imag:.3g}"
        return CycleResult(False, None, None, None, False, detail)
    x_outer = _outer_seed(p, x2)
    x_in = x2 + max(1e-6, 1e-3 * (x_outer - x2))

    def deflated(s: float) -> tuple[float, float]:
        # (P(s) - s)/(s - x2) stays O(1) near the Hopf point, where P(s) - s is O(s - x2)
        r, tof = return_map(p, s)
        return (r - s) / (s - x2), tof

    try:
        d_in, _ = deflated(x_in)
    except NoReturnError as err:
        return CycleResult(False, None, None, None, False, f"inner {err}")
    if d_in <= 0.0:
        return CycleResult(False, None, None, None, False, "section map contracts toward P2")

    for _ in range(4):
        try:
            d_out, tof = deflated(x_outer)
        except NoReturnError as err:
            why, x_outer = f"outer {err}", x2 + 0.6 * (x_outer - x2)
            continue
        if d_out < 0.0:
            break
        why, x_outer = f"section map expands at x = {x_outer:.6g}", x2 + 1.5 * (x_outer - x2)
    else:
        return CycleResult(False, None, None, None, False, f"no outer contraction bracket: {why}")

    root, tof = _bracket_root(deflated, x_in, d_in, x_outer, d_out, tof, 1e-9 * (x_in - x2))
    hstep = 1e-5 * (root - x2)
    rp, _ = return_map(p, root + hstep)
    rm, _ = return_map(p, root - hstep)
    return CycleResult(True, float(root), float(tof), abs((rp - rm) / (2.0 * hstep)), True)


def cycle_loop(p: Params, cycle: CycleResult) -> list[tuple[float, float]]:
    """One period of the detected cycle, sampled densely as affine (x, y) points."""
    if not cycle.found or cycle.section_x is None:
        raise ValueError("no cycle to sample")
    _, y2 = interior_point(p)
    return _turn(p, (cycle.section_x, y2), y2, "cycle sampling failed to close the loop", max_step=_LOOP_MAX_STEP).affine_points()


class GridSpec(NamedTuple):
    """Inclusive linspace grid over (b, c, delta)."""

    b: tuple[float, float, int]
    c: tuple[float, float, int]
    delta: tuple[float, float, int]

    @staticmethod
    def _axis(spec: tuple[float, float, int]) -> list[float]:
        lo, hi, n = spec
        if n < 1:
            raise ValueError("grid axis needs at least one point")
        if n == 1:
            return [float(lo)]
        return [float(lo) + (float(hi) - float(lo)) * k / (n - 1) for k in range(n)]

    def cells(self) -> list[tuple[float, float, float]]:
        return list(product(self._axis(self.b), self._axis(self.c), self._axis(self.delta)))


class ScanEvidence(NamedTuple):
    """Per-cell verdict of :func:`detect_limit_cycle`, with the cycle it found.

    ``seeds`` are three section abscissae x2 + f*span, f = 0.08, 0.35 and 0.85, where
    span is the distance from x2 to the P1 separatrix crossing (at least 1e-4); an
    inconclusive cell has none.
    """

    b: float
    c: float
    delta: float
    case: int
    verdict: str  # cycle-found, contraction-to-P2, inconclusive
    section_x: Optional[float]
    multiplier: Optional[float]
    seeds: tuple[float, ...]


def _scan_cell(args) -> ScanEvidence:
    p, case = args
    b, c, d = p.b, p.c, p.delta
    try:
        x2, _ = interior_point(p)
        span = max(_outer_seed(p, x2) - x2, 1e-4)
        res = detect_limit_cycle(p)
    except (IntegrationFailure, NoReturnError):
        return ScanEvidence(b, c, d, case, "inconclusive", None, None, ())
    seeds = tuple(x2 + f * span for f in (0.08, 0.35, 0.85))
    if res.found:
        return ScanEvidence(b, c, d, case, "cycle-found", res.section_x, res.multiplier, seeds)
    return ScanEvidence(b, c, d, case, "contraction-to-P2", None, None, seeds)


def conjecture_scan(grid: GridSpec, jobs: int = 1) -> list[ScanEvidence]:
    """Run :func:`detect_limit_cycle` on every grid cell in the conjectured zone.

    Cells are filtered to region II-b (cases 4 and 6 with
    1 + c - delta - b - b*delta > 0), off every boundary surface.  A cell
    reads cycle-found when the search finds a cycle, contraction-to-P2 when
    it does not, and inconclusive when an orbit fails or stops returning.
    Results come back in grid order whatever the worker count, so output
    files are byte-identical across runs.
    """
    work = []
    for cell in grid.cells():
        # each worker gets the Params classified here, its case signs cached
        label = classify_case(p := Params(*cell))
        if label.region == "II-b" and not label.boundary:
            work.append((p, label.case))
    if jobs <= 1 or len(work) <= 1:
        return [_scan_cell(args) for args in work]
    from concurrent.futures import ProcessPoolExecutor

    # the fork start method launches every worker at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(_scan_cell, work, chunksize=1))


_CSV_HEADER = ("b", "c", "delta", "case", "verdict", "section_x", "multiplier", "seeds")


def _csv_num(x: Optional[float]) -> str:
    return "" if x is None else format(float(x), ".17g")


def scan_to_csv(rows: list[ScanEvidence], path_or_file) -> None:
    """Write scan evidence as RFC-4180 CSV with a fixed header."""

    def _write(fh) -> None:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for r in rows:
            w.writerow(
                [
                    _csv_num(r.b),
                    _csv_num(r.c),
                    _csv_num(r.delta),
                    str(r.case),
                    r.verdict,
                    _csv_num(r.section_x),
                    _csv_num(r.multiplier),
                    ";".join(format(s, ".17g") for s in r.seeds),
                ]
            )

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
