"""Orbit integration, return maps, limit-cycle detection and the grid scanner.

The family is a Kolmogorov system, x' = x F and y' = y G, so in the log
chart (u, v) = (ln x, ln y) its field is (F, G) (Hofbauer and Sigmund,
*Evolutionary Games and Population Dynamics*, 1998).  Integration runs there,
on the field divided by w = 1 + x^2 + y: the clock ds = w dt is a weighted
Poincare-Lyapunov compactification (weights 1 and 2 on x and y; Dumortier,
Llibre and Artes, *Qualitative Theory of Planar Differential Systems*, ch. 5),
so the field is bounded on the whole quadrant and one chart reaches infinity,
and the slow passages of slow-fast cycles cost a few hundred steps.  True time
rides along as dt/ds = 1/w, so sample times and periods keep their units, and
an orbit's one limit is ``_MAX_STEPS`` accepted steps, which needs no time
scale per parameter set.  Steps are embedded Dormand-Prince 5(4) with FSAL;
the error scale of ln x and ln y is relative, and near the interior
equilibrium P2 it shrinks with the distance from P2, where the return map's
displacement is a small share of that distance.

``integrate(..., section=y)`` stops an orbit at its first crossing of that
horizontal line, upward forward and downward backward.  The crossing is the
end of one controlled sub-step from the step start, its length found by
regula falsi, so the event state carries one local error, not an
interpolation error.  Return maps use the ray of that line right of the
interior equilibrium, which the forward flow crosses upward and transversally;
a walk repeats such turns in either time direction until the crossings
settle.  Orbits and cycle loops leave this module as affine (x, y) points.
"""

from __future__ import annotations

import csv
import math
import sys
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
_ESCAPE = math.log(1e9)  # ln x or ln y past this counts as reaching infinity
_LOG_FLOOR = math.log(sys.float_info.min)  # ln x or ln y below which x or y is no normal double
_SEED_OFFSET = 1e-6  # distance of separatrix seeds from their equilibrium
_EVENT_TOL = 1e-12  # relative width of the event-time bracket
# P2's rate per turn 2 pi Re/Im below which 1 - multiplier (2 rate near b0) is not resolved at _REL_TOL:
# (1 - multiplier)/(2 rate) was 0.978 at rate 1.07e-5 for (c, delta) = (1, 1/4) and 0.974 at 7.6e-6 for (2, 1/2)
_HOPF_RATE_FLOOR = 1e-5
# the share of b0 = (c - delta)/(c + delta) below b0 (A > 0 puts b there) where that normal form is trusted: the
# floor binds at (b0 - b)/b0 <= 1.2e-5 on the tests' Hopf grid, and found multipliers follow it within 5% to 1.7e-3
_HOPF_BAND = 1e-3
_SETTLED = 1e-3  # successive crossings this close end a walk: the disc projection draws them within a pixel
_ABS_TOL = 1e-10  # absolute part of the error scale of ln x and ln y in a step
_REL_TOL = 1e-7  # relative part of that scale, of max(|ln z|, 1) or of the log-chart distance from P2 if smaller
_MAX_STEPS = 10_000  # accepted steps that end an orbit on max-steps, and a walk once its samples pass them
_DISC_CHORD = 0.05  # longest chord of the Poincare disc that a step is sized for, so drawn orbits stay smooth


class Orbit(NamedTuple):
    """Recorded trajectory: (time, chart, point) triples plus a terminal tag.

    A sample is "affine", the point (x, y), unless x or y is too small for a
    normal double, which the deep passages of slow-fast orbits reach; there it
    is "log", the point (ln x, ln y).  Terminal is one of max-steps,
    converged-to-point, escaped, hit-section.  ``detail`` names the limit point
    when known: the equilibrium an orbit converged to, "O1" or "infinity" for
    an escape.
    """

    samples: list[tuple[float, str, tuple[float, float]]]
    terminal: str
    detail: str = ""

    def affine_points(self) -> list[tuple[float, float]]:
        """Samples as affine (x, y) points; a "log" sample maps through (e^u, e^v)."""
        return [(math.exp(a), math.exp(b)) if chart == "log" else (a, b) for _, chart, (a, b) in self.samples]


def _project(x: float, y: float) -> tuple[float, float]:
    """The affine quadrant into the closed quarter disc: (x, y) / sqrt(1 + x^2 + y^2)."""
    r = math.sqrt(1.0 + x * x + y * y)
    return x / r, y / r


def _dp_step(f, u, v, h, k1):
    """One Dormand-Prince step of clock length ``h`` from (``u``, ``v``), where ``k1`` is ``f(u, v)``;
    returns the new (u, v), the true time it takes, the error estimates of u and v, and the FSAL stage."""
    k1u, k1v, k1t = k1
    k2u, k2v, _ = f(u + h * (_A21 * k1u), v + h * (_A21 * k1v))
    k3u, k3v, k3t = f(u + h * (_A31 * k1u + _A32 * k2u), v + h * (_A31 * k1v + _A32 * k2v))
    k4u, k4v, k4t = f(
        u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
        v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v),
    )
    k5u, k5v, k5t = f(
        u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
        v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v),
    )
    k6u, k6v, k6t = f(
        u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u),
        v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v),
    )
    un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
    vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
    k7 = k7u, k7v, _ = f(un, vn)
    dt = h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B5 * k5t + _B6 * k6t)
    eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
    ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
    return un, vn, dt, eu, ev, k7


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


def _rhs(b, c, d, sgn: float, exp=math.exp) -> Callable:
    """The family field (F, G) in (u, v) = (ln x, ln y), divided by w = 1 + x^2 + y and
    time-reversed when ``sgn`` is -1, with dt/ds = 1/w as a third component.

    1/w > 0, so the field keeps the orbits and their orientation and changes only the
    clock; ``tests/test_compactify.py`` proves with sympy, passing its own ``exp``, that
    it is the family's field pushed to (u, v) for all positive parameters.  The grouping
    of the coefficients and the order of the terms fix the orbit bytes, which the byte
    golden in ``tests/test_cli.py`` pins."""
    ob, k, db = 1.0 - b, c - d, d * b

    def f(u, v):
        x, y = exp(u), exp(v)
        iw = 1.0 / (1.0 + x * x + y)
        s = sgn * iw
        return s * (x * (ob - x) - y + b), s * (k * x - db), iw

    return f


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


def _locate(rhs, sgn, section, u, v, t, h, k1, step):
    """The :func:`_dp_step` result of the sub-step of an accepted step ``step`` = :func:`_dp_step`
    (``rhs``, ``u``, ``v``, ``h``, ``k1``) at time ``t`` that ends on the line y = ``section``, which
    the step crosses upward (``sgn`` 1) or downward (``sgn`` -1): the end of one controlled sub-step
    from the step start, so the state carries one local truncation error rather than an
    interpolation error, and lies on or past the line."""

    def gap(ve):
        return sgn * (section - math.exp(ve))

    def probe(s):
        got = _dp_step(rhs, u, v, s, k1)
        return gap(got[1]), got

    return _bracket_root(probe, 0.0, gap(v), h, gap(step[1]), step, _EVENT_TOL * max(1.0, abs(t)))[1]


def integrate(p: Params, start, direction: str = "forward", *, section: Optional[float] = None) -> Orbit:
    """Adaptive trajectory of the family field from ``start``, a finite point of the closed
    positive quadrant.

    The orbit runs in (ln x, ln y) on the clock ds = (1 + x^2 + y) dt, so one chart holds
    the whole open quadrant and infinity; a start on an axis keeps that coordinate at exactly
    0, and runs as the flow of the other one along the axis.  The stop tests and the section
    compare in x and y.  It terminates on convergence to an equilibrium, escape to
    infinity (ln x or ln y past ln 1e9, at O1 when y < x/2), the located first crossing
    of the line y = ``section``, upward forward and downward backward (hit-section), or
    after ``_MAX_STEPS`` accepted steps (max-steps).  An IntegrationFailure, on step-size
    underflow, names the direction and start of the orbit.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    x, y = float(start[0]), float(start[1])
    # the comparisons also reject nan
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise ValueError(f"start {start} is not a finite point of the closed positive quadrant")
    sgn = 1.0 if direction == "forward" else -1.0
    b, c, d = p._float
    rhs = _rhs(b, c, d, sgn)
    # an axis coordinate is ln 0 = -inf, which every stage of a step keeps
    u, v = (math.log(z) if z > 0.0 else -math.inf for z in (x, y))
    on_axis = x == 0.0 or y == 0.0
    # off an axis, only the points that attract in this direction can stop the orbit
    stops = [q for q in _stops(p, sgn) if on_axis or q[3] == "always"]
    # the log-chart position of P2, the centre of the return map; without P2 the error scale is relative
    p2 = [(qx, qy) for name, qx, qy, _ in _stops(p, sgn) if name == "P2" and qx > 0.0 < qy]
    ou, ov = (math.log(p2[0][0]), math.log(p2[0][1])) if p2 else (math.inf, math.inf)
    t = 0.0
    samples: list[tuple[float, str, tuple[float, float]]] = [(0.0, "affine", (x, y))]
    k1 = rhs(u, v)
    h = 0.01 / max(abs(k1[0]), abs(k1[1]), 1e-10)
    disc = _project(x, y)

    while True:
        hit = ""
        for name, qx, qy, mode in stops:
            dx, dy = x - qx, y - qy
            # an axis-only point stops an orbit on an axis that moves toward it: x' and y' have the signs of x k1[0]
            # and y k1[1]
            if dx * dx + dy * dy <= _CONVERGE_DIST2 and (mode == "always" or dx * x * k1[0] + dy * y * k1[1] < 0.0):
                hit = name
                break
        if hit:
            terminal, detail = "converged-to-point", hit
            break
        if u > _ESCAPE or v > _ESCAPE:
            terminal, detail = "escaped", "O1" if y < 0.5 * x else "infinity"
            break
        if len(samples) > _MAX_STEPS:
            terminal, detail = "max-steps", ""
            break
        # near P2 the flow is nearly linear and a turn's displacement is a small share of the distance r
        # from P2, so the error scale shrinks with r; an axis coordinate, at -inf, has an infinite scale
        r = max(abs(u - ou), abs(v - ov))
        su = _ABS_TOL + _REL_TOL * min(r, max(abs(u), 1.0))
        sv = _ABS_TOL + _REL_TOL * min(r, max(abs(v), 1.0))

        while True:
            try:
                step = _dp_step(rhs, u, v, h, k1)
                eu, ev = step[3] / su, step[4] / sv
                err = math.sqrt(0.5 * (eu * eu + ev * ev))
            except OverflowError:  # e^u of a trial stage overflows instead of giving inf
                err = math.inf
            if err <= 1.0:
                break
            h *= max(0.1, min(0.9, 0.9 * err**-0.2)) if err < math.inf else 0.1  # nan also takes 0.1
            # the floor is on the clock s, not relative to t, which a slow passage runs past 1e13
            if h < 1e-14:
                raise IntegrationFailure(
                    f"{direction} orbit from {samples[0][2]}: step size underflow", Orbit(samples, "failed", "step-underflow")
                )
        growth = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
        un, vn, dt, _, _, k7 = step
        xn, yn = math.exp(un), math.exp(vn)

        if section is not None and sgn * y < sgn * section <= sgn * yn:
            ue, ve, dte, _, _, _ = _locate(rhs, sgn, section, u, v, t, h, k1, step)
            samples.append((t + dte, "affine", (math.exp(ue), math.exp(ve))))
            terminal, detail = "hit-section", ""
            break

        disc_n = _project(xn, yn)
        chord = math.dist(disc, disc_n)
        u, v, t, x, y, k1, disc = un, vn, t + dt, xn, yn, k7, disc_n
        # the next step's chord on the disc is kept near at most _DISC_CHORD, judged from this one
        h *= min(growth, _DISC_CHORD / chord) if chord > 0.0 else growth
        # a coordinate that is no normal double off its axis keeps the sample in the log chart
        deep = -math.inf < u < _LOG_FLOOR or -math.inf < v < _LOG_FLOOR
        samples.append((t, "log", (u, v)) if deep else (t, "affine", (x, y)))

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


def _turn(p: Params, start, y2: float, what: str, direction: str = "forward") -> Orbit:
    """The orbit from ``start`` in ``direction`` to its next located crossing of
    y = ``y2``; NoReturnError "``what`` (terminal detail)" on any other terminal.

    The forward turn from the P1 separatrix seed, which both ``detect_limit_cycle``
    and the separatrix walk of ``build_portrait`` take, is kept in the instance
    ``__dict__`` of ``p``."""
    if direction == "forward" and start == _p1_separatrix_start(p):
        orbit = vars(p).get("_p1_turn") or vars(p).setdefault("_p1_turn", integrate(p, start, section=y2))
    else:
        orbit = integrate(p, start, direction, section=y2)
    if orbit.terminal != "hit-section":
        raise NoReturnError(f"{what} ({' '.join(filter(None, (orbit.terminal, orbit.detail)))})", orbit)
    return orbit


def _walk(p: Params, start, direction: str = "forward") -> tuple[Orbit, list[float]]:
    """The orbit from ``start`` in ``direction`` turn by turn, with the abscissae
    of its crossings of the section ray, upward forward and downward backward.

    A start on the section ray is the first crossing.  The walk ends at a
    terminal, once its samples pass ``_MAX_STEPS``, or once the crossings of
    two successive turns lie within ``_SETTLED``, so a returning orbit keeps
    at least two turns.  A walk that ends between turns ends on ``hit-section``.
    """
    x2, y2 = interior_point(p)
    samples: list[tuple[float, str, tuple[float, float]]] = []
    xs = [float(start[0])] if start[1] == y2 and start[0] > x2 else []
    settles_after = len(xs) + 1
    t0 = 0.0
    while True:
        try:
            orbit = _turn(p, start, y2, "", direction)
        except NoReturnError as err:
            orbit = err.orbit
        # a later turn starts at the crossing that ended the one before, whose own y is its first
        # section test, so the turn neither finds that crossing again nor misses the next one
        samples += [(t0 + t, chart, pt) for t, chart, pt in orbit.samples[bool(samples):]]
        if orbit.terminal != "hit-section":
            return Orbit(samples, orbit.terminal, orbit.detail), xs
        t0, _, start = samples[-1]
        xs.append(start[0])
        if len(xs) > settles_after and abs(xs[-1] - xs[-2]) <= _SETTLED or len(samples) > _MAX_STEPS:
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
    """One period of the detected cycle as affine (x, y) points, each step's chord on the
    Poincare disc kept near at most ``_DISC_CHORD``, like every drawn orbit."""
    if not cycle.found or cycle.section_x is None:
        raise ValueError("no cycle to sample")
    _, y2 = interior_point(p)
    return _turn(p, (cycle.section_x, y2), y2, "cycle sampling failed to close the loop").affine_points()


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
