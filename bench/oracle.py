"""Independent oracle for the benchmark's output checks.

Nothing here imports kportrait.  The case table of the paper is evaluated in
exact rational arithmetic (``Fraction(float)`` is exact, so float inputs are
judged on the value the program actually receives), with the eigenvalue
discriminant of the interior point P2 taken as trace^2 - 4 det of the
Jacobian there, computed from the field rather than from the closed form the
program uses.  Cycle closure is checked with scipy's DOP853 integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LETTER = {1: "A", 2: "A", 3: "B", 4: "C", 5: "B", 6: "C", 7: "C"}
ATTRACTOR = {"A": "P1", "B": "cycle", "C": "P2"}
P2_KIND = {
    3: "unstable-node",
    4: "stable-node",
    5: "unstable-focus",
    6: "stable-focus",
    7: "weak-stable-focus",
}


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class Expected:
    """What the paper's table says about one parameter triple."""

    case: int
    region: str
    letter: str
    status: str
    boundary: tuple[str, ...]
    margin: float  # smallest relative distance of q1, A, tr^2-4det, S2 from zero


def p2_location(b, c, d) -> tuple[Fraction, Fraction]:
    """Interior equilibrium: y' = 0 fixes x2, x' = 0 then fixes y2."""
    b, c, d = Fraction(b), Fraction(c), Fraction(d)
    x2 = b * d / (c - d)
    y2 = -x2 * x2 + (1 - b) * x2 + b
    return x2, y2


def p2_trace_det(b, c, d) -> tuple[Fraction, Fraction]:
    """Trace and determinant of the field's Jacobian at P2.

    At P2 both bracket factors vanish, so J = [[x2 (1 - b - 2 x2), -x2],
    [(c - d) y2, 0]].
    """
    b, c, d = Fraction(b), Fraction(c), Fraction(d)
    x2, y2 = p2_location(b, c, d)
    return x2 * (1 - b - 2 * x2), (c - d) * x2 * y2


def expected(b, c, d) -> Expected:
    """Case, region, letter, status and boundary tags from the sign table."""
    b, c, d = Fraction(b), Fraction(c), Fraction(d)
    q1 = b * d - (c - d)
    a = d * (c - d) - b * d * (c + d)
    s2 = 1 + c - d - b - b * d
    margins = [
        abs(q1) / (b * d + abs(c - d)),
        abs(a) / (d * abs(c - d) + b * d * (c + d)),
        abs(s2) / (1 + c + d + b + b * d),
    ]
    boundary: tuple[str, ...] = ()
    if q1 > 0:
        case, region = 1, "I"
    elif q1 == 0:
        case, region, boundary = 2, "S1", ("case2-boundary",)
    else:
        tr, det = p2_trace_det(b, c, d)
        disc = tr * tr - 4 * det
        margins.append(abs(disc) / (tr * tr + 4 * abs(det)))
        if a == 0:
            case, boundary = 7, ("A-zero",)
        elif disc < 0:
            case = 5 if a > 0 else 6
        else:
            case = 3 if a > 0 else 4
            if disc == 0:
                boundary = ("B-zero",)
        region = {1: "III", 0: "S3", -1: {1: "II-b", 0: "S2", -1: "II-a"}[_sign(s2)]}[_sign(a)]
    letter = LETTER[case]
    status = "conjectured" if letter == "C" and s2 >= 0 else "proven"
    return Expected(case, region, letter, status, boundary, float(min(margins)))


def in_scan_zone(b, c, d) -> bool:
    """The conjectured zone the scan covers: region II-b (A < 0 with the
    divergence margin 1 + c - d - b - b*d positive) off every boundary."""
    e = expected(b, c, d)
    return e.region == "II-b" and not e.boundary


def grid_axis(lo: float, hi: float, n: int) -> list[float]:
    """Inclusive linspace, as the README defines the scan grid."""
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def first_lyapunov(c, d) -> float:
    """Closed-form ell1 = -d^2 / (omega (c + d)^2) at b0 = (c - d)/(c + d),
    with omega^2 the determinant at P2 (the trace vanishes there)."""
    c, d = Fraction(c), Fraction(d)
    b0 = (c - d) / (c + d)
    _, det = p2_trace_det(b0, c, d)
    return -float(d * d / (c + d) ** 2) / math.sqrt(det)


def cycle_closure(b: float, c: float, d: float, section_x: float, period: float):
    """Integrate from (section_x, y2) with DOP853 (rtol 1e-12) to the next
    upward crossing of y = y2; return (x gap, period gap), or None when the
    orbit does not return within 1.5 reported periods."""
    from scipy.integrate import solve_ivp

    y2 = float(p2_location(b, c, d)[1])

    def field(_t, z):
        x, y = z
        return [x * (-x * x + (1.0 - b) * x - y + b), y * ((c - d) * x - d * b)]

    def section(_t, z):
        return z[1] - y2

    section.direction = 1
    if not (math.isfinite(period) and 0.0 < period < 1e4):
        return None
    sol = solve_ivp(
        field,
        (0.0, 1.5 * period),
        [section_x, y2],
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        events=section,
    )
    # the start lies on the section, so a crossing at t ~ 0 is not a return
    for t, z in zip(sol.t_events[0], sol.y_events[0]):
        if t > 0.01 * period:
            return float(z[0]) - section_x, float(t) - period
    return None
