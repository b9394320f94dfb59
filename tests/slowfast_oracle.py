"""Test-only oracles for the slow-fast cycles of small b: a Bessel-zero singular limit, and a
DOP853 reference in (ln x, ln y).

The limit.  Put k = c - delta > 0.  At b = 0 and in the time ds = x dt the family reads
dx/ds = x - x^2 - y, dy/ds = k y, and x = w'/w turns this Riccati equation into a Bessel
equation in z = (2/k) sqrt(y) (Watson, *A Treatise on the Theory of Bessel Functions*, ch. 4).
P1's unstable branch, x = (k z/2) J_(1/k - 1)(z)/J_(1/k)(z), meets the y-axis at the first
positive zero j of J_(1/k - 1), at the height y_in = (k j/2)^2.  Near the y-axis ln x and ln y
drift slowly, (ln x)' ~ b - y and (ln y)' = -delta b, so x returns only once the integral of
b - y vanishes (the entry-exit relation; Benoit, 1981; De Maesschalck and Schecter, J.
Differential Equations 260, 2016).  Hence, at fixed (c, delta) as b -> 0, the cycle's top
y_max -> y_in and its period T obeys delta b^2 T -> y_in.

The reference integrates the family's field in (u, v) = (ln x, ln y) with scipy's DOP853 at
rtol 1e-12 and atol 1e-14, on the clock ds = (1 + x^2 + y) dt, with the true time t as a third
component: that field is bounded on the whole quadrant, so the slow passages, where x drops
below any double, cost no more than the fast ones.
"""

import math

from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jv

RTOL, ATOL = 1e-12, 1e-14


def y_in(c: float, delta: float) -> float:
    """(k j/2)^2, with k = c - delta and j the first positive zero of J_(1/k - 1)."""
    k = c - delta
    nu = 1.0 / k - 1.0  # > -1, so J_nu > 0 just right of 0
    z = 0.05
    while jv(nu, z + 0.05) > 0.0:
        z += 0.05
    j = brentq(lambda s: jv(nu, s), z, z + 0.05, xtol=1e-15)
    return (k * j / 2.0) ** 2


def interior_point(b: float, c: float, delta: float) -> tuple[float, float]:
    """P2 = (delta b/(c - delta), (1 - x2)(x2 + b)), written out independently of the package."""
    x2 = delta * b / (c - delta)
    return x2, (1.0 - x2) * (x2 + b)


def first_return(b: float, c: float, delta: float, x0: float) -> tuple[float, float, float]:
    """The next upward crossing of y = y2 by the orbit from (x0, y2), x0 > x2: its abscissa,
    its time of flight and the largest y on the way."""
    _, y2 = interior_point(b, c, delta)
    lny2 = math.log(y2)

    def field(s, z):
        # a rejected trial stage may overshoot: its exponent is clamped short of overflow
        x, y = math.exp(min(z[0], 700.0)), math.exp(min(z[1], 700.0))
        iw = 1.0 / (1.0 + x * x + y)
        return [iw * (-x * x + (1.0 - b) * x - y + b), iw * ((c - delta) * x - delta * b), iw]

    def upward(s, z):
        return z[1] - lny2

    upward.direction, upward.terminal = 1, True
    # leave the section before watching for the crossing, which the start itself would be
    head = solve_ivp(field, (0.0, 1e-3), [math.log(x0), lny2, 0.0], method="DOP853", rtol=RTOL, atol=ATOL)
    turn = solve_ivp(field, (1e-3, 1e12), head.y[:, -1], method="DOP853", rtol=RTOL, atol=ATOL, events=upward)
    u, _, t = turn.y_events[0][0]
    return math.exp(u), float(t), math.exp(max(head.y[1].max(), turn.y[1].max()))


def cycle(b: float, c: float, delta: float) -> tuple[float, float, float]:
    """Section abscissa, period and largest y of the cycle, the root of P(x) - x by brentq
    between just right of x2 and x = 1."""
    x2, _ = interior_point(b, c, delta)
    xs = brentq(lambda x: first_return(b, c, delta, x)[0] - x, x2 * 1.01, 1.0, xtol=1e-13, rtol=1e-13)
    _, period, y_max = first_return(b, c, delta, xs)
    return xs, period, y_max
