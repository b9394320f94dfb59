"""The family's points at infinity: O1 and O2 on the equator of the Poincare disc.

The cubic field extends to the closed Poincare disc, whose boundary circle
collects the directions at infinity.  Its chart U1 covers the x-directions
at infinity and U2 the y-directions; O1 and O2 are their origins, the same
for every parameter triple.  ``portrait`` draws and reports them.
The integrator does not use these charts: ``numerics`` runs it in
(ln x, ln y) on the weighted clock ds = (1 + x^2 + y) dt.  The sparse polynomial
engine and the U1/U2 chart maps live with the tests, in
``tests/poincare_engine.py``; ``tests/test_compactify.py`` proves that
chart's field, and O1 and O2 from the Poincare formulas, with sympy.
"""

from __future__ import annotations

from .model import Params, SectorData, SingularPoint

__all__ = ["family_infinite_points"]

_FAMILY_INFINITE_POINTS = (
    SingularPoint("O1", "U1", (0.0, 0.0), "unstable-node", (1 + 0j, 1 + 0j)),
    SingularPoint("O2", "U2", (0.0, 0.0), "degenerate", (0j, 0j), SectorData("hyperbolic", ("infinity-equator", "x=0-axis"))),
)


def family_infinite_points(p: Params) -> list[SingularPoint]:
    """The family's equator points O1 and O2, the same for every ``p``.

    On the equator of U1 the field is u' = u, so O1 is an unstable node with
    linear part I, both eigenvalues 1.  The U2 field has no linear part at its
    origin, so O2 is degenerate; its horizontal blow-up u = v w1 has a
    saddle-node at the origin, which gives one hyperbolic sector in the
    quadrant, bounded by the equator and x = 0.  ``tests/test_compactify.py``
    proves these facts with sympy for all positive parameters, and the byte
    golden of the portraits in ``tests/test_cli.py`` pins the orbits that reach
    O1 and O2.
    """
    return list(_FAMILY_INFINITE_POINTS)
