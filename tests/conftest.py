"""Figures shared by several test modules."""

from fractions import Fraction

import pytest

from rigidlab.numeric import Point, QScalar, circle_intersect
from rigidlab.plane import PointSet, lattice_ball, lattice_point


def _turned(a: Point, t: Point) -> Point:
    """t turned about a by the spindle's hinge: cosine 5/6, sine -sqrt(11)/6."""
    c, s = Fraction(5, 6), QScalar(ext=((11, Fraction(-1, 6)),))
    vx, vy = t.x - a.x, t.y - a.y
    return Point(a.x + vx * c - vy * s, a.y + vx * s + vy * c)


@pytest.fixture(scope="session")
def spindle_braced_ball1() -> PointSet:
    """lattice_ball(1) with an exact Moser spindle on each of the sqrt(3)
    pairs (-1, 0)-(1/2, sqrt(3)/2) and (-1, 0)-(1/2, -sqrt(3)/2).

    The lattice rhombus on a pair is one half of its spindle; the other
    half is the rhombus on (-1, 0) and the far point turned by the hinge.
    The two spindles share one apex of those rhombi: 7 + 5 = 12 points,
    whose unit-preserving maps leave Q(sqrt(3), sqrt(11), sqrt(33)).
    """
    a = lattice_point(-1, 0)
    extra = []
    for far in (lattice_point(0, 1), lattice_point(1, -1)):
        g = _turned(a, far)
        extra += [g, *circle_intersect(a, 1, g, 1)]
    return PointSet(list(lattice_ball(1)) + extra)
