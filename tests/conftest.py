"""Figures and helpers shared by several test modules."""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from rigidlab import bq
from rigidlab.numeric import Point, QScalar, circle_intersect
from rigidlab.plane import PointSet, lattice_ball, lattice_point
from rigidlab.relations import (RelStruct, WitnessCheck, component, enumerate_homs,
                                neighbours)


def is_connected_within(s: RelStruct, subset) -> bool:
    """Whether the pairs inside `subset`, taken as undirected edges,
    connect it; the empty subset counts as connected."""
    mask = 0
    for v in subset:
        mask |= 1 << v
    if not mask:
        return True
    start = (mask & -mask).bit_length() - 1
    return component(neighbours(s), start, mask) == mask


def reference_check_witness(s: RelStruct, w) -> WitnessCheck:
    """check_witness as it was before it searched only x's component: one
    search of the whole subset, whose counterexample is that search's
    first map."""
    sub = w.subset
    induced = s.restrict(sub)
    result = enumerate_homs(induced, s, pin={sub.index(w.x): w.y}, limit=1)
    if not result.maps:
        return WitnessCheck(True, None)
    vec = result.maps[0]
    return WitnessCheck(False, {sub[k]: vec[k] for k in range(len(sub))})


def reference_braced(vs) -> PointSet:
    """bq._braced as it was before it read the site table: both apexes of
    each hop from a direct circle intersection."""
    pts = list(vs)
    for u, v in zip(vs, vs[1:]):
        pts.extend(circle_intersect(u, 1, v, 1))
    return PointSet(pts)


def reference_rhombus(a: Point, d: Point) -> PointSet:
    """bq._rhombus as it was before it read the site table."""
    return PointSet([a, *circle_intersect(a, 1, d, 1), d])


@contextmanager
def emptied_tables():
    """The exact enumerations inside start from no shared site table; the
    tables of the session are put back afterwards."""
    saved = bq._TABLES
    bq._TABLES = {}
    try:
        yield bq._TABLES
    finally:
        bq._TABLES = saved


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
