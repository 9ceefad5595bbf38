"""Lattice fragments, unit graphs and unit paths."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.errors import MissingTriangle, NotRepresentable
from rigidlab.numeric import Point, QScalar, dist2, is_unit, points_equal
from rigidlab.plane import (
    P0,
    P1,
    P2,
    TRIANGLE,
    PointSet,
    base_triangle,
    lattice_ball,
    lattice_coords,
    lattice_point,
    unit_graph,
    unit_path,
)
from rigidlab.relations import RelStruct, component, neighbours

lattice_pts = st.builds(lattice_point, st.integers(-5, 5), st.integers(-5, 5))


class TestPointSet:
    def test_dedup_first_wins(self):
        ps = PointSet([P0, P1, P0, P2, P1])
        assert len(ps) == 3
        assert points_equal(ps[0], P0)

    def test_mixed_backend_rejected(self):
        # a float pair is no point; every point set is exact
        with pytest.raises(TypeError):
            PointSet([P0, (0.0, 0.0)])
        assert PointSet([P0]).backend == "exact"

    def test_exact_key_sees_further_roots(self):
        # (sqrt(11), 0) shares every rational and sqrt(3) coefficient with p0
        q = Point(QScalar(ext=((11, 1),)), QScalar(0))
        ps = PointSet([P0, q])
        assert len(ps) == 2 and ps.index_of(q) == 1 and ps.index_of(P0) == 0

    def test_index_and_contains(self):
        ps = base_triangle()
        assert ps.index_of(P1) == 1
        assert ps.index_of(lattice_point(5, 5)) == -1
        assert P2 in ps

    def test_triangle_indices(self):
        ps = PointSet([lattice_point(2, 2), P2, P0, P1])
        assert ps.triangle_indices() == (2, 3, 1)
        with pytest.raises(MissingTriangle):
            PointSet([P0, P1]).triangle_indices()

    def test_equality_by_identity_then_value(self, monkeypatch):
        ps = lattice_ball(2)
        copy = PointSet(list(ps))
        assert copy is not ps and copy == ps
        assert ps != lattice_ball(1)
        assert ps != PointSet(list(reversed(ps.points)))

        def refuse(p, q):
            raise AssertionError("a set compared with itself by value")

        monkeypatch.setattr("rigidlab.plane.points_equal", refuse)
        assert ps == ps and not ps != ps

    def test_subset_and_with_points(self):
        ps = base_triangle()
        sub = ps.subset([0, 2])
        assert len(sub) == 2 and points_equal(sub[1], P2)
        grown = ps.with_points([lattice_point(2, 0)])
        assert len(grown) == 4


class TestLattice:
    @pytest.mark.parametrize("radius,count", [(0, 1), (1, 7), (2, 19), (3, 37)])
    def test_ball_sizes(self, radius, count):
        assert len(lattice_ball(radius)) == count

    def test_ball1_edges(self):
        assert len(unit_graph(lattice_ball(1))) == 12

    def test_ball_contains_triangle(self):
        assert lattice_ball(1).contains_triangle()
        assert len(lattice_ball(0, include_triangle=True)) == 3

    @given(st.integers(0, 4))
    def test_ball_prefix_monotone(self, r):
        small, big = lattice_ball(r), lattice_ball(r + 1)
        for i in range(len(small)):
            assert points_equal(small[i], big[i])

    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_coords_roundtrip(self, a, b):
        assert lattice_coords(lattice_point(a, b)) == (a, b)

    def test_coords_rejects_non_lattice(self):
        assert lattice_coords(Point.exact("1/3", "0")) is None
        # sqrt(11) has no sqrt(3) part, yet is not a lattice coordinate
        assert lattice_coords(Point(QScalar(ext=((11, 1),)), QScalar(0))) is None


class TestUnitGraph:
    def test_triangle_edges(self):
        edges = unit_graph(base_triangle())
        assert edges == ((0, 1), (0, 2), (1, 2))
        assert neighbours(RelStruct(3, edges))[0] == 0b110

    def test_components(self):
        ps = PointSet([P0, P1, lattice_point(5, 0), lattice_point(6, 0)])
        nbrs = neighbours(RelStruct(len(ps), unit_graph(ps)))
        assert component(nbrs, 0, 0b1111) == 0b0011
        assert component(nbrs, 3, 0b1111) == 0b1100
        triangle = neighbours(RelStruct(3, unit_graph(base_triangle())))
        assert component(triangle, 0, 0b111) == 0b111


class TestUnitPath:
    def test_single_point(self):
        assert unit_path(P0, P0) == (P0,)

    @given(lattice_pts, lattice_pts)
    @settings(max_examples=60)
    def test_endpoints_and_steps(self, a, b):
        path = unit_path(a, b)
        assert points_equal(path[0], a)
        assert points_equal(path[-1], b)
        for u, v in zip(path, path[1:]):
            assert is_unit(u, v)

    def test_short_hop_uses_apex(self):
        # squared distance 3: one intermediate apex suffices
        path = unit_path(P0, lattice_point(1, 1))
        assert len(path) == 3

    @pytest.mark.parametrize("to", [
        Point(QScalar(2, 1), QScalar(0)),
        Point(QScalar(0), QScalar(3, 1)),
        Point.exact("3", "4"),
    ], ids=["2+r3,0", "0,3+r3", "3,4"])
    def test_straight_chain_hops(self, to):
        # an off-lattice endpoint more than two units away takes the
        # straight chain of unit hops capped by an apex
        assert lattice_coords(to) is None
        path = unit_path(P0, to)
        assert points_equal(path[0], P0) and points_equal(path[-1], to)
        assert len(path) >= 4
        for u, v in zip(path, path[1:]):
            assert dist2(u, v) == QScalar(1)

    def test_exact_irrational_gap_refused(self):
        # squared distance 13/4 has no exact square root in the field
        with pytest.raises(NotRepresentable):
            unit_path(P0, Point.exact("0", "13/12r3"))

    def test_float_far_pair(self):
        # the straight chain is exact only: the decimal pair (3.7, 1.2),
        # given exactly, is refused rather than rounded into the field
        with pytest.raises(NotRepresentable):
            unit_path(P0, Point(Fraction(37, 10), Fraction(6, 5)))

