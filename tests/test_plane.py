"""Lattice fragments, unit graphs, paths, and connectivity augmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.errors import MissingTriangle, MixedBackend, NotRepresentable
from rigidlab.numeric import DEFAULT_TOL, Point, QScalar, dist2, is_unit, points_equal
from rigidlab.plane import (
    P0,
    P1,
    P2,
    TRIANGLE,
    PointSet,
    UnitPath,
    augment_tilde,
    base_triangle,
    components,
    is_connected,
    lattice_ball,
    lattice_coords,
    lattice_point,
    unit_graph,
    unit_path,
)

lattice_pts = st.builds(lattice_point, st.integers(-5, 5), st.integers(-5, 5))


class TestPointSet:
    def test_dedup_first_wins(self):
        ps = PointSet([P0, P1, P0, P2, P1])
        assert len(ps) == 3
        assert points_equal(ps[0], P0)

    def test_mixed_backend_rejected(self):
        with pytest.raises(MixedBackend):
            PointSet([P0, Point.approx(0.0, 0.0)])

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
        assert unit_graph(lattice_ball(1)).edge_count == 12

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
        g = unit_graph(base_triangle())
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.neighbors(0) == (1, 2)

    def test_components(self):
        ps = PointSet([P0, P1, lattice_point(5, 0), lattice_point(6, 0)])
        comps = components(ps)
        assert comps == [[0, 1], [2, 3]]
        assert not is_connected(ps)
        assert is_connected(base_triangle())


class TestUnitPath:
    def test_validates_steps(self):
        UnitPath((P0, P1))
        with pytest.raises(ValueError):
            UnitPath((P0, lattice_point(2, 0)))

    def test_single_point(self):
        p = unit_path(P0, P0)
        assert p.vertices == (P0,)

    @given(lattice_pts, lattice_pts)
    @settings(max_examples=60)
    def test_endpoints_and_steps(self, a, b):
        path = unit_path(a, b)
        assert points_equal(path.vertices[0], a)
        assert points_equal(path.vertices[-1], b)
        for u, v in zip(path.vertices, path.vertices[1:]):
            assert is_unit(u, v)

    def test_short_hop_uses_apex(self):
        # squared distance 3: one intermediate apex suffices
        path = unit_path(P0, lattice_point(1, 1))
        assert path.m == 2

    def test_float_far_pair(self):
        a = Point.approx(0.0, 0.0)
        b = Point.approx(3.7, 1.2)
        path = unit_path(a, b)
        for u, v in zip(path.vertices, path.vertices[1:]):
            assert is_unit(u, v)

    def test_exact_irrational_gap_refused(self):
        # squared distance 13/4 has no exact square root in the field
        with pytest.raises(NotRepresentable):
            unit_path(P0, Point.exact("0", "13/12r3"))


class TestAugment:
    @given(st.lists(lattice_pts, min_size=1, max_size=6), lattice_pts)
    @settings(max_examples=60)
    def test_augment_connects(self, pts, x):
        T = PointSet(pts)
        out = augment_tilde(T, x)
        assert is_connected(out)
        assert out.index_of(x) >= 0
        for p in T:
            assert out.index_of(p) >= 0

    def test_augment_noop_when_connected(self):
        T = PointSet([P0, P1])
        out = augment_tilde(T, P2)
        assert len(out) == 3
