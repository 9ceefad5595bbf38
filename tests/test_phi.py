"""Admissible orientations: the membership predicate, enumeration,
sampling, and the triangle/unit preservation harness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.errors import DuplicateMember, EmptyFamily, MissingTriangle, UsageError
from rigidlab.phi import (
    Orientation,
    OrientationFamily,
    all_orientations,
    check_phi,
    count_orientations,
    observation_verify,
    orientation_from_bits,
    sample_orientations,
)
from rigidlab.plane import PointSet, base_triangle, lattice_ball, lattice_point, P0, P1


class TestCheckPhi:
    def test_triangle_canonical(self):
        tri = base_triangle()
        o = orientation_from_bits(tri, 0)
        assert check_phi(tri, o.pairs).ok

    def test_union_clause(self):
        tri = base_triangle()
        # drop the forced (p1, p2) pair: union no longer covers that edge
        pairs = tuple(p for p in orientation_from_bits(tri, 0).pairs if p != (1, 2))
        rep = check_phi(tri, pairs)
        assert not rep.ok and "union" in rep.violation

    def test_doubled_clause(self):
        tri = base_triangle()
        pairs = orientation_from_bits(tri, 0).pairs + ((2, 1),)
        rep = check_phi(tri, pairs)
        assert not rep.ok and "doubled" in rep.violation

    def test_forced_edge_clause(self):
        tri = base_triangle()
        pairs = tuple((2, 1) if p == (1, 2) else p for p in
                      orientation_from_bits(tri, 0).pairs)
        rep = check_phi(tri, pairs)
        assert not rep.ok and "forced" in rep.violation

    def test_out_of_range(self):
        rep = check_phi(base_triangle(), ((0, 7),))
        assert not rep.ok and "range" in rep.violation

    def test_orientation_constructor_enforces(self):
        with pytest.raises(ValueError):
            Orientation(base_triangle(), ((0, 1), (1, 0)))


class TestEnumeration:
    def test_counts(self):
        assert count_orientations(base_triangle()) == 1
        assert count_orientations(lattice_ball(1)) == 512

    def test_missing_triangle(self):
        with pytest.raises(MissingTriangle):
            count_orientations(PointSet([P0, P1]))

    def test_all_orientations_distinct(self):
        tri_plus = lattice_ball(0, include_triangle=True)
        members = list(all_orientations(tri_plus))
        assert len(members) == count_orientations(tri_plus)
        assert len({o.pairs for o in members}) == len(members)

    def test_bits_roundtrip(self):
        ps = lattice_ball(1)
        free = orientation_from_bits(ps, 0).free_edges()
        assert len(free) == 9
        for bits in (0, 1, 137, 511):
            o = orientation_from_bits(ps, bits)
            got = 0
            for k, (i, j) in enumerate(free):
                if (j, i) in o.pair_set:
                    got |= 1 << k
            assert got == bits

    def test_sampling_deterministic_and_distinct(self):
        ps = lattice_ball(1)
        s1 = sample_orientations(ps, 7, 40)
        s2 = sample_orientations(ps, 7, 40)
        assert [o.pairs for o in s1] == [o.pairs for o in s2]
        assert len({o.pairs for o in s1}) == 40

    def test_sampling_respects_population(self):
        with pytest.raises(UsageError):
            sample_orientations(base_triangle(), 0, 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_sampling_needs_a_member(self, k):
        with pytest.raises(ValueError):
            sample_orientations(lattice_ball(1), 0, k)


class TestFamily:
    def test_rejects_empty(self):
        with pytest.raises(EmptyFamily):
            OrientationFamily(base_triangle(), ())

    def test_rejects_duplicates(self):
        tri = base_triangle()
        o = orientation_from_bits(tri, 0)
        with pytest.raises(DuplicateMember):
            OrientationFamily(tri, (o, o))

    def test_len_and_iter(self):
        ps = lattice_ball(1)
        fam = OrientationFamily(
            ps, (orientation_from_bits(ps, 0), orientation_from_bits(ps, 1))
        )
        assert len(fam) == 2
        assert [o.pairs for o in fam][0] == orientation_from_bits(ps, 0).pairs


class TestObservationHarness:
    def test_identity_found_and_clean(self):
        ps = lattice_ball(1)
        o = orientation_from_bits(ps, 42)
        rep = observation_verify(ps, o, o, ps)
        assert rep.hom_count >= 1
        assert rep.ok

    @given(st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=30, deadline=None)
    def test_observations_hold_on_ball1(self, b1, b2):
        """Every hom between orientation structures on the radius-1 ball
        fixes the three triangle corners and preserves unit distances."""
        ps = lattice_ball(1)
        S = orientation_from_bits(ps, b1)
        Z = orientation_from_bits(ps, b2)
        rep = observation_verify(ps, S, Z, ps)
        assert rep.violations == ()

    def test_restrict_to_subset(self):
        ps = lattice_ball(1)
        o = orientation_from_bits(ps, 0)
        sub = ps.subset(list(ps.triangle_indices()))
        rs = o.restrict(sub)
        assert rs.n == 3 and len(rs.pairs) == 5

    def test_restrict_requires_membership(self):
        ps = base_triangle()
        o = orientation_from_bits(ps, 0)
        with pytest.raises(ValueError):
            o.restrict(PointSet([lattice_point(3, 3)]))

    def test_relstruct_built_once(self):
        # one structure per orientation, so its masks are indexed once;
        # restricting to the whole base in order gives that same structure
        ps = lattice_ball(1)
        o = orientation_from_bits(ps, 137)
        rs = o.relstruct()
        assert rs is o.relstruct()
        assert (rs.n, rs.pairs) == (len(ps), o.pairs)
        assert o.restrict(ps) is rs
        assert o == orientation_from_bits(ps, 137)
