"""Admissible orientations: the membership predicate, enumeration,
sampling, and the triangle/unit preservation harness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import phi
from rigidlab.errors import DuplicateMember, EmptyFamily, MissingTriangle, UsageError
from rigidlab.numeric import is_unit
from rigidlab.phi import (
    ObservationReport,
    Orientation,
    OrientationFamily,
    all_orientations,
    check_phi,
    count_orientations,
    observation_verify,
    orientation_from_bits,
    sample_orientations,
)
from rigidlab.plane import (
    PointSet, base_triangle, lattice_ball, lattice_point, unit_graph, P0, P1,
)
from rigidlab.relations import enumerate_homs


def reference_sample(base, seed, k):
    """sample_orientations as it was when each member went through
    orientation_from_bits, which lists the free edges again."""
    free = phi._free_edges(base)
    total = 1 << len(free)
    out, seen, counter = [], set(), 0
    while len(out) < k:
        bits = phi._sample_bits(seed, counter, free) % total
        counter += 1
        if bits in seen:
            continue
        seen.add(bits)
        out.append(orientation_from_bits(base, bits))
    return out


def reference_observation(X, S, Z, codomain, hom_limit=None):
    """observation_verify as it was when X's unit edges came from
    unit_graph(X), one distance test per pair of points."""
    src = S.restrict(X)
    dst = Z.restrict(codomain)
    tx = X.triangle_indices()
    tc = codomain.triangle_indices()
    result = enumerate_homs(src, dst, limit=hom_limit)
    violations = []
    tri_ok = True
    units_ok = True
    unit_pairs = unit_graph(X)
    for vec in result.maps:
        for corner in range(3):
            if vec[tx[corner]] != tc[corner]:
                tri_ok = False
                violations.append(("triangle", vec, corner))
        for i, j in unit_pairs:
            if not is_unit(codomain[vec[i]], codomain[vec[j]]):
                units_ok = False
                violations.append(("unit", vec, (i, j)))
    return ObservationReport(len(result.maps), tri_ok, units_ok,
                             tuple(violations), result.truncated)


BALL2 = lattice_ball(2)


@st.composite
def ball2_fragments(draw):
    """A subset of lattice_ball(2) holding the triangle, in a drawn order."""
    tri = list(BALL2.triangle_indices())
    rest = [i for i in range(len(BALL2)) if i not in tri]
    extra = draw(st.lists(st.sampled_from(rest), unique=True))
    return BALL2.subset(draw(st.permutations(tri + extra)))


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
            pairs = set(orientation_from_bits(ps, bits).pairs)
            got = 0
            for k, (i, j) in enumerate(free):
                if (j, i) in pairs:
                    got |= 1 << k
            assert got == bits

    def test_sampling_deterministic_and_distinct(self):
        ps = lattice_ball(1)
        s1 = sample_orientations(ps, 7, 40)
        s2 = sample_orientations(ps, 7, 40)
        assert [o.pairs for o in s1] == [o.pairs for o in s2]
        assert len({o.pairs for o in s1}) == 40

    def test_all_orientations_match_bits(self):
        ps = lattice_ball(1)
        assert list(all_orientations(ps)) == [orientation_from_bits(ps, b)
                                              for b in range(512)]

    @pytest.mark.parametrize("radius, seed, k", [
        (1, 7, 40), (1, 0, 1), (1, 3, 512), (0, 5, 1), (2, 1, 25), (2, 11, 3),
    ])
    def test_sampling_matches_reference(self, radius, seed, k):
        ps = lattice_ball(radius, include_triangle=True)
        assert sample_orientations(ps, seed, k) == reference_sample(ps, seed, k)

    def test_unit_edges_read_off_pairs(self):
        for radius in (0, 1, 2):
            ps = lattice_ball(radius, include_triangle=True)
            total = count_orientations(ps)
            for bits in (0, total // 3, total - 1):
                o = orientation_from_bits(ps, bits)
                assert o.unit_edges() == unit_graph(ps)

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

    @given(ball2_fragments(), st.one_of(st.just(BALL2), ball2_fragments()),
           st.integers(0, (1 << 39) - 1),
           st.one_of(st.none(), st.integers(0, (1 << 39) - 1)),
           st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_unit_graph_reference(self, X, codomain, bs, bz, limit):
        """Reading X's unit edges off S|X gives unit_graph(X), so the audit
        equals the one that called unit_graph.  Z = S when bz is None, so
        that many draws have maps to audit."""
        S = orientation_from_bits(BALL2, bs)
        Z = S if bz is None else orientation_from_bits(BALL2, bz)
        assert phi._undirected(S.restrict(X).pairs) == unit_graph(X)
        for hom_limit in (limit, 1):
            assert (observation_verify(X, S, Z, codomain, hom_limit)
                    == reference_observation(X, S, Z, codomain, hom_limit))

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
