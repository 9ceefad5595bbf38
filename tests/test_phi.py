"""Admissible orientations: the membership predicate, enumeration,
sampling, and the triangle/unit preservation harness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import emptied_tables
from rigidlab import bq, export, phi, plane
from rigidlab.acceptance import _case1_pairs
from rigidlab.cli import main
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
from rigidlab.product import witness_case1
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


def assert_as_checked(o):
    """o, built without check_phi, passes it and is what the checked
    constructor builds from its pairs: same pairs, hash and masks."""
    assert check_phi(o.base, o.pairs).ok
    checked = Orientation(o.base, o.pairs)
    assert checked == o
    assert type(o.pairs) is tuple and checked.pairs == o.pairs
    assert hash(checked) == hash(o)
    assert checked.relstruct()._adjacency == o.relstruct()._adjacency
    assert checked.relstruct()._masks == o.relstruct()._masks


# each radius with its forced pairs and free edges, listed once
ADMISSIBLE_BASES = {
    r: (ps, phi._forced_pairs(ps), phi._free_edges(ps))
    for r, ps in ((1, lattice_ball(1)), (2, BALL2))
}


class TestAdmissibleByConstruction:
    """Orientations built through phi._admissible skip check_phi; each
    must be one the checked constructor accepts and builds alike."""

    def test_every_orientation_of_ball1(self):
        members = list(all_orientations(lattice_ball(1)))
        assert len(members) == 512
        for o in members:
            assert_as_checked(o)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_sample_of_ball2(self, seed):
        for o in sample_orientations(BALL2, seed, 12):
            assert_as_checked(o)

    # criterion 5's ten pairs, then the irrational-gap probe sqrt(7) - 1
    @pytest.mark.parametrize("x, y", _case1_pairs(7) + [
        (lattice_point(1, 0), lattice_point(2, 1)),
    ])
    def test_case1_member(self, x, y):
        (S,) = witness_case1(x, y).product.family.members
        assert_as_checked(S)
        assert S == orientation_from_bits(S.base, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(ADMISSIBLE_BASES)), st.integers(min_value=0))
    def test_random_bits(self, radius, bits):
        ps, forced, free = ADMISSIBLE_BASES[radius]
        bits %= 1 << len(free)
        o = phi._admissible(ps, forced, free, bits)
        assert_as_checked(o)
        assert o == orientation_from_bits(ps, bits)


class TestCheckedConstructorRefuses:
    """Orientation(base, pairs) still runs check_phi on given pairs."""

    @staticmethod
    def tampered(how):
        ps = lattice_ball(1)
        t0, t1, t2 = ps.triangle_indices()
        pairs = set(orientation_from_bits(ps, 137).pairs)
        i, j = next(p for p in sorted(pairs) if t0 not in p and {t1, t2} != set(p))
        if how == "reversed":
            pairs = pairs - {(t1, t2)} | {(t2, t1)}
        elif how == "missing":
            pairs.discard((i, j))
        else:
            pairs.add((j, i))
        return ps, tuple(sorted(pairs))

    @pytest.mark.parametrize("how, clause", [
        ("reversed", "forced edge"), ("missing", "union"), ("doubled", "doubled"),
    ])
    def test_constructor(self, how, clause):
        ps, pairs = self.tampered(how)
        with pytest.raises(ValueError, match=clause):
            Orientation(ps, pairs)

    @pytest.mark.parametrize("how", ["reversed", "missing", "doubled"])
    def test_document(self, how, tmp_path, capsys):
        ps, pairs = self.tampered(how)
        doc = export.orientation_to_json(orientation_from_bits(ps, 137))
        doc["pairs"] = [list(p) for p in pairs]
        with pytest.raises(ValueError, match="not an admissible orientation"):
            export.orientation_from_json(doc)
        # no subcommand reads an orientation document: one given as a
        # point set is refused by its schema, a usage error
        path = tmp_path / "tampered.json"
        export.save_json(doc, str(path))
        assert main(["orient", "--input", str(path)]) == 4
        assert capsys.readouterr().err.startswith("usage error: ")


@pytest.fixture
def unit_graph_calls(monkeypatch):
    """Sizes of the point sets unit_graph is called on, through every
    module that binds it."""
    calls = []
    original = plane.unit_graph

    def counted(ps):
        calls.append(len(ps))
        return original(ps)

    for module in (plane, phi, bq, export):
        monkeypatch.setattr(module, "unit_graph", counted)
    return calls


class TestUnitGraphCalls:
    """Building by construction lists the free edges once per call and
    never re-checks: a check_phi per member would add a call each."""

    def test_sample(self, unit_graph_calls):
        sample_orientations(lattice_ball(1), 7, 40)
        assert unit_graph_calls == [7]

    def test_all(self, unit_graph_calls):
        assert len(list(all_orientations(lattice_ball(1)))) == 512
        assert unit_graph_calls == [7]

    def test_case1(self, unit_graph_calls, monkeypatch):
        # the grown set's and the universe's unit edges come from the site
        # table, so an identical call again tests no pair at all
        args = (lattice_point(1, 0), lattice_point(2, 1))
        with emptied_tables():
            first = witness_case1(*args)
            assert unit_graph_calls == []
            units = []

            def counted(p, q):
                units.append((p, q))
                return is_unit(p, q)

            monkeypatch.setattr(bq, "is_unit", counted)
            again = witness_case1(*args)
        assert (units, unit_graph_calls) == ([], [])
        S = again.product.family.members[0]
        assert S == first.product.family.members[0]
        assert S == next(all_orientations(again.product.base))

    def test_checked_paths_still_check(self, unit_graph_calls):
        ps = lattice_ball(1)
        o = orientation_from_bits(ps, 5)
        assert unit_graph_calls == [7, 7]
        Orientation(ps, o.pairs)
        assert unit_graph_calls == [7, 7, 7]


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
