"""Product structures, conflict edges, trilateration, and the two
witness constructions with their exhaustive verifier."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.acceptance import _ball1_orientation_pair
from rigidlab.errors import (
    BudgetExhausted,
    InconsistentDistances,
    MixedBackend,
    NotRepresentable,
)
from rigidlab.numeric import FloatVal, Point, QScalar, dist2, points_equal
from rigidlab.phi import OrientationFamily, count_orientations, orientation_from_bits
from rigidlab.plane import P0, P1, P2, base_triangle, lattice_ball, lattice_point
from rigidlab.product import (
    build_product,
    find_conflict_edge,
    trilaterate,
    verify_product_witness,
    witness_case1,
    witness_case2,
)
from rigidlab.relations import WitnessSet, check_witness, is_connected_within

lattice_pts = st.builds(lattice_point, st.integers(-6, 6), st.integers(-6, 6))

UNIT_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
SQRT7 = QScalar(ext=((7, 1),))
SQRT3_DIRS = ((1, 1), (-1, 2), (-2, 1), (-1, -1), (1, -2), (2, -1))


def _case1_pairs():
    """Every (x, y) of the case-1 families: an edge direction, a ladder of
    k = 2..4 unit hops or a rhombus diagonal for x, and y on the positive
    x axis at a gap that keeps the half-gap epsilon certifiable."""
    def on_axis(m):
        return Point(QScalar(m), QScalar(0))

    out = [(f"edge{d}-{g}", lattice_point(*d), on_axis(g))
           for d in UNIT_DIRS for g in range(4, 10)]
    out += [(f"ladder{k}{d}-{k + g}", lattice_point(k * d[0], k * d[1]), on_axis(k + g))
            for k in (2, 3, 4) for d in UNIT_DIRS for g in range(6, 10)]
    out += [(f"rhombus{d}-{g}", lattice_point(*d), on_axis(g))
            for d in SQRT3_DIRS for g in range(6, 10)]
    return out


CASE1_PAIRS = _case1_pairs()


def _case2_inputs():
    """The two criterion-6 inputs, then 30 seeded draws over lattice balls
    R = 1, 2, 3: random member bits (redrawn until they conflict) and a
    random x."""
    ps, S, Z = _ball1_orientation_pair()
    i0, i1, _ = ps.triangle_indices()
    out = [(ps[i0], S, Z), (ps[i1], S, Z)]
    rng = random.Random(2026)
    for k in range(30):
        ps = lattice_ball(1 + k % 3)
        m = count_orientations(ps).bit_length() - 1
        while True:
            S = orientation_from_bits(ps, rng.getrandbits(m))
            Z = orientation_from_bits(ps, rng.getrandbits(m))
            if find_conflict_edge(S, Z) is not None:
                break
        out.append((ps[rng.randrange(len(ps))], S, Z))
    return out


CASE2_INPUTS = _case2_inputs()
# (valid, fiber_consistent, conflict ui, conflict vi) per input; draw 21
# (R = 1) is an orientation pair whose product admits no witness
CASE2_EXPECTED = [
    (True, True, 4, 2), (True, True, 4, 2),
    (True, True, 0, 1), (True, True, 0, 1), (True, True, 2, 0),
    (True, True, 0, 3), (True, True, 0, 1), (True, True, 1, 0),
    (True, True, 0, 1), (True, True, 0, 1), (True, True, 0, 3),
    (True, True, 3, 0), (True, True, 1, 0), (True, True, 1, 0),
    (True, True, 0, 2), (True, True, 0, 1), (True, True, 1, 0),
    (True, True, 1, 0), (True, True, 2, 0), (True, True, 0, 2),
    (True, True, 0, 3), (True, True, 2, 0), (True, True, 2, 0),
    (False, True, 0, 1), (True, True, 1, 0), (True, True, 0, 1),
    (True, True, 1, 0), (True, True, 0, 1), (True, True, 0, 1),
    (True, True, 0, 2), (True, True, 0, 3), (True, True, 0, 2),
]


class TestBuildProduct:
    def test_triangle_single_member(self):
        tri = base_triangle()
        P = build_product(tri, [orientation_from_bits(tri, 0)])
        assert P.structure.n == 3
        assert len(P.structure.pairs) == 5

    def test_two_member_fibers_disjoint(self):
        ps = lattice_ball(1)
        S = orientation_from_bits(ps, 0)
        Z = orientation_from_bits(ps, 5)
        P = build_product(ps, [S, Z])
        assert P.structure.n == 14
        assert len(P.structure.pairs) == len(S.pairs) + len(Z.pairs)
        for a, b in P.structure.pairs:
            assert P.fiber_of(a) == P.fiber_of(b)

    def test_element_decode_roundtrip(self):
        ps = lattice_ball(1)
        fam = OrientationFamily(
            ps, (orientation_from_bits(ps, 0), orientation_from_bits(ps, 1))
        )
        P = build_product(ps, fam)
        for s in range(2):
            for i in range(7):
                assert P.decode(P.element(i, s)) == (i, s)


class TestConflictEdge:
    def test_found_on_flipped_bit(self):
        ps = lattice_ball(1)
        S = orientation_from_bits(ps, 0)
        Z = orientation_from_bits(ps, 1)
        ce = find_conflict_edge(S, Z)
        assert ce is not None
        assert (ce.ui, ce.vi) != (ce.vi, ce.ui)
        assert (ce.ui, ce.vi) in S.pair_set
        assert (ce.vi, ce.ui) in Z.pair_set

    def test_none_when_identical(self):
        ps = lattice_ball(1)
        S = orientation_from_bits(ps, 3)
        assert find_conflict_edge(S, S) is None

    def test_canonical_ball1_pair(self):
        _, S, Z = _ball1_orientation_pair()
        ce = find_conflict_edge(S, Z)
        assert ce is not None and ce.ui != ce.vi


class TestTrilaterate:
    def test_frozen_value(self):
        q = trilaterate(QScalar(1), QScalar(1), QScalar(3))
        expect = Point(QScalar(Fraction(1, 2)), QScalar(0, Fraction(-1, 2)))
        assert points_equal(q, expect)

    def test_known_inconsistent(self):
        with pytest.raises(InconsistentDistances):
            trilaterate(QScalar(1), QScalar(9), QScalar(9))

    @given(lattice_pts)
    @settings(max_examples=100)
    def test_roundtrip(self, p):
        q = trilaterate(dist2(P0, p), dist2(P1, p), dist2(P2, p))
        assert points_equal(p, q)

    @given(lattice_pts)
    @settings(max_examples=40)
    def test_perturbed_rejected(self, p):
        # bumping the p2 distance by 1 would require y = sqrt(3)/6, which
        # no lattice point has
        with pytest.raises(InconsistentDistances):
            trilaterate(dist2(P0, p), dist2(P1, p), dist2(P2, p) + 1)

    def test_float_backend(self):
        p = Point.approx(0.25, 1.5)
        pf = [Point.approx(0.0, 0.0), Point.approx(1.0, 0.0),
              Point.approx(0.5, 3 ** 0.5 / 2)]
        with pytest.raises(MixedBackend):
            trilaterate(dist2(pf[0], p), dist2(pf[1], p), dist2(pf[2], p))
        with pytest.raises(MixedBackend):
            trilaterate(0.0625, 1, 1)


class TestCase1:
    @pytest.mark.parametrize("x,y,strategy", [
        (lattice_point(1, 0), Point(QScalar(5), QScalar(0)), "edge"),
        (lattice_point(2, 0), Point(QScalar(6), QScalar(0)), "ladder"),
        (lattice_point(1, 1), Point(QScalar(7), QScalar(0)), "rhombus"),
    ])
    def test_valid_witness(self, x, y, strategy):
        built = witness_case1(x, y)
        assert built.grow.strategy == strategy
        assert built.strict_exclusion
        verdict = verify_product_witness(built.product, built.witness)
        assert verdict.valid

    @pytest.mark.parametrize("x,y", [
        (lattice_point(1, 0), Point(QScalar(5), QScalar(0))),
        (lattice_point(2, 0), Point(QScalar(6), QScalar(0))),
        (lattice_point(0, 3), Point(QScalar(9), QScalar(0))),
        (lattice_point(1, 1), Point(QScalar(7), QScalar(0))),
    ])
    @pytest.mark.parametrize("radius", [2, 3])
    def test_witness_survives_ambient_growth(self, x, y, radius):
        # a larger universe offers the witness's maps more images, but the
        # case-1 certificate pins x's distance from a triangle corner in
        # any lattice universe, so x must still not reach y
        built = witness_case1(x, y)
        P = built.product
        U = P.base.with_points(lattice_ball(radius).points)
        Q = build_product(U, [orientation_from_bits(U, 0)])
        # U keeps P's points first and both products orient its edges low
        # to high, so the witness keeps its element numbers and pairs
        assert len(U) > len(P.base)
        assert all(U.index_of(P.base[i]) == i for i in range(len(P.base)))
        sub = built.witness.subset
        assert Q.structure.restrict(sub).pairs == P.structure.restrict(sub).pairs
        assert check_witness(Q.structure, built.witness).valid

    @pytest.mark.parametrize("x,y", [pair[1:] for pair in CASE1_PAIRS],
                             ids=[pair[0] for pair in CASE1_PAIRS])
    def test_every_family_pair_verifies(self, x, y):
        built = witness_case1(x, y)
        assert built.strict_exclusion
        assert verify_product_witness(built.product, built.witness).valid

    def test_family_pairs_count(self):
        # 6 edge directions x 6 gaps + 3 ladders x 6 x 4 + 6 rhombi x 4
        assert len({(p[1], p[2]) for p in CASE1_PAIRS}) == 132

    def test_irrational_gap_certified_exactly(self):
        # the gap sqrt(7) - 1 leaves Q(sqrt(3)); epsilon stays exact in
        # Q(sqrt(3), sqrt(7)) instead of switching to floats
        built = witness_case1(lattice_point(1, 0), lattice_point(2, 1))
        assert built.grow.strategy == "edge"
        assert built.epsilon == (SQRT7 - 1) / 2
        assert built.strict_exclusion
        assert verify_product_witness(built.product, built.witness).valid

    def test_irrational_gap_budget_exhausted(self):
        # x = (5/2, -sqrt(3)/2) is sqrt(7) from the anchor: no strategy
        # certifies the half gap (5 - sqrt(7))/2, and the refusal is exact
        with pytest.raises(BudgetExhausted) as info:
            witness_case1(lattice_point(3, -1), Point(QScalar(5), QScalar(0)))
        assert info.value.partial.report.max_deviation == SQRT7 - 1

    def test_inexact_gap_refused(self):
        # x = (1 + sqrt(3)/2, 1/2) is sqrt(2 + sqrt(3)) = (sqrt(6) + sqrt(2))/2
        # from the anchor p0: the gap has no exact value, so no epsilon
        x = Point(QScalar(1, Fraction(1, 2)), QScalar(Fraction(1, 2)))
        with pytest.raises(NotRepresentable):
            witness_case1(x, Point(QScalar(5), QScalar(0)))

    def test_witness_contains_x_not_required_to_contain_y(self):
        built = witness_case1(lattice_point(1, 0), Point(QScalar(5), QScalar(0)))
        assert built.src in built.witness.subset

    def test_same_point_rejected(self):
        with pytest.raises(ValueError):
            witness_case1(P0, P0)

    def test_verifier_rejects_gutted_witness(self):
        # the singleton {x} induces no pairs at all, so mapping x to y
        # preserves vacuously; the verifier must surface that counterexample
        built = witness_case1(lattice_point(1, 0), Point(QScalar(5), QScalar(0)))
        P = built.product
        xi = P.base.index_of(lattice_point(1, 0))
        yi = P.base.index_of(Point(QScalar(5), QScalar(0)))
        src, tgt = P.element(xi, 0), P.element(yi, 0)
        verdict = verify_product_witness(P, WitnessSet((src,), src, tgt))
        assert not verdict.valid
        assert verdict.counterexample[src] == tgt


class TestVerifyFiberAudit:
    """Only a witness connected in the product graph is audited for maps
    that straddle fibers; the counts are the ones the per-witness graph
    search gave before connectivity came from the structure's masks."""

    @pytest.mark.parametrize("subset,x,y,maps_checked", [
        ((0, 1), 0, 7, 6),    # one S edge, connected
        ((1, 4), 1, 8, 14),   # two S points sharing no pair
        ((0, 8), 0, 7, 14),   # one point from each fiber
    ])
    def test_counts_pinned(self, subset, x, y, maps_checked):
        ps, S, Z = _ball1_orientation_pair()
        P = build_product(ps, [S, Z])
        w = WitnessSet(subset, x, y)
        assert is_connected_within(P.structure, subset) == (subset == (0, 1))
        verdict = verify_product_witness(P, w, enumerate_all=True)
        assert not verdict.valid
        assert (verdict.fiber_consistent, verdict.maps_checked) == (True, maps_checked)
        verdict = verify_product_witness(P, w)
        assert (verdict.fiber_consistent, verdict.maps_checked) == (True, 1)


class TestCase2:
    def test_valid_for_center_and_ring(self):
        ps, S, Z = _ball1_orientation_pair()
        i0, i1, _ = ps.triangle_indices()
        for x in (ps[i0], ps[i1]):
            built = witness_case2(x, S, Z)
            verdict = verify_product_witness(built.product, built.witness,
                                             enumerate_all=True)
            assert verdict.valid
            assert verdict.fiber_consistent

    def test_whole_fiber_fallback_reported(self):
        # the witness is the whole S fiber, and construction says so
        ps, S, Z = _ball1_orientation_pair()
        built = witness_case2(ps[0], S, Z)
        assert built.whole_fiber
        assert len(built.witness.subset) == len(ps)

    def test_requires_membership(self):
        ps, S, Z = _ball1_orientation_pair()
        with pytest.raises(ValueError):
            witness_case2(lattice_point(5, 5), S, Z)

    def test_requires_conflict(self):
        ps, S, _ = _ball1_orientation_pair()
        with pytest.raises(ValueError):
            witness_case2(ps[0], S, S)

    @pytest.mark.parametrize("k", range(len(CASE2_INPUTS)))
    def test_contract(self, k):
        # the expected values come from the earlier pin-certificate
        # construction, which fell back to the whole fiber on every one of
        # these inputs, so its verdicts must carry over unchanged
        x, S, Z = CASE2_INPUTS[k]
        built = witness_case2(x, S, Z)
        P = built.product
        assert built.whole_fiber
        assert built.witness.subset == tuple(P.element(i, 0) for i in range(len(P.base)))
        xi = P.base.index_of(x)
        assert (built.src, built.tgt) == (P.element(xi, 0), P.element(xi, 1))
        verdict = verify_product_witness(P, built.witness)
        got = (verdict.valid, verdict.fiber_consistent,
               built.conflict.ui, built.conflict.vi)
        assert got == CASE2_EXPECTED[k]

    def test_x_without_unit_path_to_p0(self):
        # x has no unit neighbour, so nothing in the S fiber holds it back:
        # the verifier finds the map sending (x, S) to (x, Z)
        x = lattice_point(3, 0)
        base = lattice_ball(1).with_points([x])
        S = orientation_from_bits(base, 0)
        Z = orientation_from_bits(base, 1)
        built = witness_case2(x, S, Z)
        assert built.whole_fiber
        assert built.witness.subset == tuple(range(8))
        assert (built.conflict.ui, built.conflict.vi) == (0, 1)
        verdict = verify_product_witness(built.product, built.witness)
        assert (verdict.valid, verdict.fiber_consistent) == (False, True)
        assert verdict.counterexample[built.src] == built.tgt
