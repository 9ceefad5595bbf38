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
from rigidlab.numeric import Point, QScalar, dist2, points_equal
from rigidlab.phi import OrientationFamily, count_orientations, orientation_from_bits
from rigidlab.plane import (
    P0,
    P1,
    P2,
    TRIANGLE,
    PointSet,
    base_triangle,
    lattice_ball,
    lattice_point,
    unit_graph,
)
from rigidlab.product import (
    ConflictEdge,
    build_product,
    find_conflict_edge,
    trilaterate,
    verify_product_witness,
    witness_case1,
    witness_case2,
)
from rigidlab.relations import RelStruct, WitnessSet, check_witness, is_connected_within

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
# (valid, conflict ui, conflict vi) per input; draw 21
# (R = 1) is an orientation pair whose product admits no witness
CASE2_EXPECTED = [
    (True, 4, 2), (True, 4, 2),
    (True, 0, 1), (True, 0, 1), (True, 2, 0),
    (True, 0, 3), (True, 0, 1), (True, 1, 0),
    (True, 0, 1), (True, 0, 1), (True, 0, 3),
    (True, 3, 0), (True, 1, 0), (True, 1, 0),
    (True, 0, 2), (True, 0, 1), (True, 1, 0),
    (True, 1, 0), (True, 2, 0), (True, 0, 2),
    (True, 0, 3), (True, 2, 0), (True, 2, 0),
    (False, 0, 1), (True, 1, 0), (True, 0, 1),
    (True, 1, 0), (True, 0, 1), (True, 0, 1),
    (True, 0, 2), (True, 0, 3), (True, 0, 2),
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
            assert P.decode(a)[1] == P.decode(b)[1]

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
        assert (ce.ui, ce.vi) in set(S.pairs)
        assert (ce.vi, ce.ui) in set(Z.pairs)

    def test_none_when_identical(self):
        ps = lattice_ball(1)
        S = orientation_from_bits(ps, 3)
        assert find_conflict_edge(S, S) is None

    def test_canonical_ball1_pair(self):
        _, S, Z = _ball1_orientation_pair()
        ce = find_conflict_edge(S, Z)
        assert ce is not None and ce.ui != ce.vi

    @staticmethod
    def _oracle(S, Z):
        """The conflict edge found by walking the unit graph of the base,
        which find_conflict_edge reads off the pairs of S instead."""
        sp, zp = set(S.pairs), set(Z.pairs)
        for i, j in unit_graph(S.base):
            s_ij, s_ji = (i, j) in sp, (j, i) in sp
            z_ij, z_ji = (i, j) in zp, (j, i) in zp
            if s_ij and not s_ji and z_ji and not z_ij:
                return ConflictEdge(S.base[i], S.base[j], i, j)
            if s_ji and not s_ij and z_ij and not z_ji:
                return ConflictEdge(S.base[j], S.base[i], j, i)
        return None

    @pytest.mark.parametrize("radius,include_triangle", [
        (1, False), (1, True), (2, False), (3, False),
    ])
    def test_matches_unit_graph_oracle(self, radius, include_triangle):
        ps = lattice_ball(radius, include_triangle=include_triangle)
        twin = PointSet(list(ps))  # equal base, distinct object
        m = count_orientations(ps).bit_length() - 1
        rng = random.Random(f"conflict:{radius}")
        for _ in range(40):
            s_bits, z_bits = rng.getrandbits(m), rng.getrandbits(m)
            S = orientation_from_bits(ps, s_bits)
            Z = orientation_from_bits(ps, z_bits)
            Zt = orientation_from_bits(twin, z_bits)
            assert find_conflict_edge(S, S) is None
            for a, b in ((S, Z), (Z, S), (S, Zt), (Zt, S)):
                assert find_conflict_edge(a, b) == self._oracle(a, b)

    @staticmethod
    def _pair_difference(S, Z):
        """The conflict edge as the least (min, max) of S's pairs missing
        from Z, which find_conflict_edge reads off the masks instead."""
        first = min(((min(i, j), max(i, j), i, j) for i, j in set(S.pairs) - set(Z.pairs)),
                    default=None)
        return None if first is None else ConflictEdge(S.base[first[2]], S.base[first[3]],
                                                       *first[2:])

    def test_masks_match_pair_difference(self):
        pairs = [(S, Z) for _, S, Z in CASE2_INPUTS]
        rng = random.Random("conflict-masks:1")
        balls = [lattice_ball(r) for r in (1, 2, 3)]
        for _ in range(200):
            ps = rng.choice(balls)
            m = count_orientations(ps).bit_length() - 1
            pairs.append((orientation_from_bits(ps, rng.getrandbits(m)),
                          orientation_from_bits(ps, rng.getrandbits(m))))
        assert len(pairs) == 232
        for S, Z in pairs:
            for a, b in ((S, Z), (Z, S), (S, S)):
                assert find_conflict_edge(a, b) == self._pair_difference(a, b)

    def test_unequal_bases_refused(self):
        S = orientation_from_bits(lattice_ball(1), 0)
        Z = orientation_from_bits(lattice_ball(2), 0)
        with pytest.raises(ValueError):
            find_conflict_edge(S, Z)
        with pytest.raises(ValueError):
            find_conflict_edge(Z, S)
        with pytest.raises(ValueError):
            witness_case2(P0, S, Z)


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
        # a float in any slot is refused, a non-scalar is a type error
        for args in ((0.0625, 1, 1), (1, 1.0, 1), (1, 1, 1.0)):
            with pytest.raises(MixedBackend):
                trilaterate(*args)
        with pytest.raises(TypeError):
            trilaterate(1, 1, "1")


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

    @pytest.mark.parametrize("x,y", [pair[1:] for pair in CASE1_PAIRS]
                             + [(lattice_point(1, 0), lattice_point(2, 1))],
                             ids=[pair[0] for pair in CASE1_PAIRS] + ["gap-sqrt7-1"])
    def test_grown_set_needs_no_connecting_paths(self, x, y):
        # the certified set holds x and its unit graph is connected, so the
        # witness is the triangle followed by that set, with nothing added
        built = witness_case1(x, y)
        T = built.grow.points
        assert x in T
        assert is_connected_within(RelStruct(len(T), unit_graph(T)), range(len(T)))
        P = built.product
        points = tuple(P.base[P.decode(e)[0]] for e in built.witness.subset)
        assert points == PointSet(list(TRIANGLE) + list(T)).points

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


def _replays(P, w, image) -> bool:
    """Whether `image` maps w.subset into the product with x -> y and
    carries every product pair inside the subset onto a product pair."""
    s = P.structure
    inside = set(w.subset)
    pairs = set(s.pairs)
    return (set(image) == inside and image[w.x] == w.y
            and all(0 <= v < s.n for v in image.values())
            and all((image[a], image[b]) in pairs
                    for a, b in s.pairs if a in inside and b in inside))


def _oracle_agrees(P, w):
    """verify_product_witness against check_witness in the built product:
    the same verdict, the same counterexample when x's component is the
    whole witness, and otherwise a counterexample that replays."""
    got = verify_product_witness(P, w)
    want = check_witness(P.structure, w)
    assert got.valid == want.valid
    if got.valid:
        assert got.counterexample is None
        return got
    if is_connected_within(P.structure, w.subset):  # x's component is all of w
        assert got.counterexample == want.counterexample
    else:
        assert _replays(P, w, got.counterexample)
    return got


class TestVerifyOracle:
    """The member-to-member search of verify_product_witness judged by the
    search in the built product, which it replaces."""

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_random_triples(self, radius):
        ps = lattice_ball(radius)
        n = len(ps)
        m = count_orientations(ps).bit_length() - 1
        rng = random.Random(f"verify-oracle:{radius}")
        invalid = whole = 0
        for _ in range(40):
            k = rng.choice((1, 2, 2, 3))
            members = []
            while len(members) < k:
                o = orientation_from_bits(ps, rng.getrandbits(m))
                if o not in members:
                    members.append(o)
            P = build_product(ps, members)
            size = n * len(members)
            x = rng.randrange(size)
            s = x // n
            # y at x's point in some member, or anywhere
            y = rng.choice([t * n + x % n for t in range(len(members))] + [rng.randrange(size)])
            fiber = range(s * n, s * n + n)
            subsets = [
                fiber,
                [x],
                [x] + rng.sample(fiber, rng.randrange(n)),
                [x] + rng.sample(range(size), rng.randrange(size)),
            ]
            for subset in subsets:
                w = WitnessSet(subset, x, y)
                got = _oracle_agrees(P, w)
                invalid += not got.valid
                whole += w.subset == tuple(fiber)
        # every kind of input came up, and both verdicts
        assert whole >= 40 and 0 < invalid < 160

    @pytest.mark.parametrize("subset,x,y", [
        ((0, 1), 0, 7),   # one S edge, connected
        ((1, 4), 1, 8),   # two S points sharing no pair
        ((0, 8), 0, 7),   # one point from each fiber
        ((0,), 0, 13),    # a singleton
    ])
    def test_ball1_pair(self, subset, x, y):
        ps, S, Z = _ball1_orientation_pair()
        got = _oracle_agrees(build_product(ps, [S, Z]), WitnessSet(subset, x, y))
        assert not got.valid

    def test_x_without_unit_path(self):
        x = lattice_point(3, 0)
        base = lattice_ball(1).with_points([x])
        P = build_product(base, [orientation_from_bits(base, 0),
                                 orientation_from_bits(base, 1)])
        xi = base.index_of(x)
        for subset in (range(8), range(16), (xi, 0, 9)):
            for y in (8 + xi, 8, xi - 1):
                _oracle_agrees(P, WitnessSet(subset, xi, y))

    def test_verdict_builds_no_product(self):
        ps = lattice_ball(2)
        S = orientation_from_bits(ps, 1)
        Z = orientation_from_bits(ps, 2)
        built = witness_case2(ps[3], S, Z)
        assert verify_product_witness(built.product, built.witness).valid
        assert "structure" not in vars(built.product)
        built1 = witness_case1(lattice_point(1, 0), Point(QScalar(5), QScalar(0)))
        assert verify_product_witness(built1.product, built1.witness).valid
        assert "structure" not in vars(built1.product)
        # the product is still there to be read, and reading it builds it
        assert built.product.structure.n == 2 * len(ps)
        assert "structure" in vars(built.product)

    @pytest.mark.parametrize("subset,y", [
        ((0, 14), 7), ((-1, 0), 7), ((0, 1), 14), ((0, 1), -1),
    ])
    def test_outside_universe_refused(self, subset, y):
        # 14 elements: an index or a target beyond them names no element
        ps, S, Z = _ball1_orientation_pair()
        P = build_product(ps, [S, Z])
        with pytest.raises(ValueError, match="out of range"):
            verify_product_witness(P, WitnessSet(subset, 0, y))


# the eight orientation pairs of lattice_ball(2) with no witness in their
# two-member product, as seed:round of the case-2 benchmark workload:
# (S bits, Z bits, index of x) and the images of the S fiber's elements
# 0..18 under the counterexample verify_product_witness reports
NO_WITNESS = [
    (224747282273, 474246957824, 6,
     (19, 23, 21, 25, 23, 23, 25, 25, 19, 20, 19, 19, 23, 21, 19, 19, 25, 19, 23)),  # 3:102
    (381199275189, 202044888930, 6,
     (19, 23, 25, 25, 23, 23, 25, 21, 19, 23, 19, 19, 23, 25, 19, 19, 21, 19, 23)),  # 5:212
    (357706255478, 494293321939, 4,
     (19, 23, 25, 25, 23, 23, 25, 25, 19, 24, 19, 19, 23, 21, 19, 19, 25, 19, 23)),  # 11:5
    (233584402400, 393679076909, 2,
     (19, 23, 21, 25, 23, 23, 25, 25, 19, 23, 19, 19, 23, 25, 19, 19, 21, 19, 23)),  # 14:365
    (12245180894, 218897801170, 6,
     (19, 23, 25, 21, 23, 23, 25, 25, 19, 23, 19, 19, 23, 25, 19, 19, 25, 19, 23)),  # 16:171
    (375364273396, 516269152397, 0,
     (19, 23, 25, 25, 23, 23, 25, 25, 19, 23, 19, 19, 23, 25, 19, 19, 25, 19, 24)),  # 17:91
    (232382629113, 389343303169, 6,
     (19, 23, 25, 25, 23, 23, 25, 25, 19, 23, 19, 19, 24, 25, 19, 19, 21, 19, 23)),  # 17:600
    (217448865013, 129301345505, 6,
     (19, 23, 21, 25, 23, 23, 25, 25, 19, 20, 19, 19, 23, 25, 19, 19, 21, 19, 23)),  # 31:491
]


class TestCase2:
    def test_valid_for_center_and_ring(self):
        ps, S, Z = _ball1_orientation_pair()
        i0, i1, _ = ps.triangle_indices()
        for x in (ps[i0], ps[i1]):
            built = witness_case2(x, S, Z)
            verdict = verify_product_witness(built.product, built.witness)
            assert verdict.valid

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

    def test_builds_and_verifies_without_distances(self, monkeypatch):
        # the conflict edge comes from the pairs of S, so building and
        # verifying the witness computes no distance at all
        ps = lattice_ball(2)
        S = orientation_from_bits(ps, 1)
        Z = orientation_from_bits(ps, 2)
        expected = witness_case2(ps[3], S, Z)

        def refuse(*args):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr("rigidlab.plane.is_unit", refuse)
        monkeypatch.setattr("rigidlab.numeric.dist2", refuse)
        built = witness_case2(ps[3], S, Z)
        assert built == expected
        assert verify_product_witness(built.product, built.witness).valid

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
        got = (verdict.valid, built.conflict.ui, built.conflict.vi)
        assert got == CASE2_EXPECTED[k]

    def test_no_witness_counterexamples_pinned(self):
        ps = lattice_ball(2)
        for s_bits, z_bits, xi, images in NO_WITNESS:
            built = witness_case2(ps[xi], orientation_from_bits(ps, s_bits),
                                  orientation_from_bits(ps, z_bits))
            verdict = verify_product_witness(built.product, built.witness)
            assert not verdict.valid
            assert verdict.counterexample == dict(enumerate(images))

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
        # x's component in the fiber is x alone: it goes to its twin and
        # every other element stays put
        verdict = verify_product_witness(built.product, built.witness)
        assert not verdict.valid
        assert verdict.counterexample == {**{e: e for e in range(8)}, built.src: built.tgt}
