"""Placement enumeration and distance-preservation certificates."""

import cmath
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import bq
from rigidlab.bq import (
    DEFAULT_BRANCH_LIMIT,
    _distinct,
    _glue_candidates,
    _ladder,
    bq_certify,
    canonical_map_key,
    enumerate_unit_maps,
    gadget,
    grow_witness,
    naive_unit_maps,
    placement_order,
)
from rigidlab.errors import (
    BudgetExhausted,
    NotAnchored,
    NotRepresentable,
)
from rigidlab.numeric import (
    SQRT3,
    Point,
    QScalar,
    circle_intersect,
    dist2,
    is_unit,
    points_equal,
    scalar_sign,
    sqrt_exact,
)
from rigidlab.plane import (
    P0,
    P1,
    P2,
    PointSet,
    base_triangle,
    lattice_ball,
    lattice_point,
    unit_graph,
    unit_path,
)

UNIT_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class TestPlacementOrder:
    def test_triangle(self):
        order = placement_order(base_triangle())
        assert sorted(order.order) == [0, 1, 2]
        assert len(order.anchors[2]) >= 2

    def test_requires_connectivity(self):
        ps = PointSet([P0, P1, lattice_point(5, 0)])
        with pytest.raises(NotAnchored):
            placement_order(ps)

    def test_chain_is_flexible(self):
        with pytest.raises(NotAnchored):
            placement_order(gadget("chain", n=4).points)

    def test_ball1(self):
        order = placement_order(lattice_ball(1))
        assert len(order.order) == 7

    def test_pinned_start(self):
        order = placement_order(base_triangle())
        assert order.order[0] == 0 and order.order[1] == 1


class TestGlueCandidates:
    """The branches of a cluster step's placement that the spindle never
    reaches: there |AG|^2 is 3 or 0 and D is never at unit distance from A."""

    def test_zero_radius_places_on_u(self):
        assert _glue_candidates(P0, P1, [QScalar(0)], (3,)) == [P0]
        assert _glue_candidates(P0, lattice_point(2, 0), [QScalar(0)], (3,)) == []

    def test_coincident_centres(self):
        with pytest.raises(NotAnchored):
            _glue_candidates(P0, P0, [QScalar(0), QScalar(1)], (3,))
        assert _glue_candidates(P0, P0, [QScalar(3)], (3,)) == []

    def test_radii_union(self):
        got = _glue_candidates(P0, P1, [QScalar(0), QScalar(1), QScalar(3)], (3,))
        assert len(got) == 5 and got[0] == P0
        assert all(dist2(p, P1) == 1 for p in got)


def _join_rhombi(ps) -> set:
    """Canonical keys of the spindle's maps built without a cluster step:
    each rhombus is enumerated on its own, mirror images kept, and the
    second is turned about A until |DG| = 1."""
    halves = []
    for members in ((0, 1, 2, 3), (0, 4, 5, 6)):
        res = enumerate_unit_maps(ps.subset(members), normalize_mirror=False)
        halves.append([[complex(*p.to_float_pair()) - complex(*m[0].to_float_pair())
                        for p in m] for m in res.maps])
    o0, o1 = placement_order(ps).order[:2]
    edges = unit_graph(ps).edges
    keys = set()
    for h1 in halves[0]:
        for h2 in halves[1]:
            d, g = h1[3], h2[3]
            if min(abs(d), abs(g)) < 1e-9:
                # G = A or D = A: |DG| = 1 needs the other apex at distance 1
                assert abs(max(abs(d), abs(g)) - 1) > 1e-6
                continue
            cos = (abs(d) ** 2 + abs(g) ** 2 - 1) / (2 * abs(d) * abs(g))
            if abs(cos) > 1:
                continue
            for alpha in {cmath.acos(cos).real, -cmath.acos(cos).real}:
                turn = d / abs(d) * cmath.exp(1j * alpha) / (g / abs(g))
                z = h1 + [w * turn for w in h2[1:]]
                assert all(abs(abs(z[i] - z[j]) - 1) < 1e-9 for i, j in edges)
                z = [(w - z[o0]) / (z[o1] - z[o0]) for w in z]
                keys.add(canonical_map_key([Point.approx(w.real, w.imag) for w in z]))
    return keys


def reference_unit_maps(T, order=None, branch_limit=DEFAULT_BRANCH_LIMIT, field=None):
    """Plain enumerator in the engine's order, mirror rule and anchor
    pruning: circle_intersect and is_unit are called afresh at every node.
    A cluster's sub-figure is enumerated in the whole figure's field.
    Returns (maps, nodes, pruned, truncated)."""
    if order is None:
        order = placement_order(T)
    if T.backend == "exact":
        if field is None:
            field = tuple(sorted({3}.union(*(p.x.radicands + p.y.radicands for p in T))))
        base = (Point(QScalar(0), QScalar(0)), Point(QScalar(1), QScalar(0)))
    else:
        field = None
        base = (Point.approx(0.0, 0.0, T[0].x.tol), Point.approx(1.0, 0.0, T[0].x.tol))
    n = len(T)
    if n == 1:
        return [(base[0],)], 1, 0, False
    count = {"nodes": 0, "pruned": 0}
    radii = {}
    for k, step in enumerate(order.clusters):
        if step is not None:
            maps, nodes, pruned, truncated = reference_unit_maps(
                T.subset(step.members), step.order, branch_limit, field)
            count["nodes"] += nodes
            count["pruned"] += pruned
            if truncated:
                return [], count["nodes"], count["pruned"], True
            iu, iv = step.members.index(step.u), step.members.index(order.order[k])
            radii[k] = []
            for r in sorted((dist2(m[iu], m[iv]) for m in maps), key=float):
                if all(r != kept for kept in radii[k]):
                    radii[k].append(r)
    images = [None] * n
    images[order.order[0]], images[order.order[1]] = base
    maps = []

    def place(k, off_axis_fixed):
        """Extend the partial map; True once the branch limit is passed."""
        if k == n:
            maps.append(tuple(images))
            return False
        step = order.clusters[k]
        if step is None:
            imgs = [images[a] for a in order.anchors[k]]
            p, q = next((p, q) for i, p in enumerate(imgs) for q in imgs[i + 1:]
                        if not points_equal(p, q))
            candidates = circle_intersect(p, 1, q, 1, field)
        else:
            candidates = _glue_candidates(images[step.u], images[step.w], radii[k], field)
        if not candidates:
            count["pruned"] += 1
        for cand in candidates:
            sign_y = scalar_sign(cand.y)
            if not off_axis_fixed and sign_y < 0:
                continue
            count["nodes"] += 1
            if count["nodes"] > branch_limit:
                return True
            if not all(is_unit(cand, images[a]) for a in order.anchors[k]):
                count["pruned"] += 1
                continue
            images[order.order[k]] = cand
            if place(k + 1, off_axis_fixed or sign_y != 0):
                return True
        images[order.order[k]] = None
        return False

    truncated = place(2, False)
    maps.sort(key=lambda m: [p.to_float_pair() for p in m])
    return maps, count["nodes"], count["pruned"], truncated


def _braced_path(y):
    """A unit path from P0 to y with both apexes bracing each hop."""
    vs = unit_path(P0, y).vertices
    pts = list(vs)
    for j in range(1, len(vs)):
        pts.extend(circle_intersect(vs[j - 1], 1, vs[j], 1))
    return PointSet(pts)


def _assert_matches_reference(ps, branch_limit=DEFAULT_BRANCH_LIMIT):
    res = enumerate_unit_maps(ps, branch_limit=branch_limit)
    maps, nodes, pruned, truncated = reference_unit_maps(ps, branch_limit=branch_limit)
    assert (res.nodes, res.pruned, res.truncated) == (nodes, pruned, truncated)
    assert [list(m) for m in res.maps] == [list(m) for m in maps]
    assert ([[p.to_float_pair() for p in m] for m in res.maps]
            == [[p.to_float_pair() for p in m] for m in maps])
    return res


ORACLE_FIGURES = {
    **{f"ladder{k}{d}": (lambda k=k, d=d: _ladder(P0, lattice_point(k * d[0], k * d[1]), k))
       for k in (2, 3, 4, 5) for d in UNIT_DIRS},
    **{f"braced{y}": (lambda y=y: _braced_path(lattice_point(*y)))
       for y in ((2, 1), (1, 2), (3, 1), (-2, 3), (2, 2))},
    "rhombus": lambda: gadget("rhombus").points,
    "ball1": lambda: lattice_ball(1),
    "spindle-exact": lambda: gadget("moser-spindle", backend="exact").points,
    "spindle-float": lambda: gadget("moser-spindle").points,
}


class TestReferenceEnumerator:
    """The engine computes each intersection and unit test once per pair
    of image positions; a search that recomputes them at every node must
    see the same maps in the same order, and count the same nodes."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FIGURES))
    def test_matches_reference(self, name):
        _assert_matches_reference(ORACLE_FIGURES[name]())

    @given(st.sampled_from(["ladder3(1, 0)", "braced(2, 1)", "ball1", "spindle-exact"]),
           st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_truncation_matches_reference(self, name, limit):
        res = _assert_matches_reference(ORACLE_FIGURES[name](), branch_limit=limit)
        assert res.truncated == (limit < enumerate_unit_maps(ORACLE_FIGURES[name]()).nodes)

    @pytest.mark.parametrize("k,counts", [
        (2, (31, 5, 11)), (3, (185, 32, 61)), (4, (1039, 181, 339)), (5, (5785, 1008, 1885)),
    ])
    def test_ladder_counts_pinned(self, k, counts):
        res = enumerate_unit_maps(_ladder(P0, lattice_point(k, 0), k))
        assert (res.nodes, res.pruned, len(res.maps)) == counts

    @pytest.mark.parametrize("y,k,calls", [((4, 0), 4, (6, 23)), ((0, -5), 5, (6, 48))])
    def test_ladder_work_pinned(self, y, k, calls, monkeypatch):
        # one intersection per difference of two anchor images, and no unit
        # test of a candidate against the centres it was met from; a second
        # enumeration pays the same, so no table outlives its enumeration
        count = {}

        def counted(fn):
            def wrapped(*args):
                count[fn.__name__] = count.get(fn.__name__, 0) + 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(bq, "circle_intersect", counted(circle_intersect))
        monkeypatch.setattr(bq, "is_unit", counted(is_unit))
        T = _ladder(P0, lattice_point(*y), k)
        for _ in range(2):
            count.clear()
            enumerate_unit_maps(T)
            assert (count["circle_intersect"], count["is_unit"]) == calls

    def test_distinct_drops_every_repeat(self):
        # 1 + 10**-30 has the float of 1, so the two 1s need not sort side by side
        tiny = QScalar(1 + Fraction(1, 10**30))
        assert _distinct([QScalar(1), tiny, QScalar(1)]) == [QScalar(1), tiny]


class TestEnumeration:
    def test_triangle_single_normalized_map(self):
        res = enumerate_unit_maps(base_triangle())
        assert len(res.maps) == 1

    def test_rhombus_two_maps(self):
        g = gadget("rhombus")
        res = enumerate_unit_maps(g.points)
        assert len(res.maps) == 2

    def test_branch_limit(self):
        res = enumerate_unit_maps(lattice_ball(1), branch_limit=2)
        assert res.truncated

    @pytest.mark.parametrize("kind,kwargs", [
        ("triangle-extension", {}),
        ("rhombus", {}),
        ("chain", {"n": 1}),
    ])
    def test_matches_naive_oracle(self, kind, kwargs):
        g = gadget(kind, **kwargs)
        order = placement_order(g.points)
        res = enumerate_unit_maps(g.points, order)
        naive = naive_unit_maps(g.points, order)
        keys = {canonical_map_key(m) for m in res.maps}
        assert keys == naive
        assert len(res.maps) == len(naive)

    def test_ball1_matches_naive_oracle(self):
        ps = lattice_ball(1)
        order = placement_order(ps)
        res = enumerate_unit_maps(ps, order)
        naive = naive_unit_maps(ps, order)
        assert {canonical_map_key(m) for m in res.maps} == naive
        assert len(res.maps) == len(naive)


class TestCertify:
    def test_rhombus_refused_at_one(self):
        g = gadget("rhombus")
        a, d = g.points[0], g.points[3]
        assert dist2(a, d) == QScalar(3)
        rep = bq_certify(g.points, a, d, QScalar(1))
        assert not rep.certified
        assert rep.max_deviation == SQRT3
        assert rep.counterexample is not None

    def test_rhombus_certified_at_sqrt3(self):
        g = gadget("rhombus")
        rep = bq_certify(g.points, g.points[0], g.points[3], SQRT3)
        assert rep.certified and rep.max_deviation == SQRT3

    def test_strip_deviation_exactly_one(self):
        """The braced two-hop strip folds to deviation exactly 1, never more."""
        x, y = P0, lattice_point(2, 0)
        strip = _ladder(x, y, 2)
        assert len(strip) == 7 and unit_graph(strip).edge_count == 12
        rep = bq_certify(strip, x, y, QScalar(1))
        assert rep.certified and rep.max_deviation == QScalar(1)
        assert rep.map_count == 11
        rep0 = bq_certify(strip, x, y, QScalar(Fraction(99, 100)))
        assert not rep0.certified

    @pytest.mark.parametrize("eps_num", [0, 1, 17, 173, 174, 200])
    def test_certification_monotone_in_epsilon(self, eps_num):
        # threshold for the rhombus diagonal is sqrt(3) = 1.7320...
        g = gadget("rhombus")
        eps = QScalar(Fraction(eps_num, 100))
        rep = bq_certify(g.points, g.points[0], g.points[3], eps)
        assert rep.certified == (eps >= SQRT3)

    def test_epsilon_zero_on_triangle(self):
        tri = base_triangle()
        rep = bq_certify(tri, P0, P1, QScalar(0))
        assert rep.certified and rep.max_deviation == QScalar(0)

    def test_budget_exhausted(self):
        g = gadget("rhombus")
        with pytest.raises(BudgetExhausted) as exc_info:
            bq_certify(g.points, g.points[0], g.points[3], QScalar(1),
                       branch_limit=1)
        assert exc_info.value.partial is not None

    def test_point_arguments_by_index(self):
        g = gadget("rhombus")
        rep = bq_certify(g.points, 0, 3, SQRT3)
        assert rep.certified

    def test_maps_leaving_the_field_refused(self, spindle_braced_ball1):
        # the spindles' maps need sqrt(11/148 + sqrt(33)/37); an exact
        # figure gets an exact certificate or none, never a float one
        assert spindle_braced_ball1.backend == "exact"
        with pytest.raises(NotRepresentable):
            bq_certify(spindle_braced_ball1, 0, 1, QScalar(0))


class TestGadgets:
    def test_labels(self):
        g = gadget("rhombus")
        assert g.labels == ("A", "B", "C", "D")
        assert g.labeled_index("D") == 3

    def test_triangle_extension(self):
        g = gadget("triangle-extension")
        assert len(g.points) == 3
        assert unit_graph(g.points).edge_count == 3

    def test_chain(self):
        # n counts segments, so n + 1 points
        g = gadget("chain", n=5)
        assert len(g.points) == 6
        assert unit_graph(g.points).edge_count == 5

    def test_spindle_shape(self):
        g = gadget("moser-spindle")
        assert len(g.points) == 7
        assert unit_graph(g.points).edge_count == 11
        degrees = sorted(
            len(unit_graph(g.points).neighbors(i)) for i in range(7)
        )
        assert degrees[0] >= 3

    def test_float_spindle_rounds_the_exact_one(self):
        exact = gadget("moser-spindle", backend="exact").points
        floats = gadget("moser-spindle").points
        assert floats.backend == "float" and len(floats) == len(exact) == 7
        for p, q in zip(floats, exact):
            assert p.to_float_pair() == q.to_float_pair()

    def test_spindle_exact_not_representable(self):
        """The exact spindle lives in Q(sqrt(3), sqrt(11)); its hinge offset
        sqrt(11)/6 stays outside the default field Q(sqrt(3))."""
        g = gadget("moser-spindle", backend="exact")
        assert g.points.backend == "exact"
        edges = unit_graph(g.points).edges
        assert len(edges) == 11
        assert all(dist2(g.points[i], g.points[j]) == QScalar(1) for i, j in edges)
        with pytest.raises(NotRepresentable):
            sqrt_exact(QScalar(Fraction(11, 36)))

    def test_spindle_has_no_placement_order(self):
        """Each vertex has degree >= 3 but the 11 edges cannot supply two
        prior anchors to every later vertex: no order starting at a unit
        edge is a two-anchor order, so the engine's order glues exactly one
        rigid cluster."""
        ps = gadget("moser-spindle").points
        adj = unit_graph(ps).adjacency()
        for perm in itertools.permutations(range(len(ps))):
            if perm[1] not in adj[perm[0]]:
                continue
            assert any(
                sum(1 for w in adj[v] if w in perm[:k]) < 2
                for k, v in enumerate(perm) if k >= 2
            )
        order = placement_order(ps)
        assert sum(step is not None for step in order.clusters) == 1

    def test_exact_spindle_maps(self):
        """Both rhombi stay open in every map: |AD|^2 = 3 throughout."""
        exact = gadget("moser-spindle", backend="exact").points
        res = enumerate_unit_maps(exact)
        assert len(res.maps) == 4
        edges = unit_graph(exact).edges
        for m in res.maps:
            assert all(dist2(m[i], m[j]) == QScalar(1) for i, j in edges)
            assert dist2(m[0], m[3]) == QScalar(3)
        floats = enumerate_unit_maps(gadget("moser-spindle").points)
        assert ({canonical_map_key(m) for m in res.maps}
                == {canonical_map_key(m) for m in floats.maps})
        assert {canonical_map_key(m) for m in res.maps} == naive_unit_maps(exact)
        assert {canonical_map_key(m) for m in res.maps} == _join_rhombi(exact)

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            gadget("dodecahedron")


class TestGrowWitness:
    def test_edge_strategy(self):
        g = grow_witness(P0, P1, QScalar(0))
        assert g.strategy == "edge"
        assert g.report.max_deviation == QScalar(0)

    def test_rhombus_strategy(self):
        g = grow_witness(P0, lattice_point(1, 1), QScalar(2))
        assert g.strategy == "rhombus"

    def test_ladder_strategy(self):
        g = grow_witness(P0, lattice_point(2, 0), QScalar(1))
        assert g.strategy == "ladder"
        assert g.report.max_deviation == QScalar(1)

    def test_honest_refusal(self):
        with pytest.raises(BudgetExhausted) as exc_info:
            grow_witness(P0, lattice_point(2, 0), QScalar(Fraction(1, 2)))
        assert exc_info.value.partial is not None

    def test_same_point_rejected(self):
        with pytest.raises(ValueError):
            grow_witness(P0, P0, QScalar(1))
