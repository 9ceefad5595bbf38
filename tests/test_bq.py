"""Placement enumeration and distance-preservation certificates."""

import cmath
import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import emptied_tables
from rigidlab import bq
from rigidlab.bq import (
    DEFAULT_BRANCH_LIMIT,
    _braced,
    _distinct,
    _SiteTable,
    bq_certify,
    canonical_map_key,
    enumerate_unit_maps,
    gadget,
    grow_witness,
    naive_unit_maps,
    placement_order,
    unit_edges,
)
from rigidlab.errors import (
    BudgetExhausted,
    MixedBackend,
    NotAnchored,
    NotRepresentable,
)
from rigidlab.export import dumps_canonical, pointset_to_json
from rigidlab.numeric import (
    SQRT3,
    Point,
    QScalar,
    circle_intersect,
    dist2,
    is_unit,
    point_to_float,
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
    unit_hops,
    unit_path,
)
from rigidlab.relations import RelStruct, component, neighbours

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

    def test_each_edge_starts_one_run(self, monkeypatch):
        # each of chain n=5's 5 unit edges starts one run per pass, from its
        # lower end; starting from both ends would double the runs and the
        # calls, to 36
        calls = []
        real = bq._extend
        monkeypatch.setattr(bq, "_extend", lambda *args: calls.append(1) or real(*args))
        with pytest.raises(NotAnchored):
            placement_order(gadget("chain", n=5).points)
        assert len(calls) == 18

    def test_ball1(self):
        order = placement_order(lattice_ball(1))
        assert len(order.order) == 7

    def test_pinned_start(self):
        order = placement_order(base_triangle())
        assert order.order[0] == 0 and order.order[1] == 1


def _reference_adjacency(n, edges) -> list:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(x) for x in adj]


def _reference_connected(adj) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def _reference_extend(adj, placed, anchors, allowed) -> None:
    placed_set = set(placed)
    while True:
        best = -1
        best_count = 1
        for v in allowed:
            if v in placed_set:
                continue
            count = sum(1 for w in adj[v] if w in placed_set)
            if count > best_count:
                best, best_count = v, count
        if best < 0:
            return
        anchors.append(tuple(w for w in adj[best] if w in placed_set))
        placed.append(best)
        placed_set.add(best)


def _reference_cluster_step(adj, placed):
    placed_set = set(placed)
    free = [v for v in range(len(adj)) if v not in placed_set]
    closures = []
    for u in sorted(placed_set):
        for t in adj[u]:
            if t not in placed_set:
                sub, sub_anchors = [u, t], [(), ()]
                _reference_extend(adj, sub, sub_anchors, [u] + free)
                closures.append((u, sub, sub_anchors))
    for v in free:
        for w in adj[v]:
            if w not in placed_set:
                continue
            for u, sub, sub_anchors in closures:
                if u == w or v not in sub:
                    continue
                members = tuple(sorted(sub))
                local = {m: k for k, m in enumerate(members)}
                order = bq.PlacementOrder(
                    tuple(local[m] for m in sub),
                    tuple(tuple(local[a] for a in anc) for anc in sub_anchors),
                )
                return v, bq.ClusterStep(u, w, members, order)
    return None


def reference_placement_order(T):
    """The greedy placement order over sorted neighbour lists, as the engine
    computed it before it read neighbour bitmasks."""
    n = len(T)
    if n == 0:
        raise ValueError("empty point set")
    if n == 1:
        return bq.PlacementOrder((0,), ((),))
    edges = unit_graph(T)
    adj = _reference_adjacency(n, edges)
    if not _reference_connected(adj):
        raise NotAnchored("unit graph is disconnected")
    for glue in (False, True):
        for i, j in edges:
            for start in ((i, j), (j, i)):
                placed, anchors, clusters = list(start), [(), ()], [None, None]
                while True:
                    _reference_extend(adj, placed, anchors, range(n))
                    clusters += [None] * (len(placed) - len(clusters))
                    if len(placed) == n:
                        return bq.PlacementOrder(tuple(placed), tuple(anchors),
                                                 tuple(clusters))
                    found = _reference_cluster_step(adj, placed) if glue else None
                    if found is None:
                        break
                    v, step = found
                    anchors.append((step.w,))
                    clusters.append(step)
                    placed.append(v)
    raise NotAnchored("some vertex is never anchored")


def _assert_placement_matches_reference(ps):
    try:
        want = reference_placement_order(ps)
    except (NotAnchored, ValueError) as exc:
        with pytest.raises(type(exc)):
            placement_order(ps)
        return None
    assert placement_order(ps) == want
    return want


_BALL2 = lattice_ball(2)

GADGET_FIGURES = {
    "triangle-extension": lambda: gadget("triangle-extension").points,
    "rhombus": lambda: gadget("rhombus").points,
    **{f"chain{n}": (lambda n=n: gadget("chain", n=n).points) for n in (1, 2, 3, 5)},
    "spindle-exact": lambda: gadget("moser-spindle").points,
}

placement_figures = st.one_of(
    # subsets of lattice_ball(2) in drawn order
    st.lists(st.integers(0, len(_BALL2) - 1), min_size=1, max_size=len(_BALL2),
             unique=True).map(lambda idx: PointSet([_BALL2[i] for i in idx])),
    # braced unit paths from the origin, in path order or shuffled
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: _braced(unit_path(P0, lattice_point(*t)))).flatmap(
        lambda ps: st.just(ps) | st.permutations(list(ps)).map(PointSet)),
    st.sampled_from(sorted(GADGET_FIGURES)).map(lambda name: GADGET_FIGURES[name]()),
)


class TestGlueCandidates:
    """The branches of a cluster step's circle meet that the spindle never
    reaches: there |AG|^2 is 3 or 0 and D is never at unit distance from A."""

    def test_zero_radius_places_on_u(self):
        sites = _SiteTable((3,))
        p0, p1, p2 = sites.sites_of((P0, P1, lattice_point(2, 0)))
        assert sites.meet(p0, p1, QScalar(0)) == (p0,)
        assert sites.meet(p0, p2, QScalar(0)) == ()

    def test_coincident_centres(self):
        sites = _SiteTable((3,))
        p0 = sites.site(P0)
        assert sites.meet(p0, p0, QScalar(0)) == ()
        with pytest.raises(NotAnchored):
            sites.meet(p0, p0, QScalar(1))
        assert sites.meet(p0, p0, QScalar(3)) == ()

    def test_radii_union(self):
        sites = _SiteTable((3,))
        p0, p1 = sites.sites_of((P0, P1))
        got = [c for r in (QScalar(0), QScalar(1), QScalar(3)) for c in sites.meet(p0, p1, r)]
        assert len(got) == 5 and got[0] == p0
        assert all(dist2(sites.points[c], P1) == 1 for c in got)


def _join_rhombi(ps) -> set:
    """Mirror-invariant keys, of rounded float pairs, of the spindle's maps
    built without a cluster step: each rhombus is enumerated on its own,
    its mirror images added, and the second is turned about A until
    |DG| = 1."""
    halves = []
    for members in ((0, 1, 2, 3), (0, 4, 5, 6)):
        res = enumerate_unit_maps(ps.subset(members))
        maps = [[complex(*point_to_float(p)) - complex(*point_to_float(m[0]))
                 for p in m] for m in res.maps]
        halves.append(maps + [[w.conjugate() for w in m] for m in maps])
    o0, o1 = placement_order(ps).order[:2]
    edges = unit_graph(ps)
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
                # the mirror-invariant key, read off rounded float pairs
                keys.add(min(_rounded(z), _rounded([w.conjugate() for w in z])))
    return keys


def _rounded(zs) -> tuple:
    return tuple((round(w.real, 7) + 0.0, round(w.imag, 7) + 0.0) for w in zs)


def reference_unit_maps(T, order=None, branch_limit=DEFAULT_BRANCH_LIMIT, field=None):
    """Plain enumerator in the engine's order, mirror rule and anchor
    pruning: circle_intersect and is_unit are called afresh at every node.
    A cluster's sub-figure is enumerated in the whole figure's field.
    Returns (maps, nodes, pruned, truncated)."""
    if order is None:
        order = placement_order(T)
    if field is None:
        field = tuple(sorted({3}.union(*(p.x.radicands + p.y.radicands for p in T))))
    base = (Point(QScalar(0), QScalar(0)), Point(QScalar(1), QScalar(0)))
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
                        if p != q)
            candidates = circle_intersect(p, 1, q, 1, field)
        else:
            cu, cw = images[step.u], images[step.w]
            candidates = []
            for r in radii[k]:
                if r.sign() == 0:
                    if is_unit(cu, cw):
                        candidates.append(cu)
                elif cu != cw:
                    candidates += circle_intersect(cu, r, cw, 1, field)
                elif r == 1:
                    raise NotAnchored("a glued vertex's two circles coincide")
        if not candidates:
            count["pruned"] += 1
        for cand in candidates:
            sign_y = cand.y.sign()
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
    maps.sort(key=lambda m: [point_to_float(p) for p in m])
    return maps, count["nodes"], count["pruned"], truncated


def _figure_digest(ps, *rest) -> str:
    """sha256 of a point set's canonical JSON and further plain values."""
    doc = dumps_canonical(pointset_to_json(ps))
    return hashlib.sha256(repr((doc, *rest)).encode()).hexdigest()


def _ladder(y, k):
    """k unit hops from P0 to y, each braced by both apexes."""
    return _braced(unit_hops(P0, y, k, k))


def _assert_matches_reference(ps, branch_limit=DEFAULT_BRANCH_LIMIT, runs=1):
    """Enumerate ps `runs` times in a row, each run against one reference
    enumeration; the last result is returned."""
    maps, nodes, pruned, truncated = reference_unit_maps(ps, branch_limit=branch_limit)
    for _ in range(runs):
        res = enumerate_unit_maps(ps, branch_limit=branch_limit)
        assert (res.nodes, res.pruned, res.truncated) == (nodes, pruned, truncated)
        assert [list(m) for m in res.maps] == [list(m) for m in maps]
        assert ([[point_to_float(p) for p in m] for m in res.maps]
                == [[point_to_float(p) for p in m] for m in maps])
    return res


def _counted_arithmetic(monkeypatch) -> dict:
    """Calls of bq's circle_intersect and is_unit, by name, counted from
    now on."""
    count = {}

    def counted(fn):
        def wrapped(*args):
            count[fn.__name__] = count.get(fn.__name__, 0) + 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(bq, "circle_intersect", counted(circle_intersect))
    monkeypatch.setattr(bq, "is_unit", counted(is_unit))
    return count


ORACLE_FIGURES = {
    **{f"ladder{k}{d}": (lambda k=k, d=d: _ladder(lattice_point(k * d[0], k * d[1]), k))
       for k in (2, 3, 4, 5) for d in UNIT_DIRS},
    **{f"braced{y}": (lambda y=y: _braced(unit_path(P0, lattice_point(*y))))
       for y in ((2, 1), (1, 2), (3, 1), (-2, 3), (2, 2))},
    "rhombus": lambda: gadget("rhombus").points,
    "ball1": lambda: lattice_ball(1),
    "spindle-exact": lambda: gadget("moser-spindle").points,
}


class TestPlacementReference:
    """The bitmask placement order against the list-based greedy."""

    @pytest.mark.parametrize("name", sorted(GADGET_FIGURES))
    def test_gadgets(self, name):
        _assert_placement_matches_reference(GADGET_FIGURES[name]())

    @pytest.mark.parametrize("name", sorted(ORACLE_FIGURES))
    def test_oracle_figures(self, name):
        assert _assert_placement_matches_reference(ORACLE_FIGURES[name]()) is not None

    def test_spindle_braced_ball(self, spindle_braced_ball1):
        want = _assert_placement_matches_reference(spindle_braced_ball1)
        assert want is not None

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_lattice_balls(self, radius):
        assert _assert_placement_matches_reference(lattice_ball(radius)) is not None

    @given(placement_figures)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, ps):
        _assert_placement_matches_reference(ps)


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
        res = enumerate_unit_maps(_ladder(lattice_point(k, 0), k))
        assert (res.nodes, res.pruned, len(res.maps)) == counts

    @pytest.mark.parametrize("y,k,calls", [((4, 0), 4, (6, 99)), ((0, -5), 5, (6, 167))])
    def test_ladder_work_pinned(self, y, k, calls, monkeypatch):
        # from an emptied table, the placement order tests each pair of
        # T's 13 or 16 points once (78 or 120), then one intersection per
        # difference of two anchor images, and no unit test of a candidate
        # against the centres it was met from or of a pair decided before;
        # a second enumeration finds every position and pair in the
        # field's shared table and pays nothing
        count = _counted_arithmetic(monkeypatch)
        T = _ladder(lattice_point(*y), k)
        with emptied_tables():
            for want in (calls, (0, 0)):
                count.clear()
                enumerate_unit_maps(T)
                assert (count.get("circle_intersect", 0), count.get("is_unit", 0)) == want

    def test_distinct_drops_every_repeat(self):
        # 1 + 10**-30 has the float of 1, so the two 1s need not sort side by side
        tiny = QScalar(1 + Fraction(1, 10**30))
        assert _distinct([QScalar(1), tiny, QScalar(1)]) == [QScalar(1), tiny]


def _moved(ps, d: Point) -> PointSet:
    """ps translated by the vector d."""
    return PointSet([Point(p.x + d.x, p.y + d.y) for p in ps])


# a unit vector stretched by 1 +- _TINY: its float length is within 1e-12
# of 1, its exact length is not 1
_TINY = Fraction(1, 10**12)
_UNIT_VECTORS = ((QScalar(1), QScalar(0)), (QScalar(Fraction(3, 5)), QScalar(Fraction(4, 5))),
                 (QScalar(Fraction(1, 2)), SQRT3 / 2))

_lattice_sets = st.lists(st.integers(0, len(_BALL2) - 1), min_size=1, max_size=12,
                         unique=True).map(lambda idx: PointSet([_BALL2[i] for i in idx]))
_q3_scalars = st.tuples(*[st.fractions(-2, 2, max_denominator=6)] * 2).map(lambda t: QScalar(*t))
_q3_vectors = st.tuples(_q3_scalars, _q3_scalars).map(lambda t: Point(*t))
_vectors = st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda t: lattice_point(*t)),
    _q3_vectors,
    st.just(Point(QScalar(ext=((11, Fraction(1, 2)),)), QScalar(Fraction(-1, 2)))),
)


@st.composite
def _near_unit_sets(draw):
    """A lattice set plus points at unit length, or at 1 +- _TINY, from
    some of its points."""
    base = draw(_lattice_sets)
    pts = list(base)
    for i, (vx, vy), sign in draw(st.lists(st.tuples(
            st.integers(0, len(base) - 1), st.sampled_from(_UNIT_VECTORS),
            st.sampled_from((0, 1, -1))), min_size=1, max_size=6)):
        stretch = 1 + sign * _TINY
        pts.append(Point(base[i].x + vx * stretch, base[i].y + vy * stretch))
    return PointSet(pts)


_unit_edge_sets = st.one_of(
    _lattice_sets,
    # off the lattice in Q(sqrt(3)): a lattice set moved by a drawn vector
    st.tuples(_lattice_sets, _q3_vectors).map(lambda t: _moved(*t)),
    # the exact spindle, alone or beside a lattice set, in Q(sqrt(3), sqrt(11))
    st.tuples(_lattice_sets, st.booleans()).map(
        lambda t: PointSet(list(gadget("moser-spindle").points) + (list(t[0]) if t[1] else []))),
    _near_unit_sets(),
).flatmap(lambda ps: st.one_of(
    st.just(ps),
    # a translated copy, alone or with the original
    st.tuples(_vectors, st.booleans()).map(
        lambda t: PointSet([*(ps if t[1] else ()), *_moved(ps, t[0])])),
))


class TestUnitEdges:
    """The verdict path's unit graph, read from the site table, against
    the all-pairs loop of plane.unit_graph."""

    @given(_unit_edge_sets)
    @settings(max_examples=120, deadline=None)
    def test_matches_unit_graph(self, ps):
        want = unit_graph(ps)
        backwards = PointSet(reversed(ps.points))
        with emptied_tables():
            assert unit_edges(ps) == want
            # warm: every pair is memoized, or reversed in the memo
            assert unit_edges(ps) == want
            assert unit_edges(backwards) == unit_graph(backwards)
        assert unit_edges(ps) == want

    def test_near_unit_pairs_are_not_edges(self):
        p = lattice_point(1, 1)
        near = [Point(p.x + vx * (1 + d), p.y + vy * (1 + d))
                for d in (_TINY, -_TINY) for vx, vy in _UNIT_VECTORS]
        for q in near:
            # 1 +- 1e-12, up to the rounding of the floats
            assert abs(math.dist(point_to_float(p), point_to_float(q)) - 1) < 2e-12
            assert not is_unit(p, q)
        ps = PointSet([p, *near, *(Point(p.x + vx, p.y + vy) for vx, vy in _UNIT_VECTORS)])
        with emptied_tables():
            edges = unit_edges(ps)
        assert edges == unit_graph(ps)
        assert [j for i, j in edges if i == 0] == [7, 8, 9]


def _shifted(ps, dx) -> PointSet:
    """ps translated by dx along the x axis: the same maps, in the field of
    ps and dx."""
    return PointSet([Point(p.x + dx, p.y) for p in ps])


class TestSharedSiteTable:
    """The exact enumerations in one field share one site table for the
    life of the process.  Each check runs first on an emptied table, then
    on the warm one, against the reference enumerator."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FIGURES))
    def test_warm_table_matches_reference(self, name):
        # the exact spindle's cluster step enumerates its sub-figure in the
        # spindle's field, so from the same table
        ps = ORACLE_FIGURES[name]()
        with emptied_tables() as tables:
            _assert_matches_reference(ps, runs=2)
            assert len(tables) == 1

    @given(st.sampled_from(["ladder3(1, 0)", "braced(2, 1)", "ball1", "spindle-exact"]),
           st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_truncation_on_warm_table(self, name, limit):
        ps = ORACLE_FIGURES[name]()
        with emptied_tables():
            res = _assert_matches_reference(ps, branch_limit=limit, runs=2)
            assert res.truncated == (limit < enumerate_unit_maps(ps).nodes)

    def test_spindle_glue_meets_are_shared(self, monkeypatch):
        # the glued vertex's meets are the table's too, so a second
        # enumeration of the spindle computes no arithmetic at all
        count = _counted_arithmetic(monkeypatch)
        ps = ORACLE_FIGURES["spindle-exact"]()
        with emptied_tables():
            first = enumerate_unit_maps(ps)
            assert count.get("circle_intersect", 0) > 0
            count.clear()
            second = enumerate_unit_maps(ps)
            assert count == {}
        assert second == first

    def test_not_representable_leaves_table(self, spindle_braced_ball1):
        # the spindle's side vertices have y = +-sqrt(33)/12: one field
        field = bq._field_of(spindle_braced_ball1)
        spindle = ORACLE_FIGURES["spindle-exact"]()
        assert bq._field_of(spindle) == field == (3, 11, 33)
        with emptied_tables() as tables:
            sizes = []
            for _ in range(2):
                with pytest.raises(NotRepresentable):
                    enumerate_unit_maps(spindle_braced_ball1)
                t = tables[field]
                sizes.append((len(t.points), len(t._meets), len(t._offsets), len(t._units)))
            assert sizes[0] == sizes[1]
            res = _assert_matches_reference(spindle, runs=2)
        assert len(res.maps) == 4

    def test_table_past_the_bound_is_replaced(self, monkeypatch):
        ps = ORACLE_FIGURES["ladder3(1, 0)"]()
        with emptied_tables() as tables:
            _assert_matches_reference(ps)
            first = tables[(3,)]
            # the unit memo outgrows the sites: a table holding exactly
            # the bound in both is kept, one past it in either is replaced
            size = max(len(first.points), len(first._units))
            assert size == len(first._units) > len(first.points)
            monkeypatch.setattr(bq, "_SITE_LIMIT", size)
            _assert_matches_reference(ps)
            assert tables[(3,)] is first
            monkeypatch.setattr(bq, "_SITE_LIMIT", size - 1)
            _assert_matches_reference(ps)
            second = tables[(3,)]
            assert second is not first
            assert (len(second.points), len(second._units)) == (len(first.points), size)

    def test_replaced_table_gives_the_same_edges_and_maps(self, monkeypatch):
        # at this bound every call replaces the table its predecessor
        # filled, the enumeration's the placement order's among them
        monkeypatch.setattr(bq, "_SITE_LIMIT", 8)
        with emptied_tables() as tables:
            for name in ("ladder3(1, 0)", "braced(2, 1)", "ball1", "spindle-exact"):
                ps = ORACLE_FIGURES[name]()
                field = bq._field_of(ps)
                for _ in range(2):
                    assert unit_edges(ps) == unit_graph(ps)
                    ordered = tables[field]
                    _assert_matches_reference(ps)
                    assert tables[field] is not ordered

    def test_fields_never_share_a_site(self):
        figures = {
            (3,): gadget("rhombus").points,
            (3, 11): _shifted(gadget("rhombus").points, QScalar(ext=((11, 1),))),
            (3, 11, 33): gadget("moser-spindle").points,
        }
        with emptied_tables() as tables:
            images = {}
            for field, ps in figures.items():
                assert bq._field_of(ps) == field
                res = enumerate_unit_maps(ps)
                images[field] = {id(p) for m in res.maps for p in m}
            assert set(tables) == set(figures)
            sites = {field: {id(p) for p in t.points} for field, t in tables.items()}
            for f, g in itertools.combinations(figures, 2):
                assert not sites[f] & sites[g]
            for field in figures:
                assert images[field] <= sites[field]

    def test_sites_are_distinct_points(self):
        # positions are interned by value, so anchor_pair may compare site
        # numbers: no two sites of a table hold equal points
        with emptied_tables() as tables:
            for name in sorted(GADGET_FIGURES):
                ps = GADGET_FIGURES[name]()
                try:
                    enumerate_unit_maps(ps)
                    naive_unit_maps(ps)
                except NotAnchored:
                    continue
            assert set(tables) == {(3,), (3, 11, 33)}
            for t in tables.values():
                assert len(set(t.points)) == len(t.points)


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

    def test_negative_branch_limit_refused(self, monkeypatch):
        def refuse(T):
            raise AssertionError("a refused limit computes no placement order")

        monkeypatch.setattr(bq, "placement_order", refuse)
        with pytest.raises(ValueError, match="branch limit"):
            enumerate_unit_maps(lattice_ball(1), branch_limit=-1)

    def test_zero_branch_limit_places_an_edge(self):
        # a unit edge needs no node
        res = enumerate_unit_maps(PointSet([P0, P1]), branch_limit=0)
        assert (len(res.maps), res.nodes, res.truncated) == (1, 0, False)
        assert enumerate_unit_maps(base_triangle(), branch_limit=0).truncated

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

    def test_map_key_is_exact(self):
        # two maps that agree to 9 decimals are still two maps
        near = Point(Fraction(1, 10**9), 0)
        assert canonical_map_key((P0, P1)) != canonical_map_key((near, P1))
        assert canonical_map_key((P0, P1)) == ((QScalar(0), QScalar(0)), (QScalar(1), QScalar(0)))

    @pytest.mark.parametrize("kind", ["rhombus", "moser-spindle"])
    def test_mirror_images_share_a_key(self, kind):
        for m in enumerate_unit_maps(gadget(kind).points).maps:
            mirror = tuple(Point(p.x, -p.y) for p in m)
            assert mirror != m
            assert canonical_map_key(mirror) == canonical_map_key(m)


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
        strip = _ladder(y, 2)
        assert len(strip) == 7 and len(unit_graph(strip)) == 12
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

    def test_negative_epsilon_refused(self):
        g = gadget("rhombus")
        for eps in (QScalar(-1), -1, Fraction(-1, 10**9)):
            with pytest.raises(ValueError, match="epsilon"):
                bq_certify(g.points, 0, 3, eps)
        # the sign is read after coercion, so a float is still refused first
        with pytest.raises(MixedBackend):
            bq_certify(g.points, 0, 3, -1.0)

    def test_point_arguments_by_index(self):
        g = gadget("rhombus")
        rep = bq_certify(g.points, 0, 3, SQRT3)
        assert rep.certified

    def test_float_figure_refused(self):
        # a float epsilon is refused, a non-scalar one is a type error
        with pytest.raises(MixedBackend):
            bq_certify(gadget("rhombus").points, 0, 3, 1.75)
        with pytest.raises(TypeError):
            bq_certify(gadget("rhombus").points, 0, 3, "1.75")

    def test_report_backend_is_exact(self):
        # the report format and the benchmark read this constant
        assert bq_certify(gadget("rhombus").points, 0, 3, SQRT3).backend == "exact"

    def test_maps_leaving_the_field_refused(self, spindle_braced_ball1):
        # the spindles' maps need sqrt(11/148 + sqrt(33)/37); an exact
        # figure gets an exact certificate or none, never a float one
        with pytest.raises(NotRepresentable):
            bq_certify(spindle_braced_ball1, 0, 1, QScalar(0))


def _isometries():
    """The 24 lattice isometries: 6 rotations by multiples of 60 degrees,
    each with and without a mirror about the x axis, then a translation
    by 0 or by lattice_point(2, -1)."""
    c, s = QScalar(Fraction(1, 2)), SQRT3 / 2  # cos and sin of 60 degrees
    out = []
    for turns in range(6):
        for mirror in (False, True):
            for shift in (P0, lattice_point(2, -1)):
                def move(p, turns=turns, mirror=mirror, shift=shift):
                    x, y = p.x, -p.y if mirror else p.y
                    for _ in range(turns):
                        x, y = c * x - s * y, s * x + c * y
                    return Point(x + shift.x, y + shift.y)
                out.append(move)
    return out


_CERTIFICATES = [
    ("triangle-extension", "A", "C", 0),
    ("rhombus", "A", "D", 1),
    ("chain", "A", "B", 0),
    ("moser-spindle", "A", "D", 0),
]


def _certificate(ps, xi, yi, eps) -> tuple:
    """The parts of bq_certify's report that do not depend on the frame."""
    rep = bq_certify(ps, xi, yi, QScalar(eps))
    return (rep.certified, rep.max_deviation, rep.map_count,
            rep.branch_count, rep.pruned_contradictions)


class TestIsometryInvariance:
    """A certificate is a property of the figure up to isometry: every
    lattice isometry of a gadget, and every translation by a lattice
    point up to 1000 steps away, gets the same report.  The spindle's
    images lie in Q(sqrt(3), sqrt(11), sqrt(33)), a table apart from the
    other gadgets', and its glued vertex meets at squared radii other
    than 1."""

    @pytest.mark.parametrize("kind,x,y,eps", _CERTIFICATES)
    def test_reports_equal(self, kind, x, y, eps):
        g = gadget(kind)
        xi, yi = g.labeled_index(x), g.labeled_index(y)
        want = _certificate(g.points, xi, yi, eps)
        moves = _isometries()
        assert len(moves) == 24
        for move in moves:
            moved = PointSet([move(p) for p in g.points])
            assert dist2(moved[xi], moved[yi]) == dist2(g.points[xi], g.points[yi])
            assert _certificate(moved, xi, yi, eps) == want

    @given(st.sampled_from(_CERTIFICATES), st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_far_translations(self, case, a, b):
        # the moved points enter the shared site table far from the frame
        # the images are placed in
        kind, x, y, eps = case
        g = gadget(kind)
        xi, yi = g.labeled_index(x), g.labeled_index(y)
        moved = _moved(g.points, lattice_point(a, b))
        assert _certificate(moved, xi, yi, eps) == _certificate(g.points, xi, yi, eps)


class TestGadgets:
    # digests of each figure's points and labels
    @pytest.mark.parametrize("kind,kwargs,sha256", [
        ("triangle-extension", {},
         "3e1ef0d9e533f38bd2d5f680bc9d3af8b4bc9da7e3bff756cfc1e59916addda4"),
        ("rhombus", {}, "c9954434bc2be7266a714f11400545d531dbc9b860a779c68c8a287f711e55cd"),
        ("chain", {"n": 1}, "d2d5650b8832ce4f7ef9d5e565b55beae908dcec01e311809cd9ea32049e6608"),
        ("chain", {"n": 3}, "c7bf974717797335f2153019fa05cd80d175d67548c67750abfecf04ac7f4ebb"),
        ("moser-spindle", {},
         "ac8a7fb32a97c9deb71717534ae7158d7111ba7689711e09f62e9fa28ac9bdab"),
    ])
    def test_figure_pinned(self, kind, kwargs, sha256):
        g = gadget(kind, **kwargs)
        assert _figure_digest(g.points, g.labels) == sha256

    def test_labels(self):
        g = gadget("rhombus")
        assert g.labels == ("A", "B", "C", "D")
        assert g.labeled_index("D") == 3

    def test_triangle_extension(self):
        g = gadget("triangle-extension")
        assert len(g.points) == 3
        assert len(unit_graph(g.points)) == 3

    def test_chain(self):
        # n counts segments, so n + 1 points
        g = gadget("chain", n=5)
        assert len(g.points) == 6
        assert len(unit_graph(g.points)) == 5

    def test_spindle_shape(self):
        g = gadget("moser-spindle")
        assert len(g.points) == 7
        assert len(unit_graph(g.points)) == 11
        nbrs = neighbours(RelStruct(7, unit_graph(g.points)))
        assert min(m.bit_count() for m in nbrs) >= 3
        assert component(nbrs, 0, 0b1111111) == 0b1111111

    def test_spindle_exact_not_representable(self):
        """The exact spindle lives in Q(sqrt(3), sqrt(11)); its hinge offset
        sqrt(11)/6 stays outside the default field Q(sqrt(3))."""
        g = gadget("moser-spindle")
        edges = unit_graph(g.points)
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
        nbrs = neighbours(RelStruct(len(ps), unit_graph(ps)))
        for perm in itertools.permutations(range(len(ps))):
            if not nbrs[perm[0]] >> perm[1] & 1:
                continue
            placed = 1 << perm[0] | 1 << perm[1]
            short = False
            for v in perm[2:]:
                short = short or (nbrs[v] & placed).bit_count() < 2
                placed |= 1 << v
            assert short
        order = placement_order(ps)
        assert sum(step is not None for step in order.clusters) == 1

    def test_exact_spindle_maps(self):
        """Both rhombi stay open in every map: |AD|^2 = 3 throughout."""
        exact = gadget("moser-spindle").points
        res = enumerate_unit_maps(exact)
        assert len(res.maps) == 4
        edges = unit_graph(exact)
        for m in res.maps:
            assert all(dist2(m[i], m[j]) == QScalar(1) for i, j in edges)
            assert dist2(m[0], m[3]) == QScalar(3)
        assert {canonical_map_key(m) for m in res.maps} == naive_unit_maps(exact)
        # the float oracle is compared on keys rounded as it rounds its own
        floats = [[complex(*point_to_float(p)) for p in m] for m in res.maps]
        assert ({min(_rounded(z), _rounded([w.conjugate() for w in z])) for z in floats}
                == _join_rhombi(exact))

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

    # one grown set per strategy, with its report
    @pytest.mark.parametrize("y,eps,strategy,size,deviation,maps,sha256", [
        (P1, 0, "edge", 2, "0", 1,
         "e13cb188f92b59e78590753c8a4f0e3c561282351225b779f9bb181e7d94c5df"),
        (lattice_point(1, 1), 2, "rhombus", 4, "r3", 2,
         "b53d82dbf68263b9939f5ca02006e0ee6eaf0d5d19331c13796d3c0ed3d390e3"),
        (lattice_point(2, 0), 1, "ladder", 7, "1", 11,
         "ba8fa4e3a2f1bde8ff137f5e095dd8607986cd829950daf7ceed0b0044afaaf6"),
        (lattice_point(2, 1), 4, "braced-path", 9, "-1+r7", 44,
         "9fcb852610faff1e2aff69f97741af3fc595990aab4a0276eb244d4fe5c04b9f"),
    ])
    def test_grown_set_pinned(self, y, eps, strategy, size, deviation, maps, sha256):
        g = grow_witness(P0, y, QScalar(eps))
        rep = g.report
        assert ((g.strategy, len(g.points), str(rep.max_deviation), rep.map_count)
                == (strategy, size, deviation, maps))
        fields = (rep.certified, str(rep.epsilon), str(rep.max_deviation), rep.map_count,
                  rep.branch_count, rep.pruned_contradictions,
                  None if rep.counterexample is None else tuple(map(str, rep.counterexample)))
        assert _figure_digest(g.points, g.strategy, fields) == sha256

    def test_honest_refusal(self):
        with pytest.raises(BudgetExhausted) as exc_info:
            grow_witness(P0, lattice_point(2, 0), QScalar(Fraction(1, 2)))
        assert exc_info.value.partial is not None

    def test_same_point_rejected(self):
        with pytest.raises(ValueError):
            grow_witness(P0, P0, QScalar(1))

    @pytest.mark.parametrize("eps,budget", [(QScalar(-1), 10), (-1, 10), (1, -1)],
                             ids=["epsilon", "int-epsilon", "budget"])
    def test_refused_before_any_build(self, eps, budget, monkeypatch):
        # a refused epsilon or budget certifies no strategy's set
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bq_certify(*args, **kwargs)

        monkeypatch.setattr(bq, "bq_certify", counted)
        with pytest.raises(ValueError):
            grow_witness(P0, lattice_point(2, 0), eps, budget=budget)
        assert calls == []
        with pytest.raises(MixedBackend):
            grow_witness(P0, lattice_point(2, 0), -1.0, budget=budget)
        with pytest.raises(TypeError):
            grow_witness(P0, lattice_point(2, 0), "1", budget=budget)
        assert calls == []

    @pytest.mark.parametrize("y", [(1, 0), (2, 0)])
    def test_negative_budget_refused(self, y):
        # the edge strategy needs no node, and still refuses the limit
        with pytest.raises(ValueError, match="branch limit"):
            grow_witness(P0, lattice_point(*y), QScalar(1), budget=-1)
