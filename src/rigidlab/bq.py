"""Enumeration of unit-distance-preserving maps of finite plane sets, with
distance-deviation certificates and a gadget library.

A point set is enumerable when it admits a placement order: a sequence
starting at a unit edge in which every later point sees at least two
already-placed unit neighbors.  Placing a point then means intersecting
the unit circles of two anchor images and pruning candidates against all
other placed neighbors.  Maps are produced modulo isometry by fixing the
first edge at (0,0)-(1,0) and forcing the first off-axis image to the
upper half plane; the deviation bound being isometry-invariant justifies
the quotient.

When no such order exists, an order may still glue a rigid cluster in
the manner of a DR-plan (Hoffmann, Lomonosov & Sitharam, JSC 2001): a
vertex with a single placed unit neighbor w is placed at a distance from
another placed vertex u that a sub-figure, enumerated on its own, admits
only finitely many values of (see ClusterStep).  The Moser spindle needs
one such step.  Every map is computed exactly, in the field generated by
sqrt(3) and the radicands of the set's own coordinates.

Sets that admit neither (long chains, or figures whose clusters never
pin a vertex) are refused via NotAnchored rather than under-enumerated:
a certificate from a partial enumeration would be unsound.

The enumerations in one field share one site table (_SiteTable), kept
for the life of the process: every image position gets a number,
positions interned by value, so distinct sites are distinct points and
the distinct-anchor test compares site numbers.  The unit test of a
candidate against an anchor image is computed once per pair of sites.
The unit graph of a set on the verdict path (unit_edges: the placement
order's, and the case-1 universe's) reads the same memo: its points are
interned as sites too, and a unit test between T's own points depends on
the two points' values only, so a set met again costs no unit test.
Every placement step, two-anchor or glued, takes its candidates from one
circle meet of the table, computed once per pair of sites and squared
radius, its circle intersection once per difference of the two sites
and squared radius.  A braced figure meets few positions many times
over, and every enumeration places its images in the same frame, so the
search repeats these decisions at many nodes and across many
enumerations but pays for each once.  The table also keeps each unit
graph's placement order and each order's maps: congruent figures with
one unit graph, a ladder in any lattice direction say, share one
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExhausted,
    NotAnchored,
    NotRepresentable,
)
from .numeric import (
    Q_SQRT3,
    SQRT3,
    Point,
    QScalar,
    _normalize_coord,
    circle_intersect,
    compare_deviation,
    deviation_value,
    dist2,
    is_unit,
    point_to_float,
    sqrt_diff_within,
    sqrt_exact,
)
from .plane import P0, P1, PointSet, unit_graph, unit_hops, unit_path
from .relations import RelStruct, _bits, component, neighbours

DEFAULT_BRANCH_LIMIT = 500_000


@dataclass(frozen=True)
class PlacementOrder:
    """Vertex order plus, per position, the placed unit neighbors and, for a
    vertex placed by cluster gluing, its ClusterStep (else None)."""

    order: tuple
    anchors: tuple  # anchors[k] = original indices placed before order[k]
    clusters: tuple = ()  # empty, or clusters[k] = ClusterStep or None

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "anchors", tuple(tuple(a) for a in self.anchors))
        object.__setattr__(self, "clusters",
                           tuple(self.clusters) or (None,) * len(self.order))
        if len(self.order) != len(set(self.order)):
            raise ValueError("placement order repeats a vertex")
        if len(self.anchors) != len(self.order) or len(self.clusters) != len(self.order):
            raise ValueError("anchors and clusters must align with the order")
        for k, (anchor, step) in enumerate(zip(self.anchors, self.clusters)):
            placed = set(self.order[:k])
            if any(a not in placed for a in anchor):
                raise ValueError("anchor not placed before its vertex")
            if step is not None:
                if step.u not in placed or step.w not in anchor or step.u == step.w:
                    raise ValueError("a cluster step glues at two distinct placed vertices")
                if step.u not in step.members or self.order[k] not in step.members:
                    raise ValueError("a cluster step's sub-figure holds u and the vertex")
            elif k >= 2 and len(anchor) < 2:
                raise ValueError("late vertices need at least two anchors")


@dataclass(frozen=True)
class ClusterStep:
    """Placement of a vertex v by a distance derived from a rigid cluster.

    `members` are the original indices (ascending) of a sub-figure S that
    holds the placed vertex u, the vertex v and otherwise only vertices not
    yet placed; `order` is a two-anchor order of T.subset(members) in local
    indices.  Every unit-preserving map f of T restricts to one of S, so
    |f(u) f(v)|^2 lies in the finite set R of squared u-v distances over
    the maps of S, and f(v) lies on circle(f(u), sqrt(r)) and on the unit
    circle about f(w) for some r in R, where w is v's placed unit neighbor.
    """

    u: int
    w: int
    members: tuple
    order: PlacementOrder


def _extend(nbrs, placed: list, anchors: list, allowed: int) -> int:
    """Two-anchor greedy: append to `placed` (and their placed unit
    neighbors to `anchors`) every vertex of the mask `allowed` that comes
    to see two placed unit neighbors, the best-connected lowest index
    first.  `nbrs` holds each vertex's unit-neighbor mask; the mask of
    the placed vertices is returned."""
    placed_mask = 0
    for v in placed:
        placed_mask |= 1 << v
    while True:
        best = -1
        best_count = 1
        for v in _bits(allowed & ~placed_mask):
            count = (nbrs[v] & placed_mask).bit_count()
            if count > best_count:
                best, best_count = v, count
        if best < 0:
            return placed_mask
        anchors.append(_bits(nbrs[best] & placed_mask))
        placed.append(best)
        placed_mask |= 1 << best


def _cluster_step(nbrs, placed: int):
    """First (v, ClusterStep) for a greedy stalled at the placed mask, or
    None.

    Each edge (u, t) with u placed and t not grows a two-anchor closure
    over u and the unplaced vertices.  v is the lowest unplaced vertex with
    a placed unit neighbor w that a closure at some u other than w reaches.
    """
    free = ((1 << len(nbrs)) - 1) & ~placed
    closures = []
    for u in _bits(placed):
        for t in _bits(nbrs[u] & free):
            sub, sub_anchors = [u, t], [(), ()]
            reach = _extend(nbrs, sub, sub_anchors, 1 << u | free)
            closures.append((u, sub, sub_anchors, reach))
    for v in _bits(free):
        for w in _bits(nbrs[v] & placed):
            for u, sub, sub_anchors, reach in closures:
                if u == w or not reach >> v & 1:
                    continue
                members = tuple(sorted(sub))
                local = {m: k for k, m in enumerate(members)}
                order = PlacementOrder(
                    tuple(local[m] for m in sub),
                    tuple(tuple(local[a] for a in anc) for anc in sub_anchors),
                )
                return v, ClusterStep(u, w, members, order)
    return None


def placement_order(T: PointSet) -> PlacementOrder:
    """Greedy placement order over every possible starting unit edge.

    Greedy per start edge is complete: a vertex that is placeable stays
    placeable as the placed set grows, so if any two-anchor order starts at
    some edge, the greedy run from that edge cannot stall.  Trying all
    edges therefore decides whether a two-anchor order exists, and when
    one does it is returned.  Only when none exists does a second pass let
    each stalled run glue one cluster (ClusterStep) and carry on; if every
    run still stalls, NotAnchored is raised.

    Each unit edge (i, j), i < j, starts one run, placing i then j; the
    reversed start (j, i) is not tried.  _extend and _cluster_step read
    nothing of the placed list but its mask, so a run from (j, i) places
    the same masks as one from (i, j) and stalls exactly when it does: it
    would come only after (i, j) had stalled, and stall too.

    The greedy reads nothing of T but len(T) and the unit edges, so the
    order is kept in the site table of T's field by (len(T), edges), and
    congruent figures with one unit graph share it.  A refused set
    (NotAnchored) stores nothing.
    """
    table = _site_table(_field_of(T))
    key = (len(T), table.edges(T))
    got = table.orders.get(key)
    if got is None:
        got = table.orders[key] = _greedy_order(*key)
        table.held += 1
    return got


def _greedy_order(n: int, edges: tuple) -> PlacementOrder:
    """placement_order of an n-point set with these unit edges, sorted,
    unique and in range."""
    if n == 0:
        raise ValueError("empty point set")
    if n == 1:
        return PlacementOrder((0,), ((),))
    nbrs = neighbours(RelStruct(n, edges, canonical=True))
    full = (1 << n) - 1
    if component(nbrs, 0, full) != full:
        raise NotAnchored("unit graph is disconnected; no placement order exists")
    for glue in (False, True):
        for start in edges:
            placed, anchors, clusters = list(start), [(), ()], [None, None]
            while True:
                reach = _extend(nbrs, placed, anchors, full)
                clusters += [None] * (len(placed) - len(clusters))
                if len(placed) == n:
                    return PlacementOrder(tuple(placed), tuple(anchors), tuple(clusters))
                found = _cluster_step(nbrs, reach) if glue else None
                if found is None:
                    break
                v, step = found
                anchors.append((step.w,))
                clusters.append(step)
                placed.append(v)
    raise NotAnchored(
        "some vertex never sees two placed unit neighbors, and no rigid "
        "cluster pins it; the set is too sparse to enumerate"
    )


@dataclass(frozen=True)
class UnitMapResult:
    """Enumerated maps (image tuple per original index) plus search stats."""

    maps: tuple
    nodes: int
    pruned: int
    truncated: bool

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


class _SiteTable:
    """Numbered image positions and the arithmetic the search repeats on
    them.

    Points are interned by value, so every placement at one position
    shares a site, and two sites are distinct points exactly when their
    numbers differ.  The arithmetic is memoized per pair of sites: a site
    number stays valid for the table's life, while the id() of a
    candidate dropped on backtrack may be handed to a new point.  Sites 0
    and 1 are the frame's first edge, (0,0)-(1,0) (`origin`), as Points of
    the table's own.

    Every placement step reads its candidates from meet(s, t, r): the
    sites at squared distance r from site s and at unit distance from site
    t.  A two-anchor step meets its pair at r = 1; a cluster step meets
    f(u) and f(w) once per radius of its sub-figure.  The two circles meet
    at offsets from the first centre that depend only on the difference d
    of the centres and on r, so the intersection is computed once per
    (d, r), about the origin, and translated.  Translation is exact and
    keeps the lexicographic order, so the points, their order and any
    NotRepresentable are those of a direct intersection.  Intersection
    points lie on both circles, so their unit tests against t, and against
    s when r = 1, are recorded as true without computing them.

    The table also keeps whole results: `orders`, each placement order
    by (n, unit edges), and `maps`, each enumeration by (n, order, branch
    limit).

    A table serves every enumeration in its field for the life of the
    process (_site_table).  Sharing is sound:

    - Every enumeration fixes one frame: its first edge runs (0,0)-(1,0),
      and, the mirror quotiented out, its first off-axis image lies above
      the axis.  So the enumerations of a field place their images in one
      coordinate system, and positions recur across them.
    - Everything the table memoizes depends only on what its key holds: a
      site's number, by value; its y sign, float pair and cell, by its
      point; the sites of a meet, by the two points, the radius value and
      the field (the offsets, by the difference of the points, the radius
      and the field); a unit test, by two points.
    - A unit test between T's own points (edges) depends on the two
      points' values only, as one between images does, so T's points
      share sites and memo entries with equal images.
    - An order reads nothing of T but the unit graph: the greedy sees
      only n and the edges.
    - An enumeration reads T only through len(T): every image is a site
      of the frame, met from the origin's sites, and a cluster's
      sub-figure is enumerated by its size and order alone.  So its maps,
      nodes, pruned and truncated depend only on n, the order, the branch
      limit and the field.
    - An entry is stored only once its value is computed, so a
      NotAnchored or NotRepresentable leaves the table as it was, and a
      later call raises it again.  A truncated enumeration is a value of
      its key and is stored; BudgetExhausted is raised only over it, by
      bq_certify and naive_unit_maps.

    So a warm table answers every query as a fresh one would: the same
    order, the same candidates in the same order and the same
    NotRepresentable, hence the same maps, nodes, pruned and truncated.
    The final sort reads the float pairs of the maps' sites only, so it
    orders them alike.
    """

    def __init__(self, field):
        self.points = []
        self.floats = []  # float pair of each site's point, a sort key; None until read
        self.cells = []  # exact (floor(x), floor(y)) of each site's point; None until read
        self.y_sign = []  # sign of each site's y coordinate
        self._index = {}
        self._field = field
        self._offsets = {}
        self._meets = {}
        self._units = {}
        self.orders = {}
        self.maps = {}
        self.held = 0  # orders and enumerations stored, plus their maps
        self.origin = self.sites_of((Point(0, 0), Point(1, 0)))

    def site(self, p: Point) -> int:
        """Site number of p: an equal point's, or a new one."""
        s = self._index.get(p)
        if s is None:
            s = len(self.points)
            self.points.append(p)
            self.floats.append(None)
            self.cells.append(None)
            self.y_sign.append(p.y.sign())
            self._index[p] = s
        return s

    def sites_of(self, pts) -> tuple:
        # from a list: tuple() of a generator grows a fresh tuple by
        # resizing, and the dead ones pile up in CPython's tuple free
        # lists, which only a full collection empties
        return tuple([self.site(p) for p in pts])

    def float_pair(self, s: int) -> tuple:
        """Float pair of site s's point, computed when a sort first reads
        it: the points unit_edges interns are mostly never images."""
        got = self.floats[s]
        if got is None:
            got = self.floats[s] = point_to_float(self.points[s])
        return got

    def cell(self, s: int) -> tuple:
        """Exact (floor(x), floor(y)) of site s's point."""
        got = self.cells[s]
        if got is None:
            p = self.points[s]
            got = self.cells[s] = (math.floor(p.x), math.floor(p.y))
        return got

    def edges(self, T: PointSet) -> tuple:
        """unit_edges of T in this table."""
        sites = self.sites_of(T)
        cells = [self.cell(s) for s in sites]
        # near[c]: ascending indices of the points whose cell is c or a
        # neighbour of c; points at unit distance differ by at most 1 in
        # each coordinate, so their cells by at most 1 in each index
        near = {}
        for i, (cx, cy) in enumerate(cells):
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    near.setdefault((cx + dx, cy + dy), []).append(i)
        unit = self.unit
        # from a list, as in sites_of
        return tuple([(i, j) for i, s in enumerate(sites)
                      for j in near[cells[i]] if j > i and unit(s, sites[j])])

    def unit(self, s: int, t: int) -> bool:
        key = (s, t)
        got = self._units.get(key)
        if got is None:
            got = self._units[key] = is_unit(self.points[s], self.points[t])
        return got

    def meet(self, s: int, t: int, r=1) -> tuple:
        """Sites at squared distance r from site s and at unit distance
        from site t."""
        key = (s, t, r)
        got = self._meets.get(key)
        if got is None:
            if r == 0:
                got = (s,) if self.unit(s, t) else ()
            elif s == t:
                if r == 1:
                    raise NotAnchored(
                        "a glued vertex's two circles coincide; its candidate "
                        "positions form a whole circle and cannot be enumerated"
                    )
                got = ()  # concentric circles of different radii meet nowhere
            else:
                c, e = self.points[s], self.points[t]
                d = Point(e.x - c.x, e.y - c.y)
                offsets = self._offsets.get((d, r))
                if offsets is None:
                    offsets = self._offsets[d, r] = circle_intersect(P0, r, d, 1, self._field)
                got = self.sites_of([Point(c.x + o.x, c.y + o.y) for o in offsets])
                for cand in got:
                    self._units[cand, t] = True
                    if r == 1:
                        self._units[cand, s] = True
            self._meets[key] = got
        return got

    def anchor_pair(self, sites):
        """First pair of distinct anchor sites, in deterministic order;
        distinct site numbers are distinct points."""
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                if sites[i] != sites[j]:
                    return sites[i], sites[j]
        return None


# a call that finds its field's table past this many sites, memoized unit
# tests, or stored orders, enumerations and maps (held) starts a fresh
# one, so a long-lived process holds a bounded table per field
_SITE_LIMIT = 1 << 16
_TABLES = {}  # field -> the _SiteTable its enumerations share


def _site_table(field) -> _SiteTable:
    """The site table shared by the enumerations in `field`.  The tables
    take no lock: the package enumerates on one thread."""
    table = _TABLES.get(field)
    if table is None or max(len(table.points), len(table._units), table.held) > _SITE_LIMIT:
        table = _TABLES[field] = _SiteTable(field)
    return table


def unit_edges(T: PointSet) -> tuple:
    """All unit-distance pairs (i, j), i < j, of T, sorted: the edges of
    plane.unit_graph, each unit test read from the site table of T's field.

    T's points are interned as sites, and the table's memo decides each
    ordered pair of sites once for its life, so a set met again, or the
    pairs a set shares with one met before, cost no field operation.
    Only pairs whose exact cells (floor(x), floor(y)) are equal or
    neighbours are tested, each site's cell computed once: a unit pair
    differs by at most 1 in each coordinate.  A unit test depends on the
    two points' values only, and every pair (i, j), i < j, is tested as
    the all-pairs loop tests it, so the edges are that loop's, in its
    order.
    """
    return _site_table(_field_of(T)).edges(T)


def enumerate_unit_maps(T: PointSet, order: PlacementOrder = None,
                        branch_limit: int = DEFAULT_BRANCH_LIMIT) -> UnitMapResult:
    """Every unit-preserving map of T into the plane, one per isometry class.

    The nodes and prunes of cluster sub-figures count toward the result's
    totals and its branch limit; a limit below 0 raises ValueError (a
    limit of 0 still enumerates a unit edge, which needs no node).

    `nodes` and `pruned` count search nodes, not arithmetic: intersections
    and unit tests come from a site table, computed at most once per pair
    of image positions (an intersection once per difference of the two
    and squared radius), so a node that meets a known pair costs no field
    operation.  A glued vertex's candidates come from the same table.  An
    enumeration shares its field's table with every earlier one in the
    process, so a position met before costs none either.  Maps share the
    Point object of each position, across enumerations too.

    The search reads T only through len(T): every image is a site of the
    shared frame.  So the result is kept in the table by (len(T), order,
    branch limit) and returned again, the same object, for every figure
    with that order, and congruent figures with one unit graph share one
    enumeration.
    """
    _check_branch_limit(branch_limit)
    if order is None:
        order = placement_order(T)
    return _enumerate(len(T), order, branch_limit, _field_of(T), naive=False)


def _check_branch_limit(branch_limit) -> None:
    if branch_limit is not None and branch_limit < 0:
        raise ValueError(f"branch limit must be at least 0, got {branch_limit}")


def _field_of(T: PointSet) -> tuple:
    """Radicands of the field generated by sqrt(3) and T's coordinates."""
    radicands = {3}
    for p in T:
        radicands.update(p.x.radicands, p.y.radicands)
    return tuple(sorted(radicands))


def _distinct(values) -> list:
    """Distinct values in ascending order of their floats, distinct values
    that share a float in order of first appearance."""
    return sorted(dict.fromkeys(values), key=float)


def _enumerate(n, order, branch_limit, field, naive):
    """The maps of an n-point figure in this order, searched in `field`'s
    site table; with naive False, each result is kept in the table."""
    if naive:
        return _search(n, order, branch_limit, field, naive)
    table = _site_table(field)
    key = (n, order, branch_limit)
    got = table.maps.get(key)
    if got is None:
        got = table.maps[key] = _search(n, order, branch_limit, field, naive)
        table.held += 1 + len(got.maps)
    return got


def _search(n, order, branch_limit, field, naive):
    images = [None] * n
    maps = []
    stats = {"nodes": 0, "pruned": 0, "truncated": False}

    if n == 1:
        return UnitMapResult(((Point(0, 0),),), 1, 0, False)

    radii = {}
    for k, step in enumerate(order.clusters):
        if step is None:
            continue
        sub = _enumerate(len(step.members), step.order, branch_limit, field, naive)
        stats["nodes"] += sub.nodes
        stats["pruned"] += sub.pruned
        if sub.truncated:
            return UnitMapResult((), stats["nodes"], stats["pruned"], True)
        iu = step.members.index(step.u)
        iv = step.members.index(order.order[k])
        radii[k] = _distinct(dist2(m[iu], m[iv]) for m in sub.maps)

    sites = _site_table(field)
    o0, o1 = order.order[0], order.order[1]
    images[o0], images[o1] = sites.origin

    def place(k: int, off_axis_fixed: bool):
        if stats["truncated"]:
            return
        if k == n:
            maps.append(tuple(images))
            return
        v = order.order[k]
        step = order.clusters[k]
        if step is None:
            pair = sites.anchor_pair([images[a] for a in order.anchors[k]])
            if pair is None:
                raise NotAnchored(
                    "all anchor images coincide while placing a vertex; "
                    "candidate positions form a whole circle and cannot be enumerated"
                )
            candidates = sites.meet(*pair)
        else:
            u, w = images[step.u], images[step.w]
            candidates = [c for r in radii[k] for c in sites.meet(u, w, r)]
        if not candidates:
            stats["pruned"] += 1
            return
        for cand in candidates:
            sign_y = sites.y_sign[cand]
            if not naive and not off_axis_fixed and sign_y < 0:
                # mirror image of the positive-y branch, not a contradiction
                continue
            stats["nodes"] += 1
            if branch_limit is not None and stats["nodes"] > branch_limit:
                stats["truncated"] = True
                return
            if not naive and not all(sites.unit(cand, images[a])
                                         for a in order.anchors[k]):
                stats["pruned"] += 1
                continue
            images[v] = cand
            place(k + 1, off_axis_fixed or sign_y != 0)
            images[v] = None
            if stats["truncated"]:
                return

    place(2, False)
    # lexicographic by the images' float coordinates; the sort is stable
    points, float_pair = sites.points, sites.float_pair
    maps.sort(key=lambda m: tuple(map(float_pair, m)))
    return UnitMapResult(tuple(tuple(points[s] for s in m) for m in maps),
                         stats["nodes"], stats["pruned"], stats["truncated"])


@dataclass(frozen=True)
class CertReport:
    """Outcome of a deviation certification run.

    certified is equivalent to max_deviation <= epsilon; a counterexample
    (the lexicographically least violating image vector) is present exactly
    when certification fails.
    """

    certified: bool
    epsilon: object
    max_deviation: object
    branch_count: int
    counterexample: tuple
    pruned_contradictions: int
    map_count: int
    backend: str  # always "exact"; reports and bench/ still read it


def _locate(T: PointSet, p) -> int:
    if isinstance(p, int):
        if not 0 <= p < len(T):
            raise ValueError(f"index {p} out of range")
        return p
    i = T.index_of(p)
    if i < 0:
        raise ValueError("point not in the set")
    return i


def _epsilon(epsilon) -> QScalar:
    """epsilon as a QScalar, refused unless it is an exact scalar >= 0."""
    eps = _normalize_coord(epsilon)
    if eps.sign() < 0:
        raise ValueError(f"epsilon must be at least 0, got {eps}")
    return eps


def bq_certify(T: PointSet, x, y, epsilon,
               branch_limit: int = DEFAULT_BRANCH_LIMIT) -> CertReport:
    """Certify that every unit-preserving map of T moves the x-y distance
    by at most epsilon.

    A float epsilon raises MixedBackend, any other non-scalar TypeError,
    and a negative epsilon or branch limit ValueError, each before any
    enumeration.  A T whose maps leave the field generated by sqrt(3) and
    its coordinates raises NotRepresentable, and a truncated enumeration
    raises BudgetExhausted: certifying from a partial map list would be
    unsound.
    """
    xi = _locate(T, x)
    yi = _locate(T, y)
    eps = _epsilon(epsilon)
    b2 = dist2(T[xi], T[yi])
    result = enumerate_unit_maps(T, branch_limit=branch_limit)
    if result.truncated:
        raise BudgetExhausted(
            f"enumeration exceeded branch limit {branch_limit}",
            partial=result,
        )
    worst_a2 = None
    counterexample = None
    # maps share the Point of each site, so one decision per pair of image
    # objects; result.maps keeps every one alive, so no id() is reused
    seen = {}
    for images in result.maps:
        key = (id(images[xi]), id(images[yi]))
        within = seen.get(key)
        if within is None:
            a2 = dist2(images[xi], images[yi])
            if worst_a2 is None or compare_deviation(a2, worst_a2, b2) > 0:
                worst_a2 = a2
            within = seen[key] = sqrt_diff_within(a2, b2, eps)
        # the maps come sorted, so the first violator is the least
        if not within and counterexample is None:
            counterexample = images
    max_dev = deviation_value(worst_a2, b2) if worst_a2 is not None else None
    return CertReport(
        certified=counterexample is None,
        epsilon=eps,
        max_deviation=max_dev,
        branch_count=result.nodes,
        counterexample=counterexample,
        pruned_contradictions=result.pruned,
        map_count=len(result.maps),
        backend="exact",
    )


def naive_unit_maps(T: PointSet, order: PlacementOrder = None,
                    branch_limit: int = DEFAULT_BRANCH_LIMIT) -> set:
    """Independent oracle: enumerate without mirror normalization, validate
    every unit edge at each leaf, and canonicalize modulo reflection.

    Returns the set of canonical map keys; the normalized engine must
    produce exactly the same set (criterion: completeness of enumeration).
    Only the two intersection anchors constrain a placement; every other
    unit edge is checked at the leaves, never through the engine's site
    table: the edges come from plane.unit_graph, not unit_edges, and a
    missing order is the greedy's over those edges, not the table's kept
    one.  No kept enumeration is read either.  The branch limit counts and
    is refused as in enumerate_unit_maps.  A cluster step is shared with
    the engine, radii and candidates alike, so for glued figures the
    oracle checks pruning and mirroring only.
    """
    _check_branch_limit(branch_limit)
    edges = unit_graph(T)
    if order is None:
        order = _greedy_order(len(T), edges)
    raw = _enumerate(len(T), order, branch_limit, _field_of(T), naive=True)
    if raw.truncated:
        raise BudgetExhausted("naive enumeration exceeded its branch limit", partial=raw)
    # maps share the Point of each position, so one decision per pair of
    # image objects; raw.maps keeps every one alive, so no id() is reused
    seen = {}

    def unit(p: Point, q: Point) -> bool:
        key = (id(p), id(q))
        got = seen.get(key)
        if got is None:
            got = seen[key] = is_unit(p, q)
        return got

    out = set()
    for images in raw.maps:
        if all(unit(images[i], images[j]) for i, j in edges):
            out.add(canonical_map_key(images))
    return out


def canonical_map_key(images) -> tuple:
    """Map key invariant under reflection about the x axis: the exact
    (x, y) of each image, or of each image's mirror when that tuple is the
    lesser in exact order."""
    plain = tuple((p.x, p.y) for p in images)
    mirrored = tuple((p.x, -p.y) for p in images)
    return min(plain, mirrored)


# ---------------------------------------------------------------------------
# gadget library


@dataclass(frozen=True)
class Gadget:
    kind: str
    points: PointSet
    labels: tuple

    def labeled_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise ValueError(f"gadget {self.kind} has no point named {name!r}") from None


def gadget_triangle_extension() -> Gadget:
    """Unit edge plus its lexicographically smaller apex: 3 points, 3 edges."""
    apex = circle_intersect(P0, 1, P1, 1)[0]
    return Gadget("triangle-extension", PointSet([P0, P1, apex]), ("A", "B", "C"))


def gadget_rhombus() -> Gadget:
    """Two unit triangles glued along P0-P1: 4 points, 5 edges.

    Labels follow the long diagonal: A and D are the apexes at distance
    sqrt(3), B and C the shared edge.
    """
    a, d = circle_intersect(P0, 1, P1, 1)
    return Gadget("rhombus", PointSet([a, P0, P1, d]), ("A", "B", "C", "D"))


def gadget_chain(n: int = 1) -> Gadget:
    """n+1 collinear points at unit spacing from the origin along the x axis."""
    if n < 1:
        raise ValueError("chain needs n >= 1")
    pts = [Point(j, 0) for j in range(n + 1)]
    labels = tuple(chr(ord("A") + j) for j in range(n + 1))
    return Gadget("chain", PointSet(pts), labels)


_SPINDLE_LABELS = ("A", "B", "C", "D", "E", "F", "G")


def gadget_moser_spindle() -> Gadget:
    """The 7-point, 11-edge spindle: two rhombi hinged at A with the far
    apexes D and G at unit distance.

    The hinge rotation has cosine 5/6 and sine sqrt(11)/6, so with A at
    the origin D = (sqrt(11)/2, -1/2) and G = (sqrt(11)/2, 1/2).  The
    coordinates lie in Q(sqrt(3), sqrt(11)).
    """
    dx = QScalar(ext=((11, Fraction(1, 2)),))
    pts = [P0]
    for dy in (Fraction(-1, 2), Fraction(1, 2)):
        # side vertices: midpoint of A-D shifted along the perpendicular by
        # 1/(2 sqrt(3)) = sqrt(3)/6 of A-D
        px, py = -dy * SQRT3 / 6, dx * SQRT3 / 6
        mx, my = dx / 2, dy / 2
        pts += [Point(mx + px, my + py), Point(mx - px, my - py), Point(dx, dy)]
    return Gadget("moser-spindle", PointSet(pts), _SPINDLE_LABELS)


def gadget(kind: str, **kwargs) -> Gadget:
    """Dispatch by CLI-facing gadget name."""
    if kind == "triangle-extension":
        return gadget_triangle_extension(**kwargs)
    if kind == "rhombus":
        return gadget_rhombus(**kwargs)
    if kind == "chain":
        return gadget_chain(**kwargs)
    if kind == "moser-spindle":
        return gadget_moser_spindle(**kwargs)
    raise ValueError(f"unknown gadget kind {kind!r}")


# ---------------------------------------------------------------------------
# witness growth


@dataclass(frozen=True)
class GrowResult:
    points: PointSet
    report: CertReport
    strategy: str


def _apexes(u: Point, v: Point) -> list:
    """The common unit neighbors of distinct points u and v, read from
    the meet of their sites in the Q(sqrt(3)) table: circle_intersect's
    default field, so the same points in the same order, and the same
    NotRepresentable, as intersecting the unit circles about u and v."""
    table = _site_table(Q_SQRT3)
    return [table.points[c] for c in table.meet(table.site(u), table.site(v))]


def _braced(vs) -> PointSet:
    """The vertices vs plus both common unit neighbors of each hop."""
    pts = list(vs)
    for u, v in zip(vs, vs[1:]):
        pts.extend(_apexes(u, v))
    return PointSet(pts)


def _rhombus(a: Point, d: Point) -> PointSet:
    """a and d with both common unit neighbors between them."""
    return PointSet([a, *_apexes(a, d), d])


def _integer_distance(x: Point, y: Point):
    """|x - y| when it is an integer >= 2, else None."""
    try:
        d = sqrt_exact(dist2(x, y))
    except NotRepresentable:
        return None
    if d.is_rational and d.a.denominator == 1 and d.a >= 2:
        return int(d.a)
    return None


def _strategies(x: Point, y: Point):
    """(name, build) of each strategy that applies to x and y, in order.

    Lazy: a later strategy's test runs only once the earlier ones failed.
    """
    d2 = dist2(x, y)
    if d2 == 1:
        yield "edge", lambda: PointSet([x, y])
    if d2 == 3:
        yield "rhombus", lambda: _rhombus(x, y)
    k = _integer_distance(x, y)
    if k is not None:
        yield "ladder", lambda: _braced(unit_hops(x, y, k, k))
    # last resort: brace every hop of a generic unit path
    yield "braced-path", lambda: _braced(unit_path(x, y))


def grow_witness(x: Point, y: Point, epsilon, budget: int = DEFAULT_BRANCH_LIMIT) -> GrowResult:
    """A point set containing x and y whose enumeration certifies the
    epsilon bound, grown from a small strategy library.

    Strategies, in order: the bare unit edge (deviation 0), the rhombus on
    a sqrt(3) pair (deviation sqrt(3)), the braced ladder on integer
    distances (deviation 1 for distance 2, growing with length), and a
    braced unit path as a last resort.  If nothing certifies, raises
    BudgetExhausted carrying the best (set, report) pair seen: the first
    of the least achieved deviation, genuinely the frontier of this
    library, not a search artifact.  If no strategy yields a report at
    all, re-raises the refusal of the last one tried (NotAnchored, say).
    epsilon and budget are refused as bq_certify refuses them, once and
    before any strategy builds a set.
    """
    if x == y:
        raise ValueError("witness growth requires x != y")
    _epsilon(epsilon)
    _check_branch_limit(budget)
    best = None
    refusal = None
    for name, build in _strategies(x, y):
        try:
            T = build()
            report = bq_certify(T, x, y, epsilon, branch_limit=budget)
        except (NotAnchored, NotRepresentable, ValueError, BudgetExhausted) as exc:
            refusal = exc
            continue
        if report.certified:
            return GrowResult(T, report, name)
        if best is None or float(report.max_deviation) < float(best.report.max_deviation):
            best = GrowResult(T, report, name)
    if best is None:
        raise refusal
    raise BudgetExhausted(
        f"no strategy certified epsilon {epsilon}; best deviation {best.report.max_deviation}",
        partial=best,
    )
