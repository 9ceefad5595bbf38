"""Finite plane fragments: point sets, the base triangle, the triangular
lattice, induced unit-distance graphs, unit paths and connectivity repair.

The base triangle p0=(0,0), p1=(1,0), p2=(1/2, sqrt(3)/2) is the fixed
frame all orientation machinery is anchored to.  All three corners are
triangular-lattice points, so lattice balls of radius >= 1 contain them
automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MissingTriangle
from .numeric import (
    FloatVal,
    Point,
    QScalar,
    circle_intersect,
    dist2,
    is_unit,
    points_equal,
    scalar_sign,
    sqrt_exact,
)

P0 = Point(QScalar(0), QScalar(0))
P1 = Point(QScalar(1), QScalar(0))
P2 = Point(QScalar(Fraction(1, 2)), QScalar(0, Fraction(1, 2)))

TRIANGLE = (P0, P1, P2)


def _exact_key(p: Point) -> tuple:
    """Index key of an exact point: its coefficients, beyond-sqrt(3) terms
    only when present, so Q(sqrt(3)) points keep their four-Fraction key."""
    x, y = p.x, p.y
    if x.ext or y.ext:
        return (x.a, x.b, y.a, y.b, x.ext, y.ext)
    return (x.a, x.b, y.a, y.b)


class PointSet:
    """Ordered collection of distinct points sharing one backend.

    Insertion order is preserved and is the identity of each point (id by
    index).  Duplicates are dropped first-wins; on the float backend two
    points within tol of each other count as duplicates.
    """

    __slots__ = ("points", "_exact_index")

    def __init__(self, points):
        seen = []
        exact_index = {}
        backend = None
        for p in points:
            if not isinstance(p, Point):
                raise TypeError(f"not a Point: {p!r}")
            if backend is None:
                backend = p.backend
            elif p.backend != backend:
                from .errors import MixedBackend

                raise MixedBackend("point set mixes exact and float points")
            if backend == "exact":
                key = _exact_key(p)
                if key in exact_index:
                    continue
                exact_index[key] = len(seen)
                seen.append(p)
            else:
                if any(points_equal(p, q) for q in seen):
                    continue
                seen.append(p)
        self.points = tuple(seen)
        self._exact_index = exact_index

    @property
    def backend(self) -> str:
        if not self.points:
            return "exact"
        return self.points[0].backend

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i) -> Point:
        return self.points[i]

    def index_of(self, p: Point) -> int:
        """Index of a point, or -1 when absent."""
        if self.backend == "exact" and p.backend == "exact":
            return self._exact_index.get(_exact_key(p), -1)
        for i, q in enumerate(self.points):
            if points_equal(p, q):
                return i
        return -1

    def __contains__(self, p: Point) -> bool:
        return self.index_of(p) >= 0

    def with_points(self, extra) -> "PointSet":
        """New PointSet extending this one (duplicates dropped)."""
        return PointSet(list(self.points) + list(extra))

    def subset(self, indices) -> "PointSet":
        return PointSet([self.points[i] for i in indices])

    def triangle_indices(self) -> tuple:
        """Indices of p0, p1, p2, or raise MissingTriangle."""
        idx = tuple(self.index_of(p) for p in TRIANGLE)
        if any(i < 0 for i in idx):
            missing = [f"p{k}" for k, i in enumerate(idx) if i < 0]
            raise MissingTriangle(f"point set lacks {', '.join(missing)}")
        return idx

    def contains_triangle(self) -> bool:
        return all(self.index_of(p) >= 0 for p in TRIANGLE)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return len(self) == len(other) and all(
            points_equal(p, q) for p, q in zip(self.points, other.points)
        )

    def __repr__(self):
        return f"PointSet({len(self.points)} points, {self.backend})"


@dataclass(frozen=True)
class UnitGraph:
    """Undirected unit-distance graph induced on a PointSet."""

    base: PointSet
    edges: tuple  # sorted (i, j) pairs with i < j

    def neighbors(self, i: int) -> tuple:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return tuple(sorted(out))

    def adjacency(self) -> list:
        adj = [[] for _ in range(len(self.base))]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return [sorted(x) for x in adj]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def unit_graph(ps: PointSet) -> UnitGraph:
    """All unit-distance pairs of a point set, deterministically ordered."""
    edges = []
    pts = ps.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if is_unit(pts[i], pts[j]):
                edges.append((i, j))
    return UnitGraph(ps, tuple(edges))


def components(g) -> list:
    """Connected components of a UnitGraph or PointSet as sorted index
    lists, ordered by least member."""
    if isinstance(g, PointSet):
        g = unit_graph(g)
    adj = g.adjacency()
    n = len(g.base)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g) -> bool:
    return len(components(g)) <= 1


def hex_distance(a: int, b: int) -> int:
    """Graph distance from the origin in axial lattice coordinates."""
    return max(abs(a), abs(b), abs(a + b))


def lattice_point(a: int, b: int) -> Point:
    """Triangular-lattice point a*(1,0) + b*(1/2, sqrt(3)/2), exact."""
    return Point(QScalar(Fraction(2 * a + b, 2)), QScalar(0, Fraction(b, 2)))


def lattice_coords(p: Point):
    """Inverse of lattice_point for exact points; None when off-lattice."""
    if p.backend != "exact" or p.x.ext or p.y.ext:
        return None
    if p.y.a != 0:
        return None
    b2 = 2 * p.y.b
    if b2.denominator != 1:
        return None
    b = int(b2)
    if p.x.b != 0:
        return None
    a2 = p.x.a - Fraction(b, 2)
    if a2.denominator != 1:
        return None
    return (int(a2), b)


def lattice_ball(radius: int, include_triangle: bool = False) -> PointSet:
    """Triangular-lattice points within graph distance `radius` of the origin.

    Points are ordered shell by shell, each shell sorted by axial (a, b), so
    lattice_ball(r) is a prefix of lattice_ball(r+1).  For radius >= 1 the
    base triangle is already inside; include_triangle forces it in even at
    radius 0.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    coords = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            d = hex_distance(a, b)
            if d <= radius:
                coords.append((d, a, b))
    coords.sort()
    pts = [lattice_point(a, b) for (_, a, b) in coords]
    if include_triangle:
        pts.extend(TRIANGLE)
    return PointSet(pts)


def base_triangle() -> PointSet:
    return PointSet(TRIANGLE)


@dataclass(frozen=True)
class UnitPath:
    """Sequence of points with consecutive unit distances."""

    vertices: tuple

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        for a, b in zip(vs, vs[1:]):
            if not is_unit(a, b):
                raise ValueError("consecutive path points must be unit distance apart")

    @property
    def m(self) -> int:
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


_HEX_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _lattice_walk(frm_ab, to_ab) -> list:
    a, b = frm_ab
    ta, tb = to_ab
    out = [(a, b)]
    while (a, b) != (ta, tb):
        d = hex_distance(a - ta, b - tb)
        for da, db in _HEX_STEPS:
            if hex_distance(a + da - ta, b + db - tb) < d:
                a, b = a + da, b + db
                out.append((a, b))
                break
        else:  # hex distance always admits a decreasing step
            raise AssertionError("lattice walk stalled")
    return out


def _apex_between(u: Point, v: Point) -> Point:
    """Lexicographically smaller point at unit distance from both u and v."""
    hits = circle_intersect(u, 1, v, 1)
    if not hits:
        raise ValueError("points too far apart for a shared unit apex")
    return hits[0]


def unit_path(frm: Point, to: Point) -> UnitPath:
    """A unit path from `frm` to `to`.

    Strategy: trivial cases first, then a single shared apex while the gap
    allows one, then lattice walks when both endpoints are lattice points,
    and finally a straight chain of unit hops capped by an apex.  On the
    exact backend the chain needs the gap length itself to lie in the
    field, otherwise NotRepresentable propagates.
    """
    if points_equal(frm, to):
        return UnitPath((frm,))
    d2 = dist2(frm, to)
    if d2 == 1:
        return UnitPath((frm, to))
    if scalar_sign(d2 - 4) <= 0:
        return UnitPath((frm, _apex_between(frm, to), to))
    fa = lattice_coords(frm)
    ta = lattice_coords(to)
    if fa is not None and ta is not None:
        walk = _lattice_walk(fa, ta)
        return UnitPath(tuple(lattice_point(a, b) for a, b in walk))
    # straight chain: k unit hops toward the target, then one apex pair
    if frm.backend == "exact":
        d = sqrt_exact(d2)  # NotRepresentable propagates by design
        k = math.ceil(d) - 2
    else:
        d = FloatVal(math.sqrt(d2.value), d2.tol)
        # remainder d - k lands in (1, 2], so the final apex always exists
        k = math.ceil(d.value) - 2
    ux = (to.x - frm.x) / d
    uy = (to.y - frm.y) / d
    chain = [frm]
    for j in range(1, k + 1):
        chain.append(Point(frm.x + j * ux, frm.y + j * uy))
    chain.append(_apex_between(chain[-1], to))
    chain.append(to)
    return UnitPath(tuple(chain))


def augment_tilde(T: PointSet, x: Point) -> PointSet:
    """Extend T with unit paths so the unit graph on the result is connected
    and every original point reaches x inside the result.

    Already-connected inputs come back unchanged apart from x being added.
    """
    working = T.with_points([x])
    while True:
        g = unit_graph(working)
        comps = components(g)
        if len(comps) <= 1:
            return working
        xi = working.index_of(x)
        extra = []
        for comp in comps:
            if xi in comp:
                continue
            rep = working[comp[0]]
            path = unit_path(rep, x)
            extra.extend(path.vertices)
        # paths can only merge components toward x, so this terminates
        working = working.with_points(extra)
