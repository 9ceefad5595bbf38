"""Orientations of finite unit-distance graphs anchored at the base triangle.

An admissible orientation R of the unit graph on a point set must:

1. cover every unit edge in at least one direction (R union R-inverse = U),
2. double exactly the two triangle edges at p0 (both directions of p0p1
   and p0p2, nothing else), and
3. contain (p1, p2) in that direction.

Everything else is free: each remaining unit edge independently takes one
of its two directions, so a set with m unit edges has 2^(m-3) admissible
orientations.  Enumeration, counting and seeded sampling agree with each
other and with the checker by construction; `observation_verify` then
brute-forces the fixed-triangle and unit-preservation facts for maps
between two such orientations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from .errors import DuplicateMember, MissingTriangle, UsageError
from .numeric import is_unit
from .plane import PointSet, unit_graph
from .relations import RelStruct, enumerate_homs


@dataclass(frozen=True)
class Orientation:
    """Directed pair set over a base point set, admissible by construction."""

    base: PointSet
    pairs: tuple  # sorted ordered index pairs

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))
        report = check_phi(self.base, self.pairs)
        if not report.ok:
            raise ValueError(f"not an admissible orientation: {report.violation}")

    @cached_property
    def pair_set(self) -> frozenset:
        return frozenset(self.pairs)

    def relstruct(self) -> RelStruct:
        labels = tuple(_point_label(p) for p in self.base)
        return RelStruct(len(self.base), self.pairs, labels)

    def restrict(self, subset: PointSet) -> RelStruct:
        """Relational structure induced on a subset of the base points.

        Element k of the result is subset[k]; pairs survive when both ends
        lie in the subset.
        """
        idx = []
        for p in subset:
            i = self.base.index_of(p)
            if i < 0:
                raise ValueError("subset point not in orientation base")
            idx.append(i)
        pos = {v: k for k, v in enumerate(idx)}
        pr = [(pos[i], pos[j]) for (i, j) in self.pairs if i in pos and j in pos]
        labels = tuple(_point_label(p) for p in subset)
        return RelStruct(len(idx), tuple(pr), labels)

    def free_edges(self) -> tuple:
        """Unit edges not forced by the triangle, as sorted (i, j), i < j."""
        return _free_edges(self.base)

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.base == other.base and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)


def _point_label(p) -> str:
    x, y = p.to_float_pair()
    return f"({x:.3g},{y:.3g})"


def _norm_edge(i: int, j: int) -> tuple:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class PhiReport:
    ok: bool
    violation: str = None


def check_phi(base: PointSet, pairs) -> PhiReport:
    """Verify the three admissibility clauses; name the first violated one."""
    t0, t1, t2 = base.triangle_indices()
    pair_set = set((int(i), int(j)) for i, j in pairs)
    for i, j in pair_set:
        if not (0 <= i < len(base) and 0 <= j < len(base)):
            return PhiReport(False, f"pair ({i},{j}) out of range")

    g = unit_graph(base)
    unit_edges = set(g.edges)
    undirected = {_norm_edge(i, j) for i, j in pair_set}
    if undirected != unit_edges:
        return PhiReport(False, "union clause: directed pairs do not cover the unit edges exactly")

    doubled = {(i, j) for (i, j) in pair_set if (j, i) in pair_set}
    expected = {(t0, t1), (t1, t0), (t0, t2), (t2, t0)}
    if doubled != expected:
        return PhiReport(False, "doubled clause: two-way pairs must be exactly p0p1 and p0p2")

    if (t1, t2) not in pair_set:
        return PhiReport(False, "forced edge clause: (p1, p2) must be directed from p1 to p2")
    return PhiReport(True)


def _forced_pairs(base: PointSet) -> tuple:
    t0, t1, t2 = base.triangle_indices()
    return ((t0, t1), (t1, t0), (t0, t2), (t2, t0), (t1, t2))


def _free_edges(base: PointSet) -> tuple:
    t0, t1, t2 = base.triangle_indices()
    forced = {_norm_edge(t0, t1), _norm_edge(t0, t2), _norm_edge(t1, t2)}
    g = unit_graph(base)
    return tuple(e for e in g.edges if e not in forced)


def orientation_from_bits(base: PointSet, bits: int) -> Orientation:
    """Orientation selected by one bit per free edge.

    Free edges are taken in sorted order; bit k clear directs edge k low
    index to high index, bit k set reverses it.
    """
    free = _free_edges(base)
    if not 0 <= bits < (1 << len(free)):
        raise ValueError("bit vector out of range for the free edge count")
    pairs = list(_forced_pairs(base))
    for k, (i, j) in enumerate(free):
        if bits >> k & 1:
            pairs.append((j, i))
        else:
            pairs.append((i, j))
    return Orientation(base, tuple(pairs))


def count_orientations(base: PointSet) -> int:
    """2^(m-3) for m unit edges: every non-triangle edge flips freely."""
    if not base.contains_triangle():
        raise MissingTriangle("orientation counting needs the base triangle")
    return 1 << len(_free_edges(base))


def all_orientations(base: PointSet):
    """Deterministic generator over every admissible orientation."""
    free_count = len(_free_edges(base))
    for bits in range(1 << free_count):
        yield orientation_from_bits(base, bits)


def _sample_bits(seed: int, counter: int, free_edges) -> int:
    # one hash per (seed, sample counter, edge index): order-independent
    bits = 0
    for k in range(len(free_edges)):
        digest = hashlib.sha256(f"{seed}:{counter}:{k}".encode()).digest()
        bits |= (digest[0] & 1) << k
    return bits


def sample_orientations(base: PointSet, seed: int, k: int) -> list:
    """k distinct admissible orientations, reproducible from the seed."""
    free = _free_edges(base)
    total = 1 << len(free)
    if k > total:
        raise UsageError(f"requested {k} samples but only {total} orientations exist")
    out = []
    seen = set()
    counter = 0
    cap = 64 * k + 256
    while len(out) < k:
        if counter >= cap:
            # only reachable with pathological collision rates
            raise UsageError("sampling stalled; request fewer members")
        bits = _sample_bits(seed, counter, free) % total
        counter += 1
        if bits in seen:
            continue
        seen.add(bits)
        out.append(orientation_from_bits(base, bits))
    return out


@dataclass(frozen=True)
class OrientationFamily:
    """Nonempty list of distinct orientations over one shared base."""

    base: PointSet
    members: tuple
    name: str = "J"

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        from .errors import EmptyFamily

        if not members:
            raise EmptyFamily("orientation family needs at least one member")
        seen = set()
        for m in members:
            if m.base != self.base:
                raise ValueError("family member over a different base")
            if m.pairs in seen:
                raise DuplicateMember("family lists the same orientation twice")
            seen.add(m.pairs)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class ObservationReport:
    """Brute-force audit of maps between two oriented fragments.

    Every found homomorphism must fix the three triangle points and send
    unit-distance pairs to unit-distance pairs; a violation would mean the
    engine (not the mathematics) is broken.
    """

    hom_count: int
    triangle_fixed: bool
    units_preserved: bool
    violations: tuple
    truncated: bool

    @property
    def ok(self) -> bool:
        return self.triangle_fixed and self.units_preserved and not self.truncated


def observation_verify(X: PointSet, S: Orientation, Z: Orientation,
                       codomain: PointSet, hom_limit: int = None) -> ObservationReport:
    """Enumerate maps <X, S|X> -> <codomain, Z|codomain> and audit them."""
    src = S.restrict(X)
    dst = Z.restrict(codomain)
    tx = X.triangle_indices()
    tc = codomain.triangle_indices()
    result = enumerate_homs(src, dst, limit=hom_limit)
    violations = []
    tri_ok = True
    units_ok = True
    unit_pairs = [(i, j) for (i, j) in unit_graph(X).edges]
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
