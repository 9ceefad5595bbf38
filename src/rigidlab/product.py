"""Product structures pairing a plane fragment with an orientation family,
plus the two witness constructions that separate product elements.

The product relation links (point i, member S) to (point j, member Z)
exactly when S = Z and S directs i toward j, so each member contributes a
disjoint fiber.  Separating (x, S) from (y, S) for x != y rides on a
distance certificate anchored at a triangle corner.  Separating (x, S)
from (x, Z) for S != Z needs an edge the two members orient oppositely,
and offers the whole S fiber as the witness.  Both constructions end in
a machine check, `verify_product_witness`, an exhaustive map search that
owes nothing to the geometric reasoning that predicted its verdict.

That search never builds the product.  Since no pair joins two fibers, a
witness W is judged by the component of x alone, and that component lies
in one fiber and maps into one fiber: checking W in the product is one
search from the member holding x into the member holding y, by
`relations.component_map`, whose docstring gives the proof.  The
product's relational structure is built only when it is read, as by the
`product` writers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bq import GrowResult, _epsilon, grow_witness, unit_edges
from .errors import InconsistentDistances, NotRepresentable
from .numeric import (
    SQRT3,
    Point,
    QScalar,
    _normalize_coord,
    deviation_value,
    dist2,
    sqrt_diff_within,
)
from .phi import Orientation, OrientationFamily, _admissible, _forced_pairs, _norm_edge
from .plane import TRIANGLE, PointSet
from .relations import RelStruct, WitnessCheck, WitnessSet, component_map


@dataclass(frozen=True)
class ProductStruct:
    """Points x members with fiberwise pairs: element (point i, member s)
    is s * len(base) + i, so fiber s is the len(base) consecutive elements
    from element(0, s), point i at element(0, s) + i.  Other code reads
    the encoding only through element, decode and that fiber layout."""

    base: PointSet
    family: OrientationFamily

    @cached_property
    def structure(self) -> RelStruct:
        """The product's relational structure, built on first read."""
        n = len(self.base)
        pairs = []
        for s, member in enumerate(self.family.members):
            pairs += [(s * n + i, s * n + j) for i, j in member.pairs]
        # each member's pairs are sorted, unique and in range, and fiber s
        # holds the elements s * n .. s * n + n - 1, so the product's are too
        return RelStruct(n * len(self.family), tuple(pairs), canonical=True)

    def element(self, point_idx: int, member_idx: int) -> int:
        n = len(self.base)
        if not (0 <= point_idx < n and 0 <= member_idx < len(self.family)):
            raise ValueError("element coordinates out of range")
        return member_idx * n + point_idx

    def decode(self, e: int) -> tuple:
        n = len(self.base)
        return (e % n, e // n)


def build_product(X: PointSet, J) -> ProductStruct:
    """Product structure over X and a family J (list or OrientationFamily)."""
    if not isinstance(J, OrientationFamily):
        J = OrientationFamily(X, tuple(J))
    if J.base != X:
        raise ValueError("family base differs from the product base")
    return ProductStruct(X, J)


@dataclass(frozen=True)
class ConflictEdge:
    """Unit edge oriented one way by S and the opposite way by Z."""

    u: Point
    v: Point
    ui: int
    vi: int


def find_conflict_edge(S: Orientation, Z: Orientation) -> ConflictEdge:
    """Lexicographically first unit edge on which S and Z disagree, or None.

    Disagreement means singly oriented in both members, in opposite
    directions; the doubled triangle pairs can never conflict.

    The edges are read off S itself, with no distance computed: every
    Orientation is admissible, checked when built from given pairs and by
    construction otherwise.  The union clause says that S and Z each
    direct every unit edge of the base at least one way, and the doubled
    clause that both double the same two triangle edges and no other.
    A pair (i, j) of S missing from Z is thus directed j -> i alone by Z,
    and i -> j alone by S, since S doubles no edge Z leaves single: the
    pairs of S minus those of Z are exactly the conflict edges, each
    directed as S directs it.  The least (min(i, j), max(i, j)) among them
    comes first in the sorted order of the base's unit edges.

    Those pairs are read off the members' masks: the pairs of S minus Z
    leaving i are succ_S[i] & ~succ_Z[i], and those entering i
    pred_S[i] & ~pred_Z[i].  The least edge's lower end a is the least
    element on any of them, since every conflict edge at a then goes up
    from it, and its upper end is the least element a shares one with.
    """
    if S.base != Z.base:
        raise ValueError("orientations live over different bases")
    _, succ_s, pred_s = S.relstruct()._adjacency
    _, succ_z, pred_z = Z.relstruct()._adjacency
    for a in range(len(succ_s)):
        out = succ_s[a] & ~succ_z[a]
        ends = out | pred_s[a] & ~pred_z[a]
        if ends:
            low = ends & -ends
            b = low.bit_length() - 1
            i, j = (a, b) if out & low else (b, a)
            return ConflictEdge(S.base[i], S.base[j], i, j)
    return None


def trilaterate(d0sq, d1sq, d2sq) -> Point:
    """The unique plane point at given exact squared distances from p0, p1,
    p2; a float distance raises MixedBackend, any other non-scalar
    TypeError.

    The three anchors are not collinear, so the two distance differences
    fix the point linearly; the remaining residual against d0sq decides
    consistency.
    """
    d0, d1, d2 = (_normalize_coord(v) for v in (d0sq, d1sq, d2sq))
    x = (d0 - d1 + 1) / 2
    y = (d0 - d2 + 1 - x) / SQRT3
    if not (x * x + y * y == d0):
        raise InconsistentDistances(
            "squared distances admit no common point "
            f"(residual against d0sq at x={x}, y={y})"
        )
    return Point(x, y)


@dataclass(frozen=True)
class Case1Witness:
    """Separates (x, S) from (y, S) inside a one-member product."""

    product: ProductStruct
    witness: WitnessSet
    src: int
    tgt: int
    anchor_index: int
    epsilon: object
    grow: GrowResult
    strict_exclusion: bool


def witness_case1(x: Point, y: Point, epsilon=None,
                  budget: int = 500_000) -> Case1Witness:
    """Build and package a witness separating x from y.

    Picks the first triangle corner whose distances to x and y differ,
    grows a set certifying that distance to within half the gap, and
    crosses the triangle plus that set with a single canonical
    orientation; the target y only joins the ambient universe.  The set
    needs no connecting unit paths: it holds x, since bq_certify measured
    x in it, and its unit graph is connected, since placement_order
    raises NotAnchored on any other, so x already reaches all of it.  x
    and y are exact; a gap with no exact value (see deviation_value)
    raises NotRepresentable.  A given epsilon is refused as bq_certify
    refuses it, before any growth.
    """
    if x == y:
        raise ValueError("witness construction requires x != y")
    if epsilon is not None:
        epsilon = _epsilon(epsilon)
    anchor_index = next((i for i, corner in enumerate(TRIANGLE)
                         if dist2(corner, x) != dist2(corner, y)), -1)
    if anchor_index < 0:
        raise ValueError("x and y are equidistant from all three anchors")
    anchor = TRIANGLE[anchor_index]

    if epsilon is None:
        a2, b2 = dist2(anchor, x), dist2(anchor, y)
        gap = deviation_value(a2, b2)
        if not isinstance(gap, QScalar):
            raise NotRepresentable(f"the case-1 gap |sqrt({a2}) - sqrt({b2})| has no exact value")
        epsilon = gap / 2

    grow = grow_witness(anchor, x, epsilon, budget=budget)
    witness_points = PointSet(list(TRIANGLE) + list(grow.points))
    universe = witness_points.with_points([y])

    # bits 0, every free edge low to high: the first orientation that
    # all_orientations lists, admissible by construction, its unit edges
    # read from the site table that grow_witness's enumerations filled
    forced = _forced_pairs(universe)
    triangle = {_norm_edge(i, j) for i, j in forced}
    free = tuple(e for e in unit_edges(universe) if e not in triangle)
    S = _admissible(universe, forced, free, 0)
    P = build_product(universe, OrientationFamily(universe, (S,)))
    elements = tuple(sorted(
        P.element(universe.index_of(p), 0) for p in witness_points
    ))
    src = P.element(universe.index_of(x), 0)
    tgt = P.element(universe.index_of(y), 0)
    strict = not sqrt_diff_within(dist2(anchor, y), dist2(anchor, x), epsilon)
    return Case1Witness(
        product=P,
        witness=WitnessSet(elements, src, tgt),
        src=src,
        tgt=tgt,
        anchor_index=anchor_index,
        epsilon=epsilon,
        grow=grow,
        strict_exclusion=strict,
    )


@dataclass(frozen=True)
class Case2Witness:
    """Separates (x, S) from (x, Z) for two members conflicting on an edge."""

    product: ProductStruct
    witness: WitnessSet
    src: int
    tgt: int
    conflict: ConflictEdge
    whole_fiber: bool


def witness_case2(x: Point, S: Orientation, Z: Orientation) -> Case2Witness:
    """Build and package a witness separating (x, S) from (x, Z).

    Finds the edge S and Z orient oppositely, which is what makes the two
    members distinguishable, and offers the whole S fiber as the witness.
    That fiber is not always a witness: for some orientation pairs of a
    finite fragment an endomorphism of the whole product already sends
    (x, S) to (x, Z), so no witness exists there and
    verify_product_witness reports the counterexample.
    """
    X = S.base
    if Z.base != X:
        raise ValueError("orientations live over different bases")
    xi = X.index_of(x)
    if xi < 0:
        raise ValueError("x must belong to the shared base")
    conflict = find_conflict_edge(S, Z)
    if conflict is None:
        raise ValueError("orientations agree on every singly-oriented edge")
    P = build_product(X, OrientationFamily(X, (S, Z)))
    src, tgt = P.element(xi, 0), P.element(xi, 1)
    return Case2Witness(
        product=P,
        # fiber 0, whose point xi is src
        witness=WitnessSet(range(src - xi, src - xi + len(X)), src, tgt),
        src=src,
        tgt=tgt,
        conflict=conflict,
        whole_fiber=True,
    )


def verify_product_witness(P: ProductStruct, witness: WitnessSet) -> WitnessCheck:
    """Exhaustive check that no map of the witness into the product sends
    x to y while preserving the product pairs inside the witness.

    The product is never built.  It is the disjoint union of its fibers,
    fiber t a copy of member t, and x's component within W lies in x's
    fiber s.  So by component_map's lemma the check is component_map
    from member s into member t, on W's part of fiber s, with x's point
    pinned to y's; when that component is all of W, the search and its
    first map are those of the search in the product.  A counterexample
    is reported in product elements: the component's images in fiber t,
    and every other element of W fixed.  An element of W or a y outside
    the product raises ValueError.
    """
    n = len(P.base)
    size = n * len(P.family)
    sub = witness.subset
    # subset is sorted, so its ends bound it
    for e in (sub[0], sub[-1]):
        if not 0 <= e < size:
            raise ValueError(f"index {e} out of range for n={size}")
    if not 0 <= witness.y < size:
        raise ValueError(f"target {witness.y} out of range for n={size}")
    xi, s = P.decode(witness.x)
    yi, t = P.decode(witness.y)
    lo = witness.x - xi  # fiber s's first element
    within = sum(1 << e - lo for e in sub if lo <= e < lo + n)
    members = P.family.members
    h = component_map(members[s].relstruct(), members[t].relstruct(), within, xi, yi)
    if h is None:
        return WitnessCheck(True)
    top = witness.y - yi  # fiber t's first element
    image = {lo + i: top + a for i, a in h.items()}
    return WitnessCheck(False, {e: image.get(e, e) for e in sub})
