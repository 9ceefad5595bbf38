"""Product structures pairing a plane fragment with an orientation family,
plus the two witness constructions that separate product elements.

The product relation links (point i, member S) to (point j, member Z)
exactly when S = Z and S directs i toward j, so each member contributes a
disjoint fiber.  Separating (x, S) from (y, S) for x != y rides on a
distance certificate anchored at a triangle corner.  Separating (x, S)
from (x, Z) for S != Z needs an edge the two members orient oppositely,
and offers the whole S fiber as the witness.  Both constructions end in
a machine check: `verify_product_witness` does an exhaustive map search
and owes nothing to the geometric reasoning that predicted its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bq import GrowResult, grow_witness
from .errors import InconsistentDistances, NotRepresentable
from .numeric import (
    DEFAULT_TOL,
    SQRT3,
    FloatVal,
    Point,
    QScalar,
    deviation_value,
    dist2,
    points_equal,
    sqrt_diff_within,
)
from .phi import Orientation, OrientationFamily, orientation_from_bits
from .plane import TRIANGLE, PointSet, augment_tilde, unit_graph
from .relations import (
    RelStruct,
    WitnessSet,
    check_witness,
    enumerate_homs,
    is_connected_within,
)


@dataclass(frozen=True)
class ProductStruct:
    """Relational structure on points x members with fiberwise pairs."""

    base: PointSet
    family: OrientationFamily
    structure: RelStruct

    def element(self, point_idx: int, member_idx: int) -> int:
        n = len(self.base)
        if not (0 <= point_idx < n and 0 <= member_idx < len(self.family)):
            raise ValueError("element coordinates out of range")
        return member_idx * n + point_idx

    def decode(self, e: int) -> tuple:
        n = len(self.base)
        return (e % n, e // n)

    def fiber_of(self, e: int) -> int:
        return e // len(self.base)


def build_product(X: PointSet, J) -> ProductStruct:
    """Product structure over X and a family J (list or OrientationFamily)."""
    if not isinstance(J, OrientationFamily):
        J = OrientationFamily(X, tuple(J))
    if J.base != X:
        raise ValueError("family base differs from the product base")
    n = len(X)
    pairs = []
    labels = []
    for s, member in enumerate(J.members):
        pairs.extend((s * n + i, s * n + j) for (i, j) in member.pairs)
    for s in range(len(J.members)):
        for i in range(n):
            fx, fy = X[i].to_float_pair()
            labels.append(f"({fx:.3g},{fy:.3g})|S{s}")
    structure = RelStruct(n * len(J.members), tuple(pairs), tuple(labels))
    return ProductStruct(X, J, structure)


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
    """
    if S.base != Z.base:
        raise ValueError("orientations live over different bases")
    g = unit_graph(S.base)
    sp, zp = S.pair_set, Z.pair_set
    for i, j in g.edges:
        s_ij, s_ji = (i, j) in sp, (j, i) in sp
        z_ij, z_ji = (i, j) in zp, (j, i) in zp
        if s_ij and not s_ji and z_ji and not z_ij:
            return ConflictEdge(S.base[i], S.base[j], i, j)
        if s_ji and not s_ij and z_ij and not z_ji:
            return ConflictEdge(S.base[j], S.base[i], j, i)
    return None


def trilaterate(d0sq, d1sq, d2sq, tol: float = DEFAULT_TOL) -> Point:
    """The unique plane point at given squared distances from p0, p1, p2.

    The three anchors are not collinear, so the two distance differences
    fix the point linearly; the remaining residual against d0sq decides
    consistency.
    """
    vals = (d0sq, d1sq, d2sq)
    if any(isinstance(v, (FloatVal, float)) for v in vals):
        ds = [v if isinstance(v, FloatVal) else FloatVal(float(v), tol) for v in vals]
        t = max(d.tol for d in ds)
        sqrt3 = FloatVal(math.sqrt(3.0), t)
        d0, d1, d2 = ds
    else:
        coerced = [QScalar._coerce(v) for v in vals]
        if any(c is None for c in coerced):
            raise TypeError("trilaterate needs scalar squared distances")
        d0, d1, d2 = coerced
        sqrt3 = SQRT3
    x = (d0 - d1 + 1) / 2
    y = (d0 - d2 + 1 - x) / sqrt3
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
    grows a set certifying that distance to within half the gap, connects
    it up, and crosses with a single canonical orientation.  The witness
    then contains x, the triangle, and the certificate set; the target y
    only joins the ambient universe.  x and y are exact; a gap with no
    exact value (see deviation_value) raises NotRepresentable.
    """
    if points_equal(x, y):
        raise ValueError("witness construction requires x != y")
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
    connected = augment_tilde(grow.points, x)
    witness_points = PointSet(list(TRIANGLE) + list(connected))
    universe = witness_points.with_points([y])

    S = orientation_from_bits(universe, 0)
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
    src = P.element(xi, 0)
    tgt = P.element(xi, 1)
    return Case2Witness(
        product=P,
        witness=WitnessSet(tuple(P.element(i, 0) for i in range(len(X))), src, tgt),
        src=src,
        tgt=tgt,
        conflict=conflict,
        whole_fiber=True,
    )


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    counterexample: dict
    fiber_consistent: bool
    maps_checked: int

    def __bool__(self):
        return self.valid


def verify_product_witness(P: ProductStruct, witness: WitnessSet,
                           enumerate_all: bool = False) -> VerifyResult:
    """Exhaustive check that no pair-preserving map of the witness sends
    src to tgt, plus a fiber-decomposition audit of any maps found.

    For a witness connected inside the product graph every counterexample
    must land in a single fiber; finding one that straddles fibers would
    indicate an engine bug, so it is surfaced via fiber_consistent=False.
    """
    first = check_witness(P.structure, witness)
    if first.valid:
        return VerifyResult(True, None, True, 0)
    connected = is_connected_within(P.structure, witness.subset)
    maps = [first.counterexample]
    if enumerate_all:
        sub = witness.subset
        induced = P.structure.restrict(sub)
        pos = {v: k for k, v in enumerate(sub)}
        result = enumerate_homs(induced, P.structure, pin={pos[witness.x]: witness.y})
        maps = [
            {sub[k]: vec[k] for k in range(len(sub))}
            for vec in result.maps
        ]
    fiber_ok = True
    if connected:
        for m in maps:
            fibers = {P.fiber_of(img) for img in m.values()}
            if len(fibers) > 1:
                fiber_ok = False
    return VerifyResult(False, first.counterexample, fiber_ok, len(maps))
