"""The end-to-end verification grid.

Nine numbered criteria exercise the whole pipeline against independent
oracles: hom search vs brute force, orientation homomorphisms vs the
triangle-fixing and unit-preserving properties, distance certificates vs
hand-frozen fold deviations, placement enumeration vs a naive validator,
witness constructions vs exhaustive map search, trilateration roundtrips,
and byte-level determinism of the artifact tree.  Each criterion reports
one pass/fail line; timings appear in those lines and in summary.txt but
never inside the compared artifact directories.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time
from dataclasses import dataclass

from .bq import (
    bq_certify,
    canonical_map_key,
    enumerate_unit_maps,
    gadget,
    naive_unit_maps,
    placement_order,
)
from .errors import InconsistentDistances, NotAnchored, RigidlabError
from .export import (
    dumps_canonical,
    orientation_to_dot,
    orientation_to_json,
    pointset_to_json,
    pointset_to_svg,
    product_to_json,
    write_text_atomic,
)
from .numeric import SQRT3, Point, QScalar, dist2, point_to_float
from .phi import (
    Orientation,
    OrientationFamily,
    _forced_pairs,
    observation_verify,
    sample_orientations,
)
from .plane import _HEX_STEPS, P0, P1, P2, lattice_ball, lattice_point
from .product import (
    build_product,
    trilaterate,
    verify_product_witness,
    witness_case1,
    witness_case2,
)
from .relations import RelStruct, brute_force_homs, enumerate_homs, remark1_check


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index} [{self.name}]: {status}: "
                f"{self.detail} ({self.elapsed:.2f}s)")


def _timed(index, name, fn):
    start = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(index, name, passed, detail,
                           time.perf_counter() - start)


def _random_relstruct(rng: random.Random, n_max: int = 4) -> RelStruct:
    n = rng.randint(1, n_max)
    pairs = tuple(
        (i, j) for i in range(n) for j in range(n) if rng.random() < 0.35
    )
    return RelStruct(n, pairs)


def run_criterion_1(seed: int = 7) -> CriterionResult:
    """Hom engine agrees with the brute-force oracle on 300 random inputs."""
    def body():
        rng = random.Random(seed + 1)
        trials, mismatches = 300, 0
        for _ in range(trials):
            src = _random_relstruct(rng)
            dst = _random_relstruct(rng)
            fast = set(enumerate_homs(src, dst).maps)
            slow = set(brute_force_homs(src, dst))
            if fast != slow:
                mismatches += 1
        return mismatches == 0, (
            f"{trials - mismatches}/{trials} structures agree with brute force"
        )
    return _timed(1, "hom oracle equivalence", body)


def run_criterion_2(seed: int = 7) -> CriterionResult:
    """Every hom between sampled orientations of the radius-1 ball fixes the
    triangle and preserves unit distances."""
    def body():
        ps = lattice_ball(1)
        sampled = sample_orientations(ps, seed, 40)
        pair_list = list(zip(sampled[0::2], sampled[1::2]))
        homs, violations = 0, 0
        for S, Z in pair_list:
            rep = observation_verify(ps, S, Z, ps)
            homs += rep.hom_count
            violations += len(rep.violations)
        return violations == 0, (
            f"{len(pair_list)} orientation pairs, {homs} maps checked, "
            f"{violations} violations"
        )
    return _timed(2, "triangle and unit preservation", body)


def run_criterion_3(seed: int = 7) -> CriterionResult:
    """Exact certificates: seven-point spindle at epsilon 0, rhombus refusal
    at epsilon 1 with the fold deviation sqrt(3)."""
    def body():
        spindle_ok = False
        try:
            g = gadget("moser-spindle")
            a = g.points[g.labeled_index("A")]
            d = g.points[g.labeled_index("D")]
            rep = bq_certify(g.points, a, d, QScalar(0))
            spindle_ok = rep.certified and rep.max_deviation == QScalar(0)
            spindle_note = f"spindle certified={rep.certified}"
        except RigidlabError as exc:
            spindle_note = f"spindle: {exc}"

        g2 = gadget("rhombus")
        a2 = g2.points[g2.labeled_index("A")]
        d2 = g2.points[g2.labeled_index("D")]
        rep2 = bq_certify(g2.points, a2, d2, QScalar(1))
        rhombus_ok = (
            not rep2.certified
            and rep2.max_deviation == SQRT3
            and rep2.counterexample is not None
        )
        detail = (
            f"{spindle_note}; rhombus refused={not rep2.certified} "
            f"fold deviation == sqrt(3): {rep2.max_deviation == SQRT3}"
        )
        return spindle_ok and rhombus_ok, detail
    return _timed(3, "exact certificates", body)


def run_criterion_4(seed: int = 7) -> CriterionResult:
    """Normalized placement enumeration matches the naive oracle on every
    gadget, counting agreement-by-refusal when no anchored order exists."""
    def body():
        cases = [
            gadget("triangle-extension"),
            gadget("rhombus"),
            gadget("chain", n=1),
            gadget("chain", n=5),
            gadget("moser-spindle"),
        ]
        matched, refused, bad = 0, 0, []
        for g in cases:
            try:
                order = placement_order(g.points)
            except NotAnchored:
                # flexible or under-anchored figures are out of engine
                # scope; both engines share the order precondition
                refused += 1
                continue
            result = enumerate_unit_maps(g.points, order)
            naive = naive_unit_maps(g.points, order)
            keys = {canonical_map_key(m) for m in result.maps}
            if keys == naive and len(result.maps) == len(naive):
                matched += 1
            else:
                bad.append(g.kind)
        detail = (f"{matched} gadgets match the oracle, "
                  f"{refused} agreed unplaceable")
        if bad:
            detail += f", mismatches: {bad}"
        return not bad, detail
    return _timed(4, "enumeration completeness", body)


# axial coordinates of the six points at squared distance 3
_SQRT3_DIRS = ((1, 1), (-1, 2), (-2, 1), (-1, -1), (1, -2), (2, -1))


def _case1_pairs(seed: int) -> list:
    """Ten pairs with a guaranteed growth strategy at the half-gap epsilon.

    Families: x one unit from p0 (edge certificate), two units (braced
    ladder, deviation exactly 1), sqrt(3) (rhombus, deviation sqrt(3)).
    The partner y sits far out on the axis so the half gap clears each
    family's achievable deviation.
    """
    rng = random.Random(seed + 5)
    pairs = []
    for i in range(10):
        fam = "A" if i < 4 else ("B" if i < 7 else "C")
        k = rng.randrange(6)
        if fam == "A":
            a, b = _HEX_STEPS[k]
            x = lattice_point(a, b)
            m = rng.randrange(4, 10)
        elif fam == "B":
            a, b = _HEX_STEPS[k]
            x = lattice_point(2 * a, 2 * b)
            m = rng.randrange(4, 10)
        else:
            a, b = _SQRT3_DIRS[k]
            x = lattice_point(a, b)
            m = rng.randrange(6, 10)
        pairs.append((x, Point(QScalar(m), QScalar(0))))
    return pairs


def run_criterion_5(seed: int = 7) -> CriterionResult:
    """Case-1 witnesses over a one-member family verify Valid for ten
    seeded point pairs."""
    def body():
        valid, strategies = 0, set()
        for x, y in _case1_pairs(seed):
            built = witness_case1(x, y)
            strategies.add(built.grow.strategy)
            verdict = verify_product_witness(built.product, built.witness)
            if verdict.valid:
                valid += 1
        return valid == 10, (
            f"{valid}/10 witnesses valid, strategies {sorted(strategies)}"
        )
    return _timed(5, "pair separation witnesses", body)


def _ball1_orientation_pair():
    """Canonical conflicting pair on the radius-1 ball: counterclockwise
    ring with outward spokes, and the same with one ring edge reversed."""
    ps = lattice_ball(1)
    i0, i1, i2 = ps.triangle_indices()
    ring = [i for i in range(len(ps)) if i != i0]
    ring.sort(key=lambda i: math.atan2(*reversed(point_to_float(ps[i]))))
    # rotate so the ring walk starts at p1; consecutive entries are unit
    # neighbors on the hexagon
    start = ring.index(i1)
    ring = ring[start:] + ring[:start]
    forced = list(_forced_pairs(ps))
    spokes = [(i0, r) for r in ring if r not in (i1, i2)]
    ccw = []
    for pos in range(6):
        a, b = ring[pos], ring[(pos + 1) % 6]
        if {a, b} == {i1, i2}:
            continue
        ccw.append((a, b))
    S = Orientation(ps, tuple(forced + spokes + ccw))
    flipped = (ccw[0][1], ccw[0][0])
    z_pairs = [flipped if p == ccw[0] else p for p in forced + spokes + ccw]
    Z = Orientation(ps, tuple(z_pairs))
    return ps, S, Z


def run_criterion_6(seed: int = 7) -> CriterionResult:
    """Case-2 witnesses separate (x,S) from (x,Z) on the radius-1 ball for
    the center and a ring vertex."""
    def body():
        ps, S, Z = _ball1_orientation_pair()
        i0, i1, _ = ps.triangle_indices()
        outcomes = []
        for x in (ps[i0], ps[i1]):
            built = witness_case2(x, S, Z)
            verdict = verify_product_witness(built.product, built.witness)
            outcomes.append((verdict.valid, built.whole_fiber))
        ok = all(v for v, _ in outcomes)
        fallbacks = sum(1 for _, w in outcomes if w)
        return ok, (
            f"{sum(v for v, _ in outcomes)}/2 verified valid, "
            f"{fallbacks} used the whole-fiber fallback"
        )
    return _timed(6, "orientation separation witnesses", body)


def run_criterion_7(seed: int = 7) -> CriterionResult:
    """All ordered pairs witnessed implies rigid, over 100 random structures."""
    def body():
        rng = random.Random(seed + 7)
        violations = 0
        for _ in range(100):
            s = _random_relstruct(rng)
            rep = remark1_check(s)
            if rep.all_pairs_witnessed and not rep.rigid:
                violations += 1
        return violations == 0, f"100 structures, {violations} implication failures"
    return _timed(7, "witness implies rigid", body)


def run_criterion_8(seed: int = 7) -> CriterionResult:
    """Trilateration recovers 200 lattice points exactly and rejects 20
    perturbed distance triples."""
    def body():
        rng = random.Random(seed + 8)
        recovered = 0
        for _ in range(200):
            p = lattice_point(rng.randint(-6, 6), rng.randint(-6, 6))
            q = trilaterate(dist2(P0, p), dist2(P1, p), dist2(P2, p))
            if p == q:
                recovered += 1
        rejected = 0
        for _ in range(20):
            p = lattice_point(rng.randint(-6, 6), rng.randint(-6, 6))
            try:
                # unit bump of the p2 distance is never consistent for
                # lattice points: it would need y = sqrt(3)/6
                trilaterate(dist2(P0, p), dist2(P1, p), dist2(P2, p) + 1)
            except InconsistentDistances:
                rejected += 1
        return recovered == 200 and rejected == 20, (
            f"{recovered}/200 recovered exactly, {rejected}/20 rejected"
        )
    return _timed(8, "trilateration roundtrip", body)


def _write_artifacts(seed: int, directory: str) -> list:
    """One deterministic artifact tree; returns the relative file names."""
    if os.path.isdir(directory):
        shutil.rmtree(directory)
    os.makedirs(directory, exist_ok=True)

    def put(name, text):
        write_text_atomic(os.path.join(directory, name), text)

    ball1 = lattice_ball(1)
    put("ball1.json", dumps_canonical(pointset_to_json(ball1)))
    put("ball2.json", dumps_canonical(pointset_to_json(lattice_ball(2))))

    sampled = sample_orientations(ball1, seed, 3)
    for k, o in enumerate(sampled):
        put(f"orientation{k}.json", dumps_canonical(orientation_to_json(o)))
    put("orientation0.dot", orientation_to_dot(sampled[0], "S0"))
    put("ball1.svg", pointset_to_svg(ball1, orientation=sampled[0]))

    g = gadget("rhombus")
    a = g.points[g.labeled_index("A")]
    d = g.points[g.labeled_index("D")]
    rep = bq_certify(g.points, a, d, QScalar(1))
    put("rhombus_certify.json", dumps_canonical({
        "schema": "rigidlab.report/1",
        "command": "certify",
        "certified": rep.certified,
        "max_deviation": str(rep.max_deviation),
        "map_count": rep.map_count,
        "backend": rep.backend,
    }))

    x1, y1 = lattice_point(1, 0), Point(QScalar(5), QScalar(0))
    built = witness_case1(x1, y1)
    verdict = verify_product_witness(built.product, built.witness)
    put("case1_witness.json", dumps_canonical({
        "schema": "rigidlab.report/1",
        "command": "witness",
        "kind": "case1",
        "valid": verdict.valid,
        "witness_size": len(built.witness.subset),
        "anchor_index": built.anchor_index,
        "strategy": built.grow.strategy,
    }))

    ps, S, Z = _ball1_orientation_pair()
    built2 = witness_case2(ps[0], S, Z)
    verdict2 = verify_product_witness(built2.product, built2.witness)
    put("case2_witness.json", dumps_canonical({
        "schema": "rigidlab.report/1",
        "command": "witness",
        "kind": "case2",
        "valid": verdict2.valid,
        "whole_fiber": built2.whole_fiber,
        "conflict": [built2.conflict.ui, built2.conflict.vi],
    }))

    P = build_product(ps, OrientationFamily(ps, (S, Z)))
    put("product.json", dumps_canonical(product_to_json(P)))

    p = lattice_point(2, 3)
    q = trilaterate(dist2(P0, p), dist2(P1, p), dist2(P2, p))
    put("trilaterate.json", dumps_canonical({
        "schema": "rigidlab.report/1",
        "command": "trilaterate",
        "x": str(q.x),
        "y": str(q.y),
    }))

    cycle3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
    maps = enumerate_homs(cycle3, cycle3).maps
    put("hom_cycle3.json", dumps_canonical({
        "schema": "rigidlab.report/1",
        "command": "hom",
        "maps": [list(m) for m in maps],
    }))
    return sorted(os.listdir(directory))


def run_criterion_9(seed: int = 7, out_dir: str = "out") -> CriterionResult:
    """Two artifact builds from the same seed are byte-identical."""
    def body():
        d1 = os.path.join(out_dir, "run")
        d2 = os.path.join(out_dir, "run2")
        files1 = _write_artifacts(seed, d1)
        files2 = _write_artifacts(seed, d2)
        if files1 != files2:
            return False, f"file lists differ: {files1} vs {files2}"
        diffs = []
        for name in files1:
            with open(os.path.join(d1, name), "rb") as fh:
                b1 = fh.read()
            with open(os.path.join(d2, name), "rb") as fh:
                b2 = fh.read()
            if b1 != b2:
                diffs.append(name)
        if diffs:
            return False, f"{len(diffs)} artifacts differ: {diffs}"
        return True, f"{len(files1)} artifacts, byte-identical rebuild"
    return _timed(9, "artifact determinism", body)


def run_all(seed: int = 7, out_dir: str = "out") -> list:
    """Run the whole grid, write summary.txt next to (not inside) the
    compared artifact directories, and return the results."""
    results = [
        run_criterion_1(seed),
        run_criterion_2(seed),
        run_criterion_3(seed),
        run_criterion_4(seed),
        run_criterion_5(seed),
        run_criterion_6(seed),
        run_criterion_7(seed),
        run_criterion_8(seed),
        run_criterion_9(seed, out_dir),
    ]
    summary = "".join(r.line() + "\n" for r in results)
    write_text_atomic(os.path.join(out_dir, "summary.txt"), summary)
    return results
