"""The four benchmark workloads: seeded inputs, one verdict per instance.

Each workload yields rounds of instances from a seeded generator.  A round
holds one instance of every kind the workload mixes (for example one case-2
instance per ball radius), so a run that ends on a round boundary always has
the same mix whatever the seed.  Generation happens outside the timed region
and is what the `setup_s` probe times; `solve` is the timed call into the
library; `check` compares the result with the known answer.

Every instance has a known answer, and any other outcome is a failure:

* case2_ball and case1_pairs: the built witness verifies valid.  The
  paper's constructions guarantee it for every input generated here.
* minimize: a minimal witness of the pool's recorded size comes back,
  contains x, and passes `check_witness` again.
* grid: every criterion passes.

The timed rounds hold only instances the library answers, so no timed
operation fails.  Instances that hit known defects are kept apart, in
`defects()`, and the traced run probes them: the irrational-gap pairs of
case1_pairs raise `MissingTriangle`, pool inputs of minimize whose scan
outruns the budget raise `BudgetExhausted` from the unreachable greedy
fallback, and grid criterion 3 fails.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile

import rigidlab
from rigidlab import acceptance, phi, plane, product, relations
from rigidlab.numeric import Point, QScalar

UNIT_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
SQRT3_DIRS = ((1, 1), (-1, 2), (-2, 1), (-1, -1), (1, -2), (2, -1))


def _irrational_norm(a: int, b: int) -> bool:
    """True when |a*(1,0) + b*(1/2, sqrt(3)/2)| lies outside Q(sqrt(3)):
    the squared norm is neither a square nor three times a square."""
    n = a * a + a * b + b * b
    return n > 1 and all(n not in (k * k, 3 * k * k) for k in range(1, 6))


IRRATIONAL_OFFSETS = tuple((a, b) for a in range(-4, 5) for b in range(-4, 5)
                           if _irrational_norm(a, b))

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "minimize_pool.json")


class Outcome:
    """What `check` decided about one instance.

    status is "ok", or the failure kind: an exception type name, or
    "verdict" for a result that differs from the known answer.  wrong marks
    a result the program returned as a success that failed the check.
    """

    __slots__ = ("status", "witness_frac", "wrong")

    def __init__(self, status, witness_frac=None, wrong=False):
        self.status = status
        self.witness_frac = witness_frac
        self.wrong = wrong


class Workload:
    name = ""
    TRACE_ROUNDS = 1  # rounds of a traced run; fixed so that counts repeat

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def rounds(self):
        """Yield lists of (kind, inputs) forever."""
        raise NotImplementedError

    def defects(self):
        """(kind, inputs) of instances that hit known defects: left out of
        the timed rounds, probed by the traced run."""
        return []

    def solve(self, kind, inputs):
        raise NotImplementedError

    def check(self, kind, inputs, result) -> Outcome:
        raise NotImplementedError

    def close(self):
        pass


def _bits(ps) -> int:
    return rigidlab.count_orientations(ps).bit_length() - 1


class Case2Ball(Workload):
    """witness_case2 then verify_product_witness on lattice balls R = 2, 3."""

    name = "case2_ball"
    # the median falls among the R = 2 verdicts (unit graph and exact
    # arithmetic) and the tail among the R = 3 ones (hom search); R = 3
    # verify times are bimodal, so a median taken among them jumps with
    # the share of cheap instances a seed happens to draw
    SCHEDULE = (2, 2, 2, 3, 3)
    TRACE_ROUNDS = 2

    def rounds(self):
        balls = {}
        while True:
            batch = []
            for r in self.SCHEDULE:
                if r not in balls:
                    ps = plane.lattice_ball(r)
                    balls[r] = (ps, _bits(ps))
                ps, m = balls[r]
                s = phi.orientation_from_bits(ps, self.rng.getrandbits(m))
                z = phi.orientation_from_bits(ps, self.rng.getrandbits(m))
                x = ps[self.rng.randrange(len(ps))]
                batch.append((f"R{r}", (x, s, z)))
            yield batch

    def solve(self, kind, inputs):
        built = product.witness_case2(*inputs)
        return built, product.verify_product_witness(built.product, built.witness)

    def check(self, kind, inputs, result) -> Outcome:
        built, verdict = result
        P, w = built.product, built.witness
        n = len(P.base)
        if not (w.x == built.src and w.y == built.tgt == built.src + n
                and set(w.subset) <= set(range(P.structure.n))):
            return Outcome("verdict", wrong=True)
        if not verdict.valid:
            return Outcome("verdict")
        return Outcome("ok", len(w.subset) / P.structure.n)


class Case1Pairs(Workload):
    """witness_case1 then verify_product_witness on four pair families."""

    name = "case1_pairs"
    TRACE_ROUNDS = 3

    def rounds(self):
        rng = self.rng
        while True:
            batch = []
            a, b = UNIT_DIRS[rng.randrange(6)]
            batch.append(("edge", (plane.lattice_point(a, b), _on_axis(rng.randrange(4, 10)))))
            for k in (2, 3, 4):
                a, b = UNIT_DIRS[rng.randrange(6)]
                # the braced ladder pins distance k to within 3, so a gap of
                # 6 or more keeps the half-gap epsilon certifiable
                batch.append((f"ladder{k}", (plane.lattice_point(k * a, k * b),
                                             _on_axis(k + rng.randrange(6, 10)))))
            a, b = SQRT3_DIRS[rng.randrange(6)]
            batch.append(("rhombus", (plane.lattice_point(a, b), _on_axis(rng.randrange(6, 10)))))
            yield batch

    def defects(self):
        # irrational gaps raise MissingTriangle: the float-fallback universe
        # is searched for the exact TRIANGLE points
        rng = random.Random(f"{self.name}-defects:{self.seed}")
        out = []
        for _ in range(2):
            a, b = UNIT_DIRS[rng.randrange(6)]
            c, d = IRRATIONAL_OFFSETS[rng.randrange(len(IRRATIONAL_OFFSETS))]
            out.append(("irrational", (plane.lattice_point(a, b), plane.lattice_point(c, d))))
        return out

    def solve(self, kind, inputs):
        built = product.witness_case1(*inputs)
        return built, product.verify_product_witness(built.product, built.witness)

    def check(self, kind, inputs, result) -> Outcome:
        built, verdict = result
        w = built.witness
        if not (w.x == built.src and built.src != built.tgt
                and set(w.subset) <= set(range(built.product.structure.n))):
            return Outcome("verdict", wrong=True)
        if not verdict.valid:
            return Outcome("verdict")
        return Outcome("ok", len(w.subset) / built.product.structure.n)


def _on_axis(m: int) -> Point:
    return Point(QScalar(m), QScalar(0))


class Minimize(Workload):
    """find_min_witness on two-member case-2 products, x to its twin."""

    name = "minimize"
    # Each round holds one random x and two at the origin p0.  Witnesses
    # at p0 all have size 4 or 5, so every p0 instance scans all 704
    # subsets of size 2 and 3 first.  That gives the tail a dense cluster.
    # With random x only, the ten slowest verdicts of a run are scattered
    # late size-4 finds, and their cutoff moved by 25% from one seed to the
    # next.
    KINDS = ("random", "origin", "origin")
    TRACE_ROUNDS = 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        # inputs drawn from make_pool.py's seeded pool, each with its known
        # minimal witness size; a size-5 witness at p0 lies beyond the
        # budget, so those inputs sit apart in "fails"
        with open(POOL_PATH) as fh:
            self.pool = json.load(fh)
        self.ps = plane.lattice_ball(self.pool["radius"])

    def _instance(self, kind, bs, bz, xi, size=None):
        s = phi.orientation_from_bits(self.ps, bs)
        z = phi.orientation_from_bits(self.ps, bz)
        P = product.build_product(self.ps, [s, z])
        return kind, (P.structure, P.element(xi, 0), P.element(xi, 1), size)

    def rounds(self):
        # each kind deals its pool in a seeded order, reshuffled once spent:
        # drawing without replacement keeps a run's mix of cheap and costly
        # inputs close to the pool's, so throughput moves less between seeds
        decks = {kind: [] for kind in self.KINDS}
        while True:
            batch = []
            for kind in self.KINDS:
                if not decks[kind]:
                    decks[kind] = self.pool[kind][:]
                    self.rng.shuffle(decks[kind])
                batch.append(self._instance(kind, *decks[kind].pop()))
            yield batch

    def defects(self):
        rng = random.Random(f"{self.name}-defects:{self.seed}")
        return [self._instance("budget", *e) for e in rng.sample(self.pool["fails"], 2)]

    def solve(self, kind, inputs):
        s, x, y, _ = inputs
        return relations.find_min_witness(s, x, y, budget=self.pool["budget"])

    def check(self, kind, inputs, result) -> Outcome:
        s, x, y, size = inputs
        w = result.witness
        if not (w.x == x and w.y == y and set(w.subset) <= set(range(s.n))):
            return Outcome("verdict", wrong=True)
        if not relations.check_witness(s, w).valid:
            return Outcome("verdict", wrong=True)
        if size is not None and not (result.minimal and len(w.subset) == size):
            return Outcome("verdict", wrong=True)
        return Outcome("ok", len(w.subset) / s.n)


class Grid(Workload):
    """The verify-all criteria but the red criterion 3, one verdict each,
    repeated."""

    name = "grid"
    TRACE_ROUNDS = 4

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.out_dir = tempfile.mkdtemp(prefix="grid-", dir=work_dir)

    def rounds(self):
        while True:
            seed = self.rng.randrange(1 << 16)
            yield [(f"criterion{k}", seed) for k in range(1, 10) if k != 3]

    def defects(self):
        # criterion 3 is red: the exact Moser spindle leaves Q(sqrt(3)), so
        # its certificate raises instead of certifying
        return [("criterion3", self.seed)]

    def solve(self, kind, seed):
        k = int(kind[len("criterion"):])
        if k == 9:
            return acceptance.run_criterion_9(seed, self.out_dir)
        return getattr(acceptance, f"run_criterion_{k}")(seed)

    def check(self, kind, seed, result) -> Outcome:
        return Outcome("ok" if result.passed else "verdict")

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Case2Ball, Case1Pairs, Minimize, Grid)}

