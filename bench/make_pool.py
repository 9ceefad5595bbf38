"""Build the input pool of the minimize workload.

    python3 bench/make_pool.py --out bench/minimize_pool.json

Run from the repository root.  It draws two-member case-2 products of
`lattice_ball(2)` from a fixed seed and runs `find_min_witness` at the CLI
default budget on each, x at the origin p0 and at one random point.  An
input whose minimal witness comes back is kept with the witness size as its
known answer.  An input that raises `BudgetExhausted` is kept apart: it hits
the known defect of the unreachable greedy fallback, and the traced run
probes a few of them.  The timed workload draws only from the first kind,
so that no timed operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RADIUS = 2
BUDGET = 4096  # the CLI default for `witness --kind min`


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--origin", type=int, default=300, help="origin inputs to keep")
    ap.add_argument("--random", type=int, default=150, help="random-x inputs to keep")
    ap.add_argument("--fails", type=int, default=20, help="failing inputs to keep")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rigidlab
    from rigidlab import phi, plane, product, relations
    from rigidlab.errors import BudgetExhausted

    ps = plane.lattice_ball(RADIUS)
    m = rigidlab.count_orientations(ps).bit_length() - 1
    origin = ps.index_of(plane.P0)
    rng = random.Random("minimize-pool")
    pool = {"radius": RADIUS, "budget": BUDGET, "origin": [], "random": [], "fails": []}

    def attempt(kind, bs, bz, xi):
        P = product.build_product(ps, [phi.orientation_from_bits(ps, bs),
                                       phi.orientation_from_bits(ps, bz)])
        try:
            r = relations.find_min_witness(P.structure, P.element(xi, 0), P.element(xi, 1),
                                           budget=BUDGET)
        except BudgetExhausted:
            if len(pool["fails"]) < args.fails:
                pool["fails"].append([bs, bz, xi])
            return
        if r.minimal and len(pool[kind]) < getattr(args, kind):
            pool[kind].append([bs, bz, xi, len(r.witness.subset)])

    while (len(pool["origin"]) < args.origin or len(pool["random"]) < args.random
           or len(pool["fails"]) < args.fails):
        bs, bz = rng.getrandbits(m), rng.getrandbits(m)
        attempt("origin", bs, bz, origin)
        attempt("random", bs, bz, rng.randrange(len(ps)))
        print(f"origin {len(pool['origin'])} random {len(pool['random'])} "
              f"fails {len(pool['fails'])}", file=sys.stderr, flush=True)
    with open(args.out, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
