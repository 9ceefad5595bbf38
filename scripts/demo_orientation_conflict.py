#!/usr/bin/env python3
"""Separate the same point under two conflicting orientations.

Takes the radius-1 lattice ball with a counterclockwise ring orientation,
flips one ring edge to get a second member, and shows that the product
element (x, S) cannot be mapped to (x, Z): the conflict edge poisons every
candidate map.  Writes an SVG of each member next to this script when
--out is given.
"""

import argparse
import sys

from rigidlab.acceptance import _ball1_orientation_pair
from rigidlab.export import pointset_to_svg, write_text_atomic
from rigidlab.product import find_conflict_edge, verify_product_witness, witness_case2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="directory for member SVG drawings")
    args = parser.parse_args()

    ps, S, Z = _ball1_orientation_pair()
    ce = find_conflict_edge(S, Z)
    print(f"base: radius-1 ball, {len(ps)} points")
    print(f"conflict edge: indices {ce.ui} -> {ce.vi} in S, "
          f"reversed in Z")

    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        for name, o in (("member_S.svg", S), ("member_Z.svg", Z)):
            path = os.path.join(args.out, name)
            write_text_atomic(path, pointset_to_svg(
                ps, orientation=o, highlight=(ce.ui, ce.vi)))
            print(f"wrote {path}")

    exit_code = 0
    i0, i1, _ = ps.triangle_indices()
    for label, x in (("center", ps[i0]), ("ring vertex", ps[i1])):
        built = witness_case2(x, S, Z)
        verdict = verify_product_witness(built.product, built.witness,
                                         enumerate_all=True)
        status = "VERIFIED" if verdict.valid else "REFUTED"
        print(f"{label}: witness of {len(built.witness.subset)} elements "
              f"(the whole S fiber): {status}")
        if not verdict.valid:
            exit_code = 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
