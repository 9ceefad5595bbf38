#!/usr/bin/env python3
"""Walk through separating two plane points with a finite witness set.

Builds the distance certificate, crosses it with a canonical orientation,
and lets the exhaustive verifier pass judgment.  Run with no arguments
for the default pair, or pass two points as 'x,y' scalar tokens.
"""

import argparse
import sys

from rigidlab.cli import _parse_point
from rigidlab.numeric import dist2
from rigidlab.plane import TRIANGLE
from rigidlab.product import verify_product_witness, witness_case1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("x", nargs="?", default="2,0")
    parser.add_argument("y", nargs="?", default="6,0")
    args = parser.parse_args()
    x = _parse_point(args.x)
    y = _parse_point(args.y)

    print(f"separating x = ({x.x}, {x.y}) from y = ({y.x}, {y.y})")
    built = witness_case1(x, y)
    anchor = TRIANGLE[built.anchor_index]
    print(f"anchor corner index {built.anchor_index}: "
          f"|anchor - x|^2 = {dist2(anchor, x)}, "
          f"|anchor - y|^2 = {dist2(anchor, y)}")
    print(f"certificate strategy: {built.grow.strategy} "
          f"({len(built.grow.points)} points, "
          f"max deviation {built.grow.report.max_deviation})")
    print(f"epsilon = {built.epsilon} (half the distance gap, "
          f"~{float(built.epsilon):.4f})")
    print(f"witness: {len(built.witness.subset)} of "
          f"{built.product.structure.n} product elements")
    print(f"strict exclusion of y from the distance band: "
          f"{built.strict_exclusion}")

    verdict = verify_product_witness(built.product, built.witness,
                                     enumerate_all=True)
    if verdict.valid:
        print("VERIFIED: no pair-preserving map of the witness sends x to y")
        return 0
    print(f"REFUTED by counterexample {verdict.counterexample}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
