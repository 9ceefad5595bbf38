#!/usr/bin/env python3
"""Scan small binary relations for the first rigid one.

A structure is rigid when its only endomorphism is the identity.  On a
3-element universe the nine ordered pairs are indexed row-major, pair k
contributing bit k to a mask; scanning masks upward finds the first
rigid relation and prints the runners-up with their endomorphism counts.
"""

import argparse
import sys

from rigidlab.relations import RelStruct, enumerate_homs, is_rigid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="universe size")
    parser.add_argument("--show-near-misses", type=int, default=5,
                        help="print this many masks preceding the hit")
    args = parser.parse_args()

    pool = [(i, j) for i in range(args.n) for j in range(args.n)]
    history = []
    for mask in range(2 ** len(pool)):
        pairs = tuple(pool[k] for k in range(len(pool)) if mask >> k & 1)
        s = RelStruct(args.n, pairs)
        history.append((mask, pairs, len(enumerate_homs(s, s).maps)))
        if is_rigid(s):
            for m, p, c in history[-(args.show_near_misses + 1):-1]:
                print(f"  mask {m:4d}  pairs {p}  {c} endomorphisms")
            print(f"first rigid: mask {mask}  pairs {pairs}")
            return 0
    print(f"no rigid relation on {args.n} elements", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
