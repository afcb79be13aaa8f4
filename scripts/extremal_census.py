#!/usr/bin/env python3
"""Census of maximum-order commutative nilpotent subsemigroups.

For each requested ground size, find the maximum order, count the
subsemigroups attaining it, and report how the witnesses decompose into
the balanced-split null family.

Usage:
    python3 scripts/extremal_census.py [--min 3] [--max 6] [--list]
                                       [--budget-seconds S]

The search is exact.  Its clique search roots one local graph per
conjugacy class and closes the maximum cliques it finds under
conjugation, and the witness check proves closure once per orbit of them;
``max_commutative_nilpotent(7)`` took 0.79 to 0.98 seconds in-process in
five runs on one core of a 2-vCPU Xeon VM.
"""

import argparse
import sys

from invsemi import construct
from invsemi.pinj import format_element


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=int, default=3)
    ap.add_argument("--max", type=int, default=6)
    ap.add_argument("--list", action="store_true",
                    help="print every witness semigroup")
    ap.add_argument("--budget-seconds", type=float, default=None)
    args = ap.parse_args()

    print(f"{'n':>3} {'max order':>10} {'count':>6} {'balanced-null':>14}"
          f" {'time':>8}")
    for n in range(args.min, args.max + 1):
        rep = construct.max_commutative_nilpotent(
            n, budget_seconds=args.budget_seconds)
        balanced = {frozenset(s.ids)
                    for s in construct.balanced_null_semigroups(n)}
        hits = sum(frozenset(w.ids) in balanced for w in rep.witnesses)
        print(f"{n:>3} {rep.max_order:>10} {rep.count:>6}"
              f" {hits:>8}/{rep.count:<5} {rep.elapsed_s:>7.1f}s")
        if args.list:
            for w in rep.witnesses:
                line = " ".join(format_element(e) for e in w.elements)
                tag = "balanced" if frozenset(w.ids) in balanced else "other"
                print(f"      [{tag}] {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
