#!/usr/bin/env python3
"""Run every verification suite and write a JSON report.

Usage:
    python3 scripts/run_verification.py [--out report.json] [--suite NAME]
                                        [--cache-dir DIR]

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import sys
import time

from invsemi.cli import SUITE_ORDER, CliContext, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="write the JSON report here (default: stdout only)")
    ap.add_argument("--suite", default="all", choices=SUITE_ORDER + ("all",))
    ap.add_argument("--cache-dir", default=None,
                    help="reuse packed graph caches between runs")
    args = ap.parse_args()

    ctx = CliContext(cache_dir=args.cache_dir)
    names = list(SUITE_ORDER) if args.suite == "all" else [args.suite]
    reports = []
    t0 = time.perf_counter()
    for name in names:
        rep = run_suite(name, ctx=ctx)
        reports.append(rep)
        status = "pass" if rep.passed else "FAIL"
        worst = max((c.ms for c in rep.checks), default=0.0)
        print(f"{name:16} {status}  ({len(rep.checks)} checks,"
              f" slowest {worst:.0f} ms)")
    elapsed = time.perf_counter() - t0

    payload = [r.to_dict() for r in reports]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report written to {args.out}")
    print(f"total {elapsed:.1f}s")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
