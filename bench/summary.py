#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and summarise it.

    python3 bench/summary.py [--workload NAME ...] [--seeds 0 1 2 ...]
                             [--trace 0|1]

Each run is a fresh ``run.py`` process of ``run_seconds`` of
BENCHMARK.json, so ``peak_rss_mb`` is per workload.  Prints one line per
run, with the median, least and greatest calibration loop time during it,
then per workload and metric (and per raw time of the ``info`` lines) the
median over the runs, with the quartile spread (Q3 - Q1) / median when
there are at least two runs, and ``fail_frac`` over all checks made.
Exits with code 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    meta = next((json.loads(ln[5:]) for ln in lines
                 if ln.startswith("meta ")), {})
    info = {f"info.{name}": (float(value), unit) for name, value, unit in
            (ln.split()[1:] for ln in lines if ln.startswith("info "))}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        result = None
    return {"exit": proc.returncode, "meta": meta, "info": info,
            "result": result}


def _summary(values):
    med = statistics.median(values)
    out = {"median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / med if med else None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", default=list(WORKLOADS),
                    choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    summaries, ok = {}, True
    for workload in args.workload:
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            r = _run(workload, seed, args.trace)
            res = r["result"]
            if res is None or r["exit"] != 0:
                ok = False
            if res is None:
                print(f"{workload} seed={seed}: exit {r['exit']}, no result")
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            for name, (value, unit) in r["info"].items():
                values.setdefault(name, ([], unit))[0].append(value)
            shown = " ".join(f"{k}={v['value']:.4g}"
                             for k, v in res["metrics"].items()
                             if not args.trace)
            print(f"{workload} seed={seed} passes={r['meta'].get('passes')}"
                  f" loop_ms={r['meta'].get('loop_ms')}"
                  f" correct={res['correct']} {shown}", flush=True)
        summaries[workload] = {
            name: dict(_summary(vals), unit=unit)
            for name, (vals, unit) in values.items()}
        summaries[workload]["fail_frac"] = {
            "median": failed / attempted if attempted else None,
            "unit": "ratio"}

    print()
    print(f"{'workload':16} {'metric':44} {'median':>12} {'spread':>8} unit")
    for workload, metrics in summaries.items():
        for name, s in metrics.items():
            med = "n/a" if s["median"] is None else f"{s['median']:.6g}"
            spread = ("" if s.get("spread") is None
                      else f"{s['spread']:.4f}")
            print(f"{workload:16} {name:44} {med:>12} {spread:>8} "
                  f"{s['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
