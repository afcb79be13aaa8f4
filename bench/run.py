#!/usr/bin/env python3
"""Benchmark of invsemi: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports invsemi from the
checkout's ``src`` directory and exits with code 2 when that is missing.
Everything runs in one process with ``threads=1``.

A run repeats passes of the workload until ``--seconds`` (by default
``run_seconds`` of BENCHMARK.json) would be exceeded (at least one pass)
and checks every pass against the reference values in ``workloads.py``.

The speed of a core of a shared host drifts by a third or more over tens
of seconds, so untraced runs time the work in reference seconds
(``refclock.py``): raw time corrected by a fixed calibration loop sampled
every 0.1 s while the work runs.  ``--trace 0`` reports the end-to-end
metrics:

* ``wall_ref_s``: median pass time in reference seconds, from the first
  call into invsemi to the checked result;
* ``setup_s``: median over several fresh interpreters of the time from
  process start through importing invsemi (and numpy) and generating the
  inputs, in reference seconds (the calibration loop runs just before and
  just after each interpreter);
* ``peak_rss_mb``: peak resident memory of this process;
* ``item_p50_ref_ms`` / ``item_p90_ref_ms``: latency of one call into
  invsemi, in reference milliseconds.  An item is one ``search_open`` call
  in search-open-n15 and the pass's single top-level call in the other
  workloads.  The run's items are cut into windows of ``ITEM_WINDOW``
  consecutive items, and each figure is the median over the windows of
  the window's percentile, so that a few seconds the correction missed
  move the tail little.  A run of fewer items (one item a pass) has too
  few for a 90th percentile with ten items beyond it, so both figures
  read its median item.

The raw median pass and set-up times print on ``info`` lines, outside the
metrics.

``--trace 1`` alternates untraced and traced passes, all timed in raw
seconds, and reports the per-layer metrics of ``layertrace.py`` (medians
over the traced passes) and ``trace.overhead_frac``, the median traced
pass time over the median untraced one, minus one.  The counts that are
exact results rather than costs (``layertrace.RESULTS``) print on
``result`` lines outside the metrics.  A layer the workload is meant to
exercise that reads zero fails the run.

The ``meta`` line describes the run and the machine.  Its ``loop_ms``
gives the median, least and greatest time of the calibration loop over the
samples taken during the passes, so that the machine's own speed and its
drift show next to the figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (counts of checks) and
``metrics``; ``fail_frac`` (failed over attempted) is printed on the line
before it.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("extremal-n6", "ideal-diam-n6r3", "distance5-n25",
             "search-open-n15")
SETUP_REPEATS = 9
ITEM_WINDOW = 100

# What a fresh interpreter does before the first pass: argv is
# [src, bench, workload, seed, tiny].
_SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
import invsemi, workloads
workloads.get(sys.argv[3], sys.argv[5] == "1").make_inputs(int(sys.argv[4]))
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the self-test size of the workload")
    return ap.parse_args(argv)


def run_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, the default length of a run."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _setup_seconds(args, refclock):
    """(reference seconds, raw seconds) of one fresh interpreter."""
    before = refclock.speed_scale()
    # No timeout: waiting with one polls the child every 50 ms, which would
    # quantize the measurement.
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH),
                    args.workload, str(args.seed), "1" if args.tiny else "0"],
                   check=True)
    raw = perf_counter() - t0
    return raw * (before + refclock.speed_scale()) / 2, raw


def _item_percentiles_ms(items):
    """(p50, p90) item latency in milliseconds, as the docstring says."""
    if len(items) < ITEM_WINDOW:
        mid = statistics.median(items) * 1000.0 if items else 0.0
        return mid, mid
    windows = [items[i:i + ITEM_WINDOW]
               for i in range(0, len(items) - ITEM_WINDOW + 1, ITEM_WINDOW)]
    return tuple(statistics.median(statistics.quantiles(w, n=100)[q - 1]
                                   for w in windows) * 1000.0
                 for q in (50, 90))


def _one_pass(spec, inputs, clock, tracer=None):
    """(Pass or None, seconds by clock, raw seconds, error text or None)."""
    gc.collect()
    t0, r0 = clock(), clock.raw()
    try:
        if tracer is None:
            result = spec.run(inputs, clock)
        else:
            with tracer:
                result = spec.run(inputs, clock)
    except Exception:
        return (None, clock() - t0, clock.raw() - r0,
                traceback.format_exc())
    return result, clock() - t0, clock.raw() - r0, None


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    total = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "invsemi" / "__init__.py").is_file():
        print(f"bench: no invsemi sources at {SRC}; run inside a source "
              "checkout", file=sys.stderr)
        return 2
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import invsemi
    if Path(invsemi.__file__).resolve().parent != SRC / "invsemi":
        print(f"bench: imported invsemi from {invsemi.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import layertrace
    import refclock
    import workloads

    if args.seconds is None:
        args.seconds = run_seconds()
    spec = workloads.get(args.workload, args.tiny)
    if not args.trace:
        setups = [_setup_seconds(args, refclock)
                  for _ in range(SETUP_REPEATS)]
    inputs = spec.make_inputs(args.seed)

    # A clock that is never started takes no samples and keeps its scale
    # of 1: it reads raw seconds, as the per-layer times do.
    clock = refclock.RefClock()
    passes, errors, walls, raw_walls = [], [], [], []
    traced_walls, layer_runs = [], []
    deadline = perf_counter() + args.seconds
    if not args.trace:
        clock.start()
    try:
        while True:
            result, dt, raw, err = _one_pass(spec, inputs, clock)
            walls.append(dt)
            raw_walls.append(raw)
            planned = statistics.median(raw_walls)
            if args.trace and err is None:
                tracer = layertrace.Tracer()
                traced, tdt, _, err = _one_pass(spec, inputs, clock, tracer)
                traced_walls.append(tdt)
                layer_runs.append(tracer.metrics())
                passes.append(traced)
                planned += statistics.median(traced_walls)
            passes.append(result)
            if err is not None:
                errors.append(err)
                break
            if perf_counter() + planned > deadline:
                break
    finally:
        if not args.trace:
            clock.stop()

    checks = [c for p in passes if p is not None for c in p.checks]
    checks += [("pass raised: " + e.strip().splitlines()[-1], False)
               for e in errors]
    prints = {repr(p.fingerprint) for p in passes if p is not None}
    checks.append(("every pass gives the same result", len(prints) == 1))

    results, info = {}, {}
    if args.trace:
        traced = {name: statistics.median(r[name] for r in layer_runs)
                  for name in (layer_runs[0] if layer_runs else ())}
        traced["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
            if traced_walls else 0.0)
        metrics = {name: {"value": traced.get(name, 0.0), "unit": unit}
                   for name, unit in layertrace.METRICS.items()}
        results = {name: traced.get(name, 0.0)
                   for name in layertrace.RESULTS}
        for name in layertrace.exercised(args.workload):
            checks.append((f"traced layer {name} is nonzero",
                           traced.get(name, 0.0) != 0))
    else:
        items = [t for p in passes if p is not None for t in p.items_s]
        p50, p90 = _item_percentiles_ms(items)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_ref_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(s for s, _ in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "item_p50_ref_ms": {"value": float(p50), "unit": "ms"},
            "item_p90_ref_ms": {"value": float(p90), "unit": "ms"},
        }
        info = {"wall_s": statistics.median(raw_walls),
                "setup_raw_s": statistics.median(r for _, r in setups)}

    failed = [label for label, ok in checks if not ok]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": ("fixed by n; the seed is unused" if spec.fixed_by_n
                   else "drawn from the seed"),
        "tiny": args.tiny,
        "trace": args.trace,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "items": sum(len(p.items_s) for p in passes if p is not None),
        "threads": 1,
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": _src_lines(),
        "loop_ms": ([round(f(clock.loops) * 1000.0, 4)
                     for f in (statistics.median, min, max)]
                    if clock.loops else None),
    }
    print("meta " + json.dumps(meta))
    for err in errors:
        print(err, file=sys.stderr)
    for label in failed:
        print(f"FAILED check: {label}", file=sys.stderr)
    for name, value in results.items():
        print(f"result {name} {value:.6g} count")
    for name, value in info.items():
        print(f"info {name} {value:.6g} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {len(failed) / len(checks):.6g} ratio")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
