#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; it takes a few seconds.

    python3 bench/selftest.py

Runs every workload at its tiny size (extremal at n=4, the ideal diameter
at n=4 rank <= 3, distance five at n=9, search-open at n=9 with a dozen
items), untraced and traced, and checks that

* every metric named in BENCHMARK.json prints with its unit, and the
  traced run also prints every result count of ``layertrace.RESULTS``;
* every check passes, so fail_frac is 0;
* a deliberately wrong reference value trips the gate;
* a traced layer that should be exercised but reads zero trips the gate.

Exits with code 0 when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layertrace  # noqa: E402
import run  # noqa: E402


def _invoke(workload: str, trace: int):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.3", "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1]) if lines else None


def main() -> int:
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    if names != run.WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} differ from "
                        f"run.py's {run.WORKLOADS}")
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}

    for workload in names:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            code, lines, res = _invoke(workload, trace)
            if res is None:
                problems.append(f"{where}: printed nothing")
                continue
            if code != 0 or not res["correct"] or res["failed"]:
                problems.append(f"{where}: exit {code}, result {res}")
            if "fail_frac 0 ratio" not in lines:
                problems.append(f"{where}: fail_frac is not 0")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got)} do not "
                                f"match BENCHMARK.json")
            for name, unit in wanted[trace].items():
                if not any(ln.startswith(f"{name} ")
                           and ln.endswith(f" {unit}") for ln in lines):
                    problems.append(f"{where}: {name} not printed with {unit}")
            for name in layertrace.RESULTS if trace else ():
                if not any(ln.startswith(f"result {name} ") for ln in lines):
                    problems.append(f"{where}: result {name} not printed")
            print(f"ok {where}: {res['attempted']} checks")

    import workloads  # importable once run.main has put src on the path

    tiny = workloads.TINY["extremal-n6"]
    tiny.order += 1
    try:
        code, _, res = _invoke("extremal-n6", 0)
    finally:
        tiny.order -= 1
    if code == 0 or res["correct"] or not res["failed"]:
        problems.append("a wrong reference order did not trip the gate")
    else:
        print("ok a wrong reference value trips the gate")

    saved = layertrace._EXERCISED["extremal-n6"]
    layertrace._EXERCISED["extremal-n6"] = saved + ("graph.eccentricities.",)
    try:
        code, _, res = _invoke("extremal-n6", 1)
    finally:
        layertrace._EXERCISED["extremal-n6"] = saved
    if code == 0 or res["correct"]:
        problems.append("a traced layer reading zero did not trip the gate")
    else:
        print("ok a traced layer reading zero trips the gate")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
