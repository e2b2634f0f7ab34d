"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and checks each result line: every end-to-end metric (untraced) or
per-layer metric (traced) appears with its unit and a finite value;
end-to-end values are positive; the per-layer metrics of the layers a
workload calls (workloads.APPLIES) are positive; outputs are correct and no
op failed.  It also checks that the report carries the figures kept out of
the result line, and that the benchmark exits nonzero without a result in a
directory that holds only BENCHMARK.json and perfbench/.  Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "1"
TIMEOUT_S = 300


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(name: str, trace: int, done, spec, applies) -> list[str]:
    where = f"{name} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-400:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')} causes={report.get('failure_causes')}")
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for metric, unit in units.items():
        m = metrics.get(metric)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {metric} = {m}")
        elif (not trace or metric in applies) and not value > 0:
            problems.append(f"{where}: {metric} should be positive, got {value}")
    for key in ("provenance", "failed_ratio", "failure_causes", "latency_samples"):
        if key not in report:
            problems.append(f"{where}: report lacks {key}")
    if not trace and "unscaled" not in report:
        problems.append(f"{where}: report lacks the unscaled timings")
    if name == "kst-fit" and not trace:
        for key in ("kst.final_residual", "kst.heldout_rmse"):
            if not isinstance(report.get(key), float):
                problems.append(f"{where}: report lacks {key}")
    if name == "solve-distinct" and not report.get("edge_probe", {}).get("attempted"):
        problems.append(f"{where}: no edge probe in the report")
    if trace and "tracing_overhead_pct" not in report:
        problems.append(f"{where}: report lacks tracing_overhead_pct")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's source the benchmark must fail and print no result."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "solve-distinct", 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import APPLIES

    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            found = check_result(name, trace, run(ROOT, name, trace), spec, APPLIES[name])
            print(f"{'FAIL' if found else 'ok  '} {name} trace={trace}")
            problems += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} bare directory exits nonzero")
    problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
