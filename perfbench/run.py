"""Run one workload of the mvfa benchmark and print its metrics.

    python3 perfbench/run.py --workload solve-distinct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the root of a checkout: the benchmark imports `mvfa` from the
checkout's `src/` and nowhere else, and exits nonzero without a result when
that source is missing.  One process, one thread, a closed loop with one
client: the next op starts only after the last one has completed.

With `--trace 0` the last line of standard output is the result, with the
end-to-end metrics of BENCHMARK.json, whose op times are scaled to a
nominal host speed (hostspeed.py); with `--trace 1` a traced run gives the
per-layer metrics instead.  The line before it is a report with the
remaining figures (failure causes, sample counts, provenance, the unscaled
timings, the edge probe, tracing overhead).  Reports and spans are also written to
`.bench_out/` in the checkout.  `--workload all` runs every workload in its
own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("solve-distinct", "formula-replay", "algebra-oneshot", "kst-fit")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_ms.p50", "ms"),
              ("latency_ms.p90", "ms"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5        # fresh processes timed per run; setup_s is their median
SETUP_REFERENCES = 5     # reference times per set-up probe, after set-up; median
ORACLE_BUDGET_S = 5.0    # time for dense-scan checks per run; cheap checks always run
PROBE_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Import `mvfa` from this checkout's src/ only; exit nonzero without it."""
    if not os.path.isfile(os.path.join(SRC, "mvfa", "__init__.py")):
        sys.exit(f"perfbench: no mvfa source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    os.environ.pop("MVFA_TOL", None)   # the CLI must run at its default tolerance


def import_workloads():
    import mvfa
    import workloads

    if os.path.dirname(os.path.abspath(mvfa.__file__)) != os.path.join(SRC, "mvfa"):
        sys.exit(f"perfbench: mvfa was imported from {mvfa.__file__}, not from {SRC}")
    return workloads


def setup_probe(args) -> None:
    """Time import of numpy and mvfa plus workload set-up and one warm-up op,
    then the host-speed reference in the same process."""
    start = time.perf_counter()
    W = import_workloads()
    from spans import NullTracer

    wl = W.WORKLOADS[args.workload](args.seed, workdir(args))
    try:
        wl.op(wl.warmup_input(), NullTracer())
        elapsed = time.perf_counter() - start
    finally:
        close(wl)
    from hostspeed import reference

    ref = statistics.median(reference(wl.REFERENCE) for _ in range(SETUP_REFERENCES))
    print(json.dumps({"setup_s": elapsed, "reference_s": ref}))


def setup_samples(args) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of SETUP_SAMPLES fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["reference_s"]))
    return samples


def workdir(args) -> str:
    return os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")


def close(wl) -> None:
    """Remove the workload's files and its work directory."""
    wl.close()
    if os.path.isdir(wl.workdir):
        os.rmdir(wl.workdir)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, W) -> dict:
    import numpy

    import mvfa

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mvfa": mvfa.__version__, "commit": git_commit(), "platform": platform.platform(),
    }


class Record:
    """The failure cause of one attempted op, if any."""

    __slots__ = ("cause",)

    def __init__(self):
        self.cause = None


class Tally:
    """What the run keeps of its ops: counts, causes and the timings.

    Inputs and outputs are dropped once checked, and timings are packed
    doubles, so the benchmark's own memory barely grows with the number of
    ops and stays out of `peak_rss_mb`.
    """

    def __init__(self):
        self.attempted = 0
        self.causes: dict[str, int] = {}
        self.seconds = array("d")          # untraced op time, every attempted op
        self.refs = array("d")             # reference time before each op (hostspeed)
        self.ok = bytearray()              # 1 for a successful op
        self.traced_ratios = array("d")    # traced / untraced op time
        self.full_checks = 0

    def add(self, rec: Record, seconds: float, ref: float,
            traced_seconds: float | None) -> None:
        self.attempted += 1
        self.seconds.append(seconds)
        self.refs.append(ref)
        self.ok.append(rec.cause is None)
        if rec.cause is not None:
            self.causes[rec.cause] = self.causes.get(rec.cause, 0) + 1
        elif traced_seconds is not None:
            self.traced_ratios.append(traced_seconds / seconds)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


def attempt(fn, rec: Record, errors: dict):
    """Call fn(); on failure set rec.cause (first failure wins) and return None."""
    W = sys.modules["workloads"]
    try:
        return fn()
    except W.OpFailure as exc:
        cause = exc.cause
    except Exception as exc:  # the run must go on: count the op as failed, keep the traceback
        cause = f"raised:{type(exc).__name__}"
        errors.setdefault(cause, traceback.format_exc(limit=6))
    if rec.cause is None:
        rec.cause = cause
    return None


def timed_loop(args, wl, errors: dict):
    """Closed loop for `args.seconds` of wall time, ending on a whole cycle.

    Each op is timed right after the host-speed reference (hostspeed.py),
    and its output is checked right after it, outside the timed region; the
    dense-scan part of the checks runs while its budget lasts.  The traced
    run times every op untraced, then traced (spans), then replays it step
    by step.  Returns the tally, the peak RSS in MB at the end of the loop
    and the tracer.
    """
    from hostspeed import reference
    from spans import NullTracer, Tracer

    untraced = NullTracer()
    tracer = Tracer() if args.trace else None
    tally = Tally()
    oracle_spent = 0.0
    k = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds or k % wl.CYCLE:
        rec = Record()
        inp = wl.make_input(k)
        ref = reference(wl.REFERENCE)
        start = time.perf_counter()
        out = attempt(lambda: wl.op(inp, untraced), rec, errors)
        seconds = time.perf_counter() - start
        traced_seconds = None
        if tracer is not None:
            tracer.op = k
            traced_start = time.perf_counter()
            with tracer.span("op"):
                out = attempt(lambda: wl.op(inp, tracer), rec, errors)
            traced_seconds = time.perf_counter() - traced_start
            if rec.cause is None:
                with tracer.span("stepwise"):
                    cause = attempt(lambda: wl.stepwise(inp, out, tracer), rec, errors)
                rec.cause = rec.cause or cause
        if rec.cause is None:
            full = oracle_spent < ORACLE_BUDGET_S
            start = time.perf_counter()
            cause = attempt(lambda: wl.check(inp, out, full), rec, errors)
            rec.cause = rec.cause or cause
            if full:
                oracle_spent += time.perf_counter() - start
                tally.full_checks += 1
        tally.add(rec, seconds, ref, traced_seconds)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tally, peak_rss_mb, tracer


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(seconds, ok) -> dict:
    """Throughput and latency percentiles of one series of op times."""
    good = [t for t, k in zip(seconds, ok) if k]
    return {
        "ops_per_s": len(good) / sum(seconds),
        "latency_ms.p50": percentile(good, 50) * 1e3 if good else 0.0,
        "latency_ms.p90": percentile(good, 90) * 1e3 if good else 0.0,
    }


def end_to_end(tally: Tally, setup, peak_rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same timings unscaled for the report.

    Set-up and op times are scaled to the nominal host speed (hostspeed.py);
    failed ops count towards the time of `ops_per_s`, and the latencies are
    those of the successful ops.
    """
    from hostspeed import NOMINAL_S, scales

    scaled = [t * f for t, f in zip(tally.seconds, scales(tally.refs))]
    values = {"setup_s": statistics.median(t * NOMINAL_S / ref for t, ref in setup),
              **timing_metrics(scaled, tally.ok), "peak_rss_mb": peak_rss_mb}
    unscaled = {"setup_s": statistics.median(t for t, _ in setup),
                **timing_metrics(tally.seconds, tally.ok),
                "reference_ms": {name: percentile(tally.refs, q) * 1e3
                                 for name, q in (("q1", 25), ("median", 50), ("q3", 75))}}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, unscaled


def per_layer(W, tracer, n_ops: int) -> dict:
    self_times = tracer.self_times()
    scale = {"us": 1e6, "ms": 1e3}
    out = {}
    for name, unit, kind, source in W.LAYER_METRICS:
        if kind == "self":
            vals = [t for _, t in self_times.get(source, [])]
            value = statistics.median(vals) * scale[unit] if vals else 0.0
        elif kind == "per_op":
            per_op = list(tracer.durations(source).values())
            value = statistics.median(per_op) * scale[unit] if per_op else 0.0
        else:
            value = sum(tracer.counts[source].values()) / n_ops
        out[name] = {"value": value, "unit": unit}
    return out


def layer_table(tracer) -> dict:
    """Calls and self time (median and total, ms) of every span name."""
    out = {}
    for name, items in sorted(tracer.self_times().items()):
        times = [t for _, t in items]
        out[name] = {"calls": len(times), "median_ms": statistics.median(times) * 1e3,
                     "total_ms": sum(times) * 1e3}
    return out


def run_one(args) -> None:
    setup = [] if args.trace else setup_samples(args)
    W = import_workloads()
    from spans import NullTracer

    errors: dict[str, str] = {}
    wl = W.WORKLOADS[args.workload](args.seed, workdir(args))
    try:
        warm = Record()
        attempt(lambda: wl.op(wl.warmup_input(), NullTracer()), warm, errors)
        tally, peak_rss_mb, tracer = timed_loop(args, wl, errors)
        edge = wl.edge_probe() if hasattr(wl, "edge_probe") else None
        summary = wl.summary()
    finally:
        close(wl)

    wrong = ("oracle:", "non-json", "stepwise:")
    correct = not any(c.startswith(wrong) or c.endswith(":non-json") for c in tally.causes)
    report = {
        "provenance": provenance(args, W),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted, "failure_causes": tally.causes,
        "latency_samples": sum(tally.ok), "timed_seconds": sum(tally.seconds),
        "oracle_full_checks": tally.full_checks, "warmup_failure": warm.cause,
        **summary,
    }
    if setup:
        report["setup_samples_s"] = [t for t, _ in setup]
    if edge is not None:
        report["edge_probe"] = edge
    if errors:
        report["tracebacks"] = errors
    if tracer is not None:
        if tally.traced_ratios:
            report["tracing_overhead_pct"] = 100.0 * (statistics.median(tally.traced_ratios) - 1)
        report["layers"] = layer_table(tracer)
        metrics = per_layer(W, tracer, tally.attempted)
    else:
        metrics, report["unscaled"] = end_to_end(tally, setup, peak_rss_mb)
    report["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


def run_all(args) -> None:
    """Every workload in its own process; one table of metrics with units."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        results[name] = {"result": json.loads(lines[-1]),
                         "report": json.loads(lines[-2])["report"]}
    for name, res in results.items():
        report, result = res["report"], res["result"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={report['failed_ratio']:.4f} "
              f"causes={report['failure_causes']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
        for metric, value in report.get("unscaled", {}).items():
            if metric != "reference_ms":
                print(f"  {'unscaled ' + metric:28s} {value:14.6g} {result['metrics'][metric]['unit']}")
        if "unscaled" in report:
            print(f"  {'reference_ms.median':28s} {report['unscaled']['reference_ms']['median']:14.6g} ms")
        for extra in ("kst.final_residual", "kst.heldout_rmse"):
            if report.get(extra) is not None:
                print(f"  {extra:28s} {report[extra]:14.6g} 1")
        if "edge_probe" in report:
            edge = report["edge_probe"]
            print(f"  edge probe: attempted={edge['attempted']} failed={edge['failed']} "
                  f"failed_ratio={edge['failed_ratio']:.4f} causes={edge['causes']}")
    print(json.dumps({name: res["result"] for name, res in results.items()}))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        setup_probe(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
