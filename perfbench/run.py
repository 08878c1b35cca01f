#!/usr/bin/env python3
"""Run one herdsplit benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` spends half the
time untraced and half with spans around every call into herdsplit, and
reports per-layer metrics, self times and the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every checked operation gave the right answer.
See perfbench/README.md for the workloads and how to compare two commits.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("oracle-grid", "oracle-fresh", "cli-short", "cli-bulk")
SETUP_REPEATS = 7  # this process's set-up plus six fresh processes
IMPORT_PROBES = 3
LATENCY_SAMPLE = 1 << 16


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(workload, seed):
    """Import herdsplit, build the workload's inputs and warm up; timed."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS[workload](ROOT, seed)
    return w, perf_counter() - t0


def setup_seconds(args, own):
    """Median set-up time over this process and fresh set-up-only processes."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        res = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=60,
        )
        if res.returncode:
            die(f"set-up process failed:\n{res.stderr[-2000:]}")
        times.append(float(res.stdout.split()[-1]))
    return statistics.median(times), len(times)


class LatencySample:
    """Every stride-th latency, halving the kept sample whenever it fills, so
    memory stays fixed however many operations a run completes."""

    def __init__(self, size=LATENCY_SAMPLE):
        self.size = size
        self.kept = []
        self.stride = 1
        self.seen = 0

    def add(self, seconds):
        if self.seen % self.stride == 0:
            self.kept.append(seconds)
            if len(self.kept) == self.size:
                self.kept = self.kept[::2]
                self.stride *= 2
        self.seen += 1


def closed_loop(w, seconds, tracer, outcome):
    """One operation at a time until `seconds` have passed."""
    w.start()
    lat = LatencySample()
    name = f"bench.{w.op_name}"
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        with tracer.op(name):
            try:
                spent, reason = w.op(tracer)
            except Exception as exc:  # a crash is a failed operation
                spent, reason = None, f"{type(exc).__name__}: {exc}"
        if spent is not None:
            lat.add(spent)
        outcome.record(reason is None, reason)
    return lat.seen, perf_counter() - t0, sorted(lat.kept)


def environment(w):
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except Exception:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "nproc": len(os.sched_getaffinity(0)),
        "scans_by_backend": dict(sorted(w.scans.calls.items())),
    }


def print_rows(rows):
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14} {unit:<6} {note}")


def end_to_end(args, w, own_setup):
    from checks import Outcome
    from spans import NullTracer
    from workloads import tail_of

    outcome = Outcome()
    n, elapsed, lat = closed_loop(w, args.seconds, NullTracer(), outcome)
    with_checks = outcome.attempted
    if not lat:
        die(f"no operation completed: {outcome.reasons}")
    w.finish(NullTracer(), outcome)
    setup, setups = setup_seconds(args, own_setup)
    p50 = statistics.median(lat)
    pct, tail = tail_of(lat)
    metrics = {
        "setup_s": (setup, "s", f"median of n={setups} set-ups"),
        "ops_per_s": (n / elapsed, "1/s", f"{n} {w.op_name}s in {elapsed:.3f} s"),
        "peak_rss_mb": (w.peak_rss_mb(), "MB", "peak RSS of the workload's processes"),
    }
    extra = [
        ("fail_ratio", outcome.failed / outcome.attempted, "ratio",
         f"{outcome.failed} failed of {outcome.attempted} attempted "
         f"({with_checks} timed, {outcome.attempted - with_checks} end-of-run)"),
        ("op_p50_ms", p50 * 1e3, "ms", f"n={len(lat)} sampled of {n}"),
        ("op_tail_ms", tail * 1e3, "ms", f"p{pct:g} of n={len(lat)}"),
    ] + list(w.report())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace 0")
    print(f"env {json.dumps(environment(w))}")
    print_rows([(k, v, u, note) for k, (v, u, note) in metrics.items()] + extra)
    return outcome, {k: (v, u) for k, (v, u, _) in metrics.items()}


def per_layer(args, w):
    from checks import Outcome, import_probe
    from spans import NullTracer, Tracer

    half = args.seconds / 2
    outcome = Outcome()
    n_u, el_u, _ = closed_loop(w, half, NullTracer(), outcome)
    tracer = Tracer()
    n_t, el_t, _ = closed_loop(w, half, tracer, outcome)
    t0 = perf_counter()
    w.finish(tracer, outcome)
    traced_wall = el_t + perf_counter() - t0
    probes = [import_probe(w.env, ROOT) for _ in range(IMPORT_PROBES)]

    spans = tracer.by_name()
    scans = w.scans

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def mean_us(name):
        c, total, _ = spans.get(name, (0, 0.0, 0.0))
        return total / c * 1e6 if c else 0.0

    def rate(num, den):
        return num / den if den else 0.0

    procs = [res for _, res in w.procs] or [res for _, _, res in probes]
    values = sum(scans.values.values())
    calls = sum(scans.calls.values())
    enumerate_s = getattr(w, "enumerate_s", 0.0)
    records = getattr(w, "records", 0)
    render_s = spans.get("cli.run", (0, 0.0, 0.0))[2]
    overhead = 1 - rate(n_t, el_t) / rate(n_u, el_u)
    m = {
        "solver.validate_us": (mean_us("solver.validate_spec"), "us"),
        "solver.validate_calls": (count("solver.validate_spec"), "count"),
        "solver.solve_us": (mean_us("solver.solve"), "us"),
        "solver.solve_calls": (count("solver.solve"), "count"),
        "solver.breakdown_us": (mean_us("solver.fractional_breakdown"), "us"),
        "solver.breakdown_calls": (count("solver.fractional_breakdown"), "count"),
        "kernels.scan_us": (mean_us("kernels.oracle_solve"), "us"),
        "kernels.scan_calls": (count("kernels.oracle_solve"), "count"),
        "kernels.values_per_s.numpy": (
            rate(scans.values.get("numpy", 0), scans.seconds.get("numpy", 0)), "1/s"),
        "kernels.values_per_s.python": (
            rate(scans.values.get("python", 0), scans.seconds.get("python", 0)), "1/s"),
        "kernels.calls.numpy": (scans.calls.get("numpy", 0), "count"),
        "kernels.calls.python": (scans.calls.get("python", 0), "count"),
        "kernels.hit_ratio": (rate(scans.hits, calls), "ratio"),
        "kernels.values_per_hit": (rate(values, scans.hits), "count"),
        "generator.records": (records, "count"),
        "generator.records_per_s": (rate(records, enumerate_s), "1/s"),
        "cli.import_ms": (statistics.median(p[0] for p in probes), "ms"),
        "cli.import_numpy_ms": (statistics.median(p[1] for p in probes), "ms"),
        "cli.process_cpu_ms": (statistics.mean(r.cpu_s for r in procs) * 1e3, "ms"),
        "cli.stdout_mb": (statistics.mean(len(r.stdout) for r in procs) / 1e6, "MB"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace 1")
    print(f"env {json.dumps(environment(w))}")
    print(f"spans: {len(tracer.spans)} over {n_t} {w.op_name}s; "
          f"traced wall {traced_wall:.3f} s (loop {el_t:.3f} s + end-of-run checks)")
    print("self time by span (base: traced wall):")
    print(f"  {'span':<30} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self_share':>10}")
    layers = {}
    for name, (c, total, own) in sorted(spans.items()):
        print(f"  {name:<30} {c:>9} {total:>10.4f} {own:>10.4f} {own / traced_wall:>10.4f}")
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    print("self time by layer (base: traced wall):")
    for layer, own in sorted(layers.items()):
        print(f"  {layer:<30} {own:>10.4f} s  share {own / traced_wall:.4f}")
    print("per-layer metrics:")
    rows = [(k, v, u, "") for k, (v, u) in m.items()]
    rows += [
        ("generator.enumerate_s", enumerate_s, "s", "in-process enumerate_specs"),
        ("cli.render_s", render_s, "s", "cli.run self time on the herds argv"),
    ]
    print_rows(rows)
    print(f"  base: {calls} scans, {scans.hits} hits, {values} values; "
          f"{len(procs)} CLI processes; {IMPORT_PROBES} import probes")
    print(f"  trace overhead: untraced {n_u} {w.op_name}s in {el_u:.3f} s "
          f"({rate(n_u, el_u):.6g}/s), traced {n_t} in {el_t:.3f} s "
          f"({rate(n_t, el_t):.6g}/s): {overhead:+.4f} of untraced")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return outcome, m


def main():
    args = parse_args()
    if not (SRC / "herdsplit" / "__init__.py").is_file():
        die(f"no herdsplit sources under {SRC}; run from a full checkout")
    if "HERDSPLIT_BACKEND" in os.environ:
        die("HERDSPLIT_BACKEND is set; unset it so the default scan path is measured")
    try:
        w, own_setup = set_up(args.workload, args.seed)
    except Exception as exc:
        die(f"set-up failed: {type(exc).__name__}: {exc}")
    if args.setup_only:
        print(own_setup)
        return
    if args.trace:
        outcome, metrics = per_layer(args, w)
    else:
        outcome, metrics = end_to_end(args, w, own_setup)
    for reason in outcome.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(1 if outcome.failed else 0)


if __name__ == "__main__":
    main()
