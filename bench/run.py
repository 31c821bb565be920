"""fqzeta benchmark: one workload, timed for a fixed number of seconds.

    python3 bench/run.py --workload hodge-verify --seed 1 --seconds 30 --trace 0

Runs whole passes over the workload's seeded item set, each pass in an
order shuffled from the seed, until `--seconds` have elapsed; checks every
output against bench/oracles.py; prints a summary line and, last, one JSON
object with the metrics.  `--trace 0` reports the end-to-end metrics from
an untraced process.  `--trace 1` runs untraced for half the time and
traced (bench/tracer.py) for the other half, and reports the per-layer
metrics per traced pass plus trace.overhead_s; its spans are written to
bench/out/.  See bench/README.md.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 15


def import_program():
    """Import fqzeta from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    try:
        import fqzeta
    except ImportError as exc:
        sys.exit(f"bench: cannot import fqzeta from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(fqzeta.__file__))
    if os.path.dirname(where) != SRC:
        sys.exit(f"bench: fqzeta was imported from {where}, not from {SRC}")


def build(workload, seed, workdir):
    import workloads
    rng = random.Random(f"{workload}:{seed}")
    return workloads.WORKLOADS[workload](rng, workdir)


def measure_setup(args):
    """Median over fresh processes of the time until fqzeta is imported and
    the inputs are built (each probe prints a line when it gets there)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, cwd=ROOT)
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.close()
        if probe.wait(timeout=60) != 0 or line.strip() != b"ready":
            sys.exit("bench: set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


def run_passes(groups, seconds, rng, first_serial):
    """Whole passes until `seconds` have elapsed.  Calls are numbered from
    first_serial on, so each gets a serial of its own.

    Returns (per-step timings, passes, attempted, failed, errors)."""
    timings = {step.name: [] for group in groups for step in group}
    attempted = failed = passes = 0
    errors = []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        order = list(groups)
        rng.shuffle(order)
        for group in order:
            for step in group:
                gc.collect()
                serial = first_serial + attempted
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = step.call(serial)
                except Exception as exc:       # counted, reported, run goes on
                    failed += 1
                    errors.append(f"{step.name}: {type(exc).__name__}: {exc}")
                    continue
                timings[step.name].append(time.perf_counter() - t0)
                errors += [f"{step.name}: {e}" for e in step.check(out)]
        passes += 1
    return timings, passes, attempted, failed, errors


def batch_seconds(timings):
    return sum(statistics.median(ts) for ts in timings.values() if ts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hodge-verify", "count-zeta", "cli-docs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        groups = build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        if args.trace:
            return traced_run(args, groups, rng)
        setup_s = measure_setup(args)
        timings, passes, attempted, failed, errors = run_passes(
            groups, args.seconds, rng, 0)

    calls = [t for ts in timings.values() for t in ts]
    medians = {name: statistics.median(ts) for name, ts in timings.items() if ts}
    slowest = max(medians, key=medians.get)
    for err in errors[:20]:
        print("bench: " + err, file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {passes} passes, "
          f"{len(medians)} items, {len(calls)} timed calls, "
          f"{failed} failed, slowest item {slowest}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "batch_s": (batch_seconds(timings), "s"),
        "item_p50_ms": (statistics.median(calls) * 1e3, "ms"),
        "slowest_item_ms": (medians[slowest] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, groups, rng):
    import tracer
    half = args.seconds / 2
    plain, _, att0, fail0, err0 = run_passes(groups, half, rng, 0)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced, passes, att1, fail1, err1 = run_passes(groups, half, rng, att0)
    finally:
        trace.uninstall()
    errors = err0 + err1
    for err in errors[:20]:
        print("bench: " + err, file=sys.stderr)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    trace.write(path)
    metrics = trace.metrics(passes)
    metrics["trace.overhead_s"] = {
        "value": batch_seconds(traced) - batch_seconds(plain), "unit": "s"}
    print(f"bench: {args.workload} seed {args.seed}: {passes} traced passes, "
          f"{len(trace.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": att0 + att1,
                      "failed": fail0 + fail1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
