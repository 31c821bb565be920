"""Steadiness check: run every workload of BENCHMARK.json on seeds 1-10 and
report, per end-to-end metric, the median and the spread (interquartile
range over median, from statistics.quantiles(values, n=4)) against the
bound that BENCHMARK.json sets.

    python3 bench/steady.py

Runs are sequential; each prints its result line as it ends.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(name, seed, json.dumps(result), flush=True)
            ok &= result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"== {name}: failed/attempted per run: {sorted(shares)}")
        for metric, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            note = "" if bound is None else f"  bound {bound}  third {bound / 3:.3f}"
            print(f"   {metric:36s} median {med:12.5g}  spread {spread:.4f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
