#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload serve-warm --seeds 1,2,3,4,5 [--seconds 20] [--trace 0]

For every metric it prints the median over the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json.  The raw results are
appended as JSON lines to perfbench/_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join("perfbench", "_out"), exist_ok=True)
    log = os.path.join("perfbench", "_out", "spread-%s.jsonl" % args.workload)
    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", args.trace]
        t0 = time.time()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.time() - t0
        if out.returncode != 0:
            print("seed %s: exit %d" % (seed, out.returncode), file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # The host factor the run's times were normalized by (see bench.ml).
        host = [float(l.split()[2].rstrip(":")) for l in lines if l.startswith("host factor ")]
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "wall_s": wall, "host_factor": host, "result": result}) + "\n")
        print("seed %s: %.1f s, host factor %s, correct=%s attempted=%d failed=%d" % (
            seed, wall, host, result["correct"], result["attempted"], result["failed"]))
        if host:
            values.setdefault("(host factor)", []).append(host[0])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = "%.4f" % ((q[2] - q[0]) / abs(med))
        else:
            spread = "-"
        bound = bounds.get(name)
        print("%-40s median %14.6f  spread %8s  bound %s" % (name, med, spread, bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
