#!/usr/bin/env python3
"""Records the benchmark's baseline and checks that it is steady.

    python3 perfbench/baseline.py --seeds 1-10 --trace_seeds 1,2 \\
        --out perfbench/baseline.json

For every workload it runs perfbench/run.py once per seed with --trace 0,
then once per trace seed with --trace 1. It reports each end-to-end metric's
median and its spread, the inter-quartile range over the median as
statistics.quantiles(values, n=4) gives it, against the metric's bound in
BENCHMARK.json, and writes every value it saw to --out. Exits non-zero when
a run is incorrect or a spread other than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def print_traced_table(out, names):
    """The traced metrics of each workload's first trace seed, as markdown."""
    print("\n| traced metric | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    first = {w: next(iter(out["workloads"][w]["traced"].values()))
             for w in names}
    for metric in list(run.LAYER_UNITS) + ["obs.trace_overhead_frac",
                                           "fail_frac"]:
        print(f"| `{metric}` | " + " | ".join(
            f"{first[w][metric]:.4g}" for w in names) + " |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace_seeds", default="1,2")
    parser.add_argument("--workloads", default=",".join(sorted(run.WORKLOADS)))
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    ok = True
    out = {"run_seconds": seconds, "nproc": os.cpu_count(), "seeds": seeds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect or failed")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = benchlib.spread(vals)
            summary[name] = {"median": statistics.median(vals), "q1": q1,
                             "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "values": vals}
            within = name == "setup_s" or spread <= bounds.get(name, 0)
            ok = ok and within
            print(f"  {workload} {name}: median {statistics.median(vals):.6g}"
                  f" spread {spread:.4f} bound {bounds.get(name)}"
                  f"{'' if within else '  OVER BOUND'}", flush=True)
        traced = {}
        for seed in parse_seeds(args.trace_seeds):
            result = run_once(workload, seed, seconds, 1)
            if result is None or not result["correct"]:
                print(f"{workload} traced seed {seed}: incorrect or failed")
                ok = False
                continue
            traced[str(seed)] = {k: v["value"]
                                 for k, v in result["metrics"].items()}
            print(f"  {workload} traced at seed {seed}", flush=True)
        out["workloads"][workload] = {"end_to_end": summary, "traced": traced}
    names = [w for w, d in out["workloads"].items() if d["traced"]]
    if names:
        print_traced_table(out, names)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True)
                                  + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
