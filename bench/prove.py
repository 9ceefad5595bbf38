"""Check that the benchmark is steady and record a baseline.

    python3 bench/prove.py --seeds 10 --out bench/baseline.json

Runs `bench/run.py` once per (workload, seed), interleaving the workloads
seed by seed so that machine drift between batches spreads over every
workload instead of landing on one.  For each end-to-end metric it reports
the median and the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median,
next to the metric's bound from BENCHMARK.json.  It then makes two traced
runs per workload with one seed, checks that every count metric repeats
exactly, and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEED = 7


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    details = json.loads(p.stderr.strip().splitlines()[-1])
    return result, details


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            t0 = time.perf_counter()
            result, details = run(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "wall_s": time.perf_counter() - t0,
                            "result": result, "details": details})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w} seed={seed} failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)

    summary, steady = {}, True
    for w in names:
        summary[w] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            med, sp = spread(values)
            ok = m["name"] == "setup_s" or sp <= bounds[m["name"]]
            steady &= ok
            summary[w][m["name"]] = {"median": med, "spread": sp, "bound": bounds[m["name"]],
                                     "unit": m["unit"]}
            print(f"{w:12s} {m['name']:16s} median={med:.5g} {m['unit']:6s} "
                  f"spread={sp:.3f} bound={bounds[m['name']]}{'' if ok else '  OVER'}")

    traces = {}
    for w in names:
        a, _ = run(w, TRACE_SEED, seconds, 1)
        b, _ = run(w, TRACE_SEED, seconds, 1)
        counts_a = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] == "count"}
        counts_b = {k: v["value"] for k, v in b["metrics"].items() if v["unit"] == "count"}
        differ = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
        steady &= not differ
        traces[w] = {
            "seed": TRACE_SEED,
            "counts_identical": not differ,
            "differing": differ,
            "untraced_s": a["metrics"]["trace.untraced_s"]["value"],
            "traced_s": a["metrics"]["trace.traced_s"]["value"],
            "overhead_s": a["metrics"]["trace.overhead_s"]["value"],
            "metrics": {k: v["value"] for k, v in a["metrics"].items()},
        }
        print(f"{w:12s} trace: counts identical={not differ} "
              f"untraced={traces[w]['untraced_s']:.3f}s traced={traces[w]['traced_s']:.3f}s",
              flush=True)

    if args.out:
        first = runs[names[0]][0]["details"]
        doc = {
            "commit": first["commit"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": seconds,
            "seeds": list(seeds),
            "steady": steady,
            "end_to_end": summary,
            "trace": traces,
            "runs": {w: [{"seed": r["seed"], "wall_s": r["wall_s"],
                          "failed": r["result"]["failed"], "attempted": r["result"]["attempted"],
                          "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                          "failures_by_type": r["details"]["failures_by_type"],
                          "tail_percentile": r["details"]["tail_percentile"],
                          "tail_samples": r["details"]["tail_samples"],
                          "round_s": r["details"]["round_s"]}
                         for r in runs[w]] for w in names},
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
