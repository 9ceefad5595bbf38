"""rigidlab benchmark: one workload, one seed, one process, one client.

    python3 bench/run.py --workload case2_ball --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from `src/`.

--trace 0 measures the end-to-end metrics.  A closed loop with one client
runs whole rounds of seeded instances until --seconds have passed at the
reference speed, and checks every verdict against its known answer.
`setup_s` is the median wall time of fresh interpreters that import
rigidlab and generate one round of the workload's inputs.  Times are
reported at a reference machine speed, which a fixed kernel timed between
instances measures (see Speed).  The raw wall-clock values are in the
details.

--trace 1 measures the per-layer metrics on a fixed number of rounds, so
that counts repeat exactly for a given seed.  The rounds run untraced and
traced, alternately, three times each; the difference in pass time is the
tracing overhead.  Each pass ends with a probe of the workload's
known-defect instances, which the timed rounds leave out;
`known_defects.failed` counts how many of them fail.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Details (failures by type, the tail
percentile and its sample count, seed, Python version, nproc, commit) go
to stderr and to .bench_out/.
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
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MAX_STRETCH = 1.5
# the kernel's typical time on a 2-core x86-64 VM with CPython 3.11; times
# are reported at this speed
KERNEL_NOMINAL_S = 1.3e-3


def kernel():
    """Fixed pure-Python work of the library's kind: rational arithmetic and
    tuple-keyed dicts.  It never touches rigidlab, so no change to the
    library can change its time; only the machine's speed can."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, i)
        seen[(i, i % 5)] = acc.numerator % 97
    return len(seen)


class Speed:
    """Kernel times taken between instances, to report times at a fixed
    reference speed.

    On a VM whose cores are shared with other tenants, speed drifted by up
    to 1.6x between runs of identical work, and in bursts of a few seconds
    within a run.  Each instance's time is divided by its local factor: the
    mean of the kernel times just before and just after it, over
    KERNEL_NOMINAL_S.  Runs taken minutes apart then compare the program,
    not the machine.
    """

    def __init__(self):
        self.samples = []

    def sample(self, reps=1):
        # garbage the program left behind must not be collected on the
        # kernel's clock, or a program that allocates more would read faster
        gc.disable()
        try:
            for _ in range(reps):
                t0 = perf_counter()
                kernel()
                self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()

    def factor(self, i=None) -> float:
        """Local factor around instance i (sampled before it and after it),
        or the median over the whole run."""
        if i is None:
            return statistics.median(self.samples) / KERNEL_NOMINAL_S
        return (self.samples[i] + self.samples[i + 1]) / (2 * KERNEL_NOMINAL_S)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Record:
    __slots__ = ("round", "kind", "seconds", "status", "witness_frac", "wrong")

    def __init__(self, round_, kind, seconds, status, witness_frac=None, wrong=False):
        self.round = round_
        self.kind = kind
        self.seconds = seconds
        self.status = status
        self.witness_frac = witness_frac
        self.wrong = wrong


def measure(workload, seconds=None, rounds=None, tracer=None, speed=None):
    """Run whole rounds until `seconds` pass, or `rounds` rounds.

    With a tracer, input generation and the solve calls are traced; the
    benchmark's own checks are not.  With a Speed, the kernel is timed
    after every instance.
    """
    records = []
    done = 0
    gen = workload.rounds()
    if speed:
        speed.sample()
    start = perf_counter()
    while True:
        if tracer:
            tracer.active = True
        batch = next(gen)
        for kind, inputs in batch:
            t0 = perf_counter()
            try:
                result = workload.solve(kind, inputs)
            except Exception as exc:  # any exception fails the instance, by type
                secs = perf_counter() - t0
                result, status = None, type(exc).__name__
            else:
                secs = perf_counter() - t0
            if tracer:
                tracer.active = False
            if result is None:
                records.append(Record(done, kind, secs, status))
            else:
                out = workload.check(kind, inputs, result)
                records.append(Record(done, kind, secs, out.status, out.witness_frac,
                                      out.wrong))
            if speed:
                speed.sample()
            if tracer:
                tracer.active = True
        if tracer:
            tracer.active = False
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif perf_counter() - start >= seconds * min(speed.factor() if speed else 1.0,
                                                     MAX_STRETCH):
            # with a Speed, `seconds` is reference-speed time, so a slow
            # spell of the machine does not shrink the sample; MAX_STRETCH
            # bounds the wall time all the same
            break
    return records, done, perf_counter() - start


def probe(workload, tracer=None):
    """Run the workload's known-defect instances; failures by kind and type."""
    failures = {}
    for kind, inputs in workload.defects():
        if tracer:
            tracer.active = True
        try:
            result = workload.solve(kind, inputs)
        except Exception as exc:  # any exception fails the instance, by type
            status = type(exc).__name__
        else:
            status = None
        finally:
            if tracer:
                tracer.active = False
        if status is None:
            status = workload.check(kind, inputs, result).status
        if status != "ok":
            key = f"{kind}.{status}"
            failures[key] = failures.get(key, 0) + 1
    return failures


def setup_seconds(workload: str, seed: int) -> tuple:
    """Wall times of fresh interpreters that import rigidlab and generate one
    round of inputs, raw and at the reference speed (the kernel is timed
    right before each).  One untimed probe first fills the bytecode cache."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        speed = Speed()
        speed.sample(reps=15)
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
        if k:
            raw.append(perf_counter() - t0)
            scaled.append(raw[-1] / speed.factor())
    return raw, scaled


def median_of_rounds(times, records):
    """Median over rounds of each round's median correct-verdict time.

    Every round holds the same mix of instance kinds.  A median pooled over
    the whole run can fall between two kinds (the grid's eight passing
    criteria have no middle one), where it reads the extreme value of each
    kind; the median of round medians reads their typical values.
    """
    by_round = {}
    for t, r in zip(times, records):
        if r.status == "ok":
            by_round.setdefault(r.round, []).append(t)
    return statistics.median(statistics.median(v) for v in by_round.values())


def tail(values):
    """The value with TAIL_BEYOND samples above it, and its percentile."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0 * (n - 1) / n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _git_commit():
    """HEAD's commit when the root is a git checkout, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _witness_recorder(fracs):
    """Tracer that only records |W| / |universe| of each case-1/case-2
    witness built, for the grid, whose criteria build witnesses internally."""
    from rigidlab import product
    from tracer import Tracer

    def hook(counts, parent, args, kwargs, result, exc):
        if result is not None:
            fracs.append(len(result.witness.subset) / result.product.structure.n)

    t = Tracer()
    t.install([("product.witness_case1", product, "witness_case1", hook),
               ("product.witness_case2", product, "witness_case2", hook)], [])
    return t


def end_to_end(args, workloads, work_dir):
    setup_raw, setup_scaled = setup_seconds(args.workload, args.seed)
    speed = Speed()
    fracs = []
    recorder = _witness_recorder(fracs) if args.workload == "grid" else None
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if recorder:
            recorder.active = True
        records, rounds, wall = measure(wl, seconds=args.seconds, speed=speed)
    finally:
        if recorder:
            recorder.active = False
            recorder.uninstall()
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [r for r in records if r.status == "ok"]
    if not fracs:
        fracs = [r.witness_frac for r in ok]
    raw_ms = [1000.0 * r.seconds for r in records]
    # each instance at the reference speed, by the kernel times around it
    scaled_ms = [t / speed.factor(i) for i, t in enumerate(raw_ms)]

    def timing(ms):
        ok_ms = [t for t, r in zip(ms, records) if r.status == "ok"]
        if not ok_ms:
            return {"verdicts_per_s": 0.0, "verdict_p50_ms": float("nan"),
                    "verdict_tail_ms": float("nan")}, None
        tail_ms, tail_pct = tail(ok_ms)
        return {"verdicts_per_s": 1000.0 * len(ok_ms) / sum(ms),
                "verdict_p50_ms": median_of_rounds(ms, records),
                "verdict_tail_ms": tail_ms}, tail_pct

    metrics, tail_pct = timing(scaled_ms)
    metrics.update({
        "correct_frac": len(ok) / len(records),
        "witness_frac": statistics.fmean(fracs) if fracs else float("nan"),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    })
    raw = timing(raw_ms)[0]
    raw["setup_s"] = statistics.median(setup_raw)
    timed = sum(r.seconds for r in records)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(1000.0 * r.seconds)
    details = {
        "rounds": rounds,
        "wall_s": wall,
        "timed_s": timed,
        "round_s": timed / rounds,
        "tail_percentile": tail_pct,
        "tail_samples": len(ok),
        "speed_factor": speed.factor(),
        "kernel_samples": len(speed.samples),
        "raw": raw,
        "setup_samples_s": setup_raw,
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    return records, metrics, details


def per_layer(args, workloads, work_dir, names):
    """Untraced and traced passes over the same rounds, three times each
    and interleaved, so that warm-up does not land on one side only.  Pass
    wall times are at the reference speed; self times are raw."""
    import layers
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    untraced, traced, tracers, defects = [], [], [], []

    def timed_pass(tracer=None):
        # one pass over the rounds and the defect probe, timed at the
        # reference speed
        speed = Speed()
        speed.sample(reps=10)
        wl = cls(args.seed, work_dir)
        try:
            t0 = perf_counter()
            records, _, _ = measure(wl, rounds=cls.TRACE_ROUNDS, tracer=tracer)
            defects.append(probe(wl, tracer))
            wall = perf_counter() - t0
        finally:
            wl.close()
        speed.sample(reps=10)
        return records, wall / speed.factor()

    for _ in range(3):
        untraced.append(timed_pass()[1])
        tracer = Tracer()
        tracer.install(layers.SPANS, layers.COUNTERS)
        try:
            records, wall = timed_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tracers.append(tracer)
    if any(t.counts != tracers[0].counts for t in tracers):
        raise RuntimeError("traced passes over the same inputs counted differently")
    if any(d != defects[0] for d in defects):
        raise RuntimeError("defect probes over the same inputs failed differently")

    tracer = tracers[0]
    values = {
        "trace.untraced_s": statistics.median(untraced),
        "trace.traced_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.spans": tracer.span_count,
        "known_defects.failed": sum(defects[0].values()),
    }
    metrics = {n: values[n] if n in values else layers.layer_value(tracer, n) for n in names}
    spans_path = os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write_spans(spans_path)
    details = {
        "rounds": cls.TRACE_ROUNDS,
        "untraced_s": untraced,
        "traced_s": traced,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "known_defects": defects[0],
        "exceptions": {k: v for k, v in sorted(tracer.counts.items()) if ".raised." in k},
    }
    return records, metrics, details


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "rigidlab", "__init__.py")):
        print("bench: src/rigidlab not found; run from a rigidlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)

    if args.setup_probe:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        next(wl.rounds())
        wl.close()
        return 0

    spec = _spec()
    if args.trace:
        import layers

        names = [m["name"] for m in spec["per_layer"]]
        unknown = [n for n in names if not (n.startswith("trace.") or n == "known_defects.failed"
                                            or layers.known_metric(n))]
        if unknown:
            print(f"bench: BENCHMARK.json names unknown layer metrics {unknown}", file=sys.stderr)
            return 1
        records, values, details = per_layer(args, workloads, work_dir, names)
    else:
        records, values, details = end_to_end(args, workloads, work_dir)
        names = [m["name"] for m in spec["end_to_end"]]
        if set(names) != set(values):
            print(f"bench: BENCHMARK.json end_to_end {sorted(names)} differs from "
                  f"the measured {sorted(values)}", file=sys.stderr)
            return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    failures = {}
    for r in records:
        if r.status != "ok":
            failures[r.status] = failures.get(r.status, 0) + 1
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "attempted": len(records),
        "failures_by_type": failures,
        "wrong": sum(r.wrong for r in records),
    })
    detail_path = os.path.join(
        work_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    print(json.dumps(details, sort_keys=True), file=sys.stderr)

    result = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
