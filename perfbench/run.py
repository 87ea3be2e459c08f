"""macsim benchmark: host cost of simulating, on four workloads.

    python3 perfbench/run.py --workload cell_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere; the program is imported from `src/` next to this
directory, and nothing else.  One run measures one workload for `--seconds`
seconds and prints, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: the median wall time
of one operation (`wall_s`), simulated seconds per host second of the event
loop (`sim_speed`), the median set-up time (`setup_s`) and the peak resident
memory of the process (`peak_rss_mb`).  The three times are scaled to a
fixed machine speed (see calibrate.py).  With `--trace 1` they are per layer:
untraced operations first, then traced ones with spans around every layer's
entry points (see layers.py), then one under tracemalloc.

Every operation is checked.  At a seed pinned in digests.json the sha256 of
its CSV and trace output must match; at any other seed every repeat must
give the same bytes.  In both cases each flow must deliver no more bits than
it generated and the clock must end at `duration_us`.  Traced operations
must give the untraced bytes.  The simulated outcomes are outputs to check,
not performance metrics; the model itself is unvalidated (the repository
holds no reference measurements), so no model error is reported.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")  # trace files written by the operations
DEFAULT_SEED = 1
MIN_OPS = 3  # operations per phase, whatever --seconds says
SETUP_SHARE = 0.1  # share of --seconds spent timing set-up
SETUP_BATCH = 10  # set-ups per set-up sample


def load_program():
    """Import macsim from ROOT/src; raise ImportError if it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import macsim.harness  # noqa: F401  (imports every layer)
    import macsim.metrics  # noqa: F401
    import macsim.scenario  # noqa: F401
    if os.path.dirname(os.path.abspath(macsim.__file__)) != os.path.join(src, "macsim"):
        raise ImportError("macsim imported from %s, not %s" % (macsim.__file__, src))
    return macsim


class Checker:
    """Counts operations attempted and failed against the expected output."""

    def __init__(self, expected=None):
        self.expected = expected  # {"csv": sha256, "trace": sha256}, or None
        self.attempted = 0
        self.failed = 0

    def check(self, res):
        self.attempted += 1
        problems = list(res.problems)
        digests = res.digests()
        if self.expected is None:
            self.expected = digests
        elif digests != self.expected:
            problems.append("output %s, expected %s" % (digests, self.expected))
        if problems:
            self.failed += 1
            sys.stderr.write("failed run: %s\n" % "; ".join(problems))
        return not problems

    def crashed(self):
        self.attempted += 1
        self.failed += 1
        traceback.print_exc()


def pinned(name, seed):
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _ops(macsim, its, checker, seconds, min_ops, run=None, clock=None):
    """Operations until `seconds` have passed and at least `min_ops` ran.

    Returns (result, scale factor) pairs; the factor is 1 without a clock.
    """
    run = run or (lambda: workloads.operation(macsim, its, OUT_DIR))
    results = []
    crashes = 0
    deadline = time.perf_counter() + seconds
    while len(results) < min_ops or time.perf_counter() < deadline:
        gc.collect()
        try:
            res = run()
        except Exception:
            checker.crashed()
            crashes += 1
            if crashes >= min_ops:
                break
            continue
        checker.check(res)
        results.append((res, clock.factor() if clock else 1.0))
    return results


def _setup_s(macsim, its, seconds, clock):
    """Median scaled seconds of one set-up, over batches of set-ups."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < 5 or time.perf_counter() < deadline:
        gc.collect()
        t = time.perf_counter()
        for _ in range(SETUP_BATCH):
            workloads.setup(macsim, its)
        samples.append((time.perf_counter() - t) / SETUP_BATCH * clock.factor())
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(macsim, its, checker, seconds):
    clock = calibrate.Clock()
    setup = _setup_s(macsim, its, seconds * SETUP_SHARE, clock)
    results = _ops(macsim, its, checker, seconds * (1 - SETUP_SHARE), MIN_OPS,
                   clock=clock)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("%d operations; unscaled median wall %.4f s, reference pass %.4f s"
          % (len(results), statistics.median(r.wall_s for r, _ in results),
             statistics.median(clock.raw_ref_s)))
    return {
        "wall_s": _metric(statistics.median(r.wall_s * f for r, f in results),
                          "s"),
        "sim_speed": _metric(statistics.median(r.sim_s / (r.loop_s * f)
                                               for r, f in results),
                             "sim-s/host-s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }


def per_layer(macsim, its, checker, seconds):
    # 30% of the time untraced, 60% traced (each about 2x slower), then one
    # operation under tracemalloc.
    plain = _ops(macsim, its, checker, seconds * 0.3, 2)
    traced = []  # (result, tracer)

    def traced_op():
        with layers.Tracer(macsim, workloads) as tracer:
            res = workloads.operation(macsim, its, OUT_DIR)
        if not tracer.restored:
            res.problems.append("a wrapped attribute was not restored")
        traced.append((res, tracer))
        return res

    _ops(macsim, its, checker, seconds * 0.6, 2, traced_op)
    probe = layers.MemoryProbe()

    def memory_op():
        with probe:
            return workloads.operation(macsim, its, OUT_DIR, probe.on_run_end)

    _ops(macsim, its, checker, 0, 1, memory_op)

    untraced_wall = statistics.median(r.wall_s for r, _ in plain)
    rows = sorted((r.wall_s, layers.layer_metrics(t, r.wall_s, untraced_wall, r))
                  for r, t in traced)
    if len({tuple((n, v) for n, v, u in row if u == "count")
            for _, row in rows}) != 1:
        checker.failed += 1
        sys.stderr.write("per-layer counts differ between traced runs\n")
    median_row = rows[(len(rows) - 1) // 2][1]
    print("%d untraced, %d traced operations" % (len(plain), len(traced)))
    return {n: _metric(v, u) for n, v, u in median_row + probe.metrics()}


def measure(name, seed, seconds, trace, scale=1.0):
    """One benchmark run; returns the result object the run prints."""
    macsim = load_program()
    its = workloads.items(name, seed, ROOT, scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    checker = Checker(pinned(name, seed) if scale == 1.0 else None)
    if trace:
        metrics = per_layer(macsim, its, checker, seconds)
    else:
        metrics = end_to_end(macsim, its, checker, seconds)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def run_all(args):
    """Each workload in a fresh interpreter, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write("%s: exit code %d\n" % (name, proc.returncode))
            merged["correct"] = False
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and out["correct"]
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for metric, mv in out["metrics"].items():
            merged["metrics"]["%s.%s" % (name, metric)] = mv
            print("%-16s %-28s %14.6g %s" % (name, metric, mv["value"], mv["unit"]))
    return merged


def pin(seeds):
    """Write the digests of every workload at `seeds` into digests.json."""
    macsim = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    table = {}
    for name in workloads.NAMES:
        table[name] = {}
        for seed in seeds:
            res = workloads.operation(macsim, workloads.items(name, seed, ROOT),
                                      OUT_DIR)
            if res.problems:
                raise SystemExit("%s seed %d: %s" % (name, seed, res.problems))
            table[name][str(seed)] = res.digests()
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", metavar="FIRST-LAST",
                    help="write digests.json for seeds FIRST..LAST and exit")
    args = ap.parse_args(argv)
    if args.pin:
        first, _, last = args.pin.partition("-")
        pin(range(int(first), int(last or first) + 1))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            result = measure(args.workload, args.seed, args.seconds, args.trace)
        except (ImportError, OSError) as e:
            sys.stderr.write("cannot run the benchmark here: %s\n" % e)
            return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
