"""The benchmark's four workloads and the operation each one times.

A workload is a list of scenario runs made from the workload seed alone.
Shipped scenarios are read from `scenarios/` and get the seed as an
override, the same as `macsim run --seed`; generated scenarios are pure
functions of the seed, and the program receives only their text.

One operation is what `macsim run` does for every scenario of the workload:
parse_scenario -> harness.build -> Simulator.run_until -> Recorder.finalize
-> metrics.format_csv, plus the trace write when tracing is on.
"""

import hashlib
import os
import random
import time
from dataclasses import dataclass

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "cell_small": "single_cell.txt, 5 senders, 4-way DCF: the common case, "
                  "mostly mac and engine cost; bypasses optimisations that "
                  "scale with node count",
    "cell_dense": "one generated cell of 80 backlogged senders and an access "
                  "point, all sensing each other: busy/idle edges, set_nav and "
                  "cancelled access timers churn mac and engine",
    "grid_sparse": "generated 8x8 jittered grid with hidden terminals and "
                   "spatial reuse: the topology scan in medium and phy "
                   "dominates, most scanned pairs are out of range",
    "variants_traced": "pcf, ica, dfs and oar with Markov fading, tracing on "
                       "and written to a file: the only workload that runs "
                       "pcf, ext, fairness, rate and formats trace lines",
}

NAMES = tuple(WHY)


@dataclass(frozen=True)
class Item:
    """One scenario run inside a workload's operation."""

    name: str
    text: str  # scenario file text handed to parse_scenario
    seed: int = None  # seed override (shipped scenarios only)
    duration_us: int = None  # duration override (shipped scenarios only)
    variant: str = None  # variant override (shipped scenarios only)
    trace: bool = False


def _shipped(root, fname):
    with open(os.path.join(root, "scenarios", fname)) as fh:
        return fh.read()


def cell_dense_text(seed, duration_us):
    """An access point (node 0) amid 80 backlogged senders on a 9x9 grid of
    1 m spacing, +-0.25 m jitter; every flow goes to the access point, with
    a random packet size that always uses RTS/CTS."""
    rng = random.Random(seed)
    spots = [(c, r) for r in range(-4, 5) for c in range(-4, 5)]
    spots.sort(key=lambda p: p != (0, 0))  # the centre goes to node 0
    lines = ["# cell_dense, generated from seed %d" % seed,
             "[sim]", "seed = %d" % seed, "duration_us = %d" % duration_us,
             "[nodes]"]
    for nid, (x, y) in enumerate(spots):
        lines.append("%d = %.2f %.2f" % (nid, x + rng.uniform(-0.25, 0.25),
                                         y + rng.uniform(-0.25, 0.25)))
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0",
              "[mac]", "rts_threshold = 500", "[flows]"]
    for src in range(1, len(spots)):
        lines.append("%d = %d 0 backlogged %d"
                     % (src, src, rng.randint(1000, 1500)))
    return "\n".join(lines) + "\n"


def grid_sparse_text(seed, duration_us):
    """An 8x8 grid, 10 m spacing, +-0.5 m jitter, hear 15 m, sense 25 m.

    One colour of the checkerboard (chosen by the seed) sends, each node to
    a random grid neighbour, so exactly half the nodes send and no receiver
    sends.
    """
    rng = random.Random(seed)
    side = 8
    lines = ["# grid_sparse, generated from seed %d" % seed,
             "[sim]", "seed = %d" % seed, "duration_us = %d" % duration_us,
             "[nodes]"]
    for r in range(side):
        for c in range(side):
            lines.append("%d = %.2f %.2f" % (r * side + c,
                                             10 * c + rng.uniform(-0.5, 0.5),
                                             10 * r + rng.uniform(-0.5, 0.5)))
    lines += ["[links]", "hear_range = 15", "sense_range = 25",
              "base_fer_high = 0", "[mac]", "rts_threshold = 500", "[flows]"]
    colour = rng.randrange(2)
    fid = 0
    for r in range(side):
        for c in range(side):
            if (r + c) % 2 != colour:
                continue
            peers = [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                     if 0 <= r + dr < side and 0 <= c + dc < side]
            pr, pc = rng.choice(peers)
            fid += 1
            lines.append("%d = %d %d backlogged %d"
                         % (fid, r * side + c, pr * side + pc,
                            rng.randint(1000, 1500)))
    return "\n".join(lines) + "\n"


def items(name, seed, root, scale=1.0):
    """The scenario runs of workload `name` at `seed`; reads scenarios/.

    `scale` shortens every simulated duration (the quick tests use it).
    """
    def us(duration_us):
        return max(1, int(duration_us * scale))

    if name == "cell_small":
        return [Item("single_cell", _shipped(root, "single_cell.txt"), seed,
                     us(4_000_000))]
    if name == "cell_dense":
        return [Item("cell_dense", cell_dense_text(seed, us(150_000)))]
    if name == "grid_sparse":
        return [Item("grid_sparse", grid_sparse_text(seed, us(150_000)))]
    if name == "variants_traced":
        return [
            Item("pcf_infra", _shipped(root, "pcf_infra.txt"), seed,
                 us(800_000), None, True),
            Item("ica_string", _shipped(root, "ica_string.txt"), seed,
                 us(1_200_000), "dcf+ica", True),
            Item("dfs_weighted", _shipped(root, "dfs_weighted.txt"), seed,
                 us(1_200_000), None, True),
            Item("fading_rate", _shipped(root, "fading_rate.txt"), seed,
                 us(2_000_000), "dcf+oar", True),
        ]
    raise ValueError("unknown workload %r" % name)


def _parse(macsim, item):
    s = macsim.scenario.parse_scenario(item.text)
    if item.seed is not None:
        s.seed = item.seed
    if item.duration_us is not None:
        s.duration_us = item.duration_us
    if item.variant is not None:
        s.variant = item.variant
    return s


def setup(macsim, workload_items):
    """parse_scenario + harness.build for every item: the set-up cost."""
    for item in workload_items:
        macsim.harness.build(_parse(macsim, item), trace=item.trace)


class Result:
    """What one operation produced and how long its parts took."""

    def __init__(self):
        self.wall_s = 0.0
        self.loop_s = 0.0  # host time inside run_until
        self.sim_s = 0.0  # simulated seconds
        self.trace_lines = 0
        self.csv = hashlib.sha256()
        self.trace = hashlib.sha256()
        self.problems = []  # output-check failures
        self.metrics = []  # one macsim Metrics per item

    def digests(self):
        return {"csv": self.csv.hexdigest(), "trace": self.trace.hexdigest()}


def write_trace(path, lines):
    """The trace file, written as `macsim run --trace` writes it."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def operation(macsim, workload_items, out_dir, on_run_end=None):
    """Run every item as `macsim run` would, then check the output.

    `on_run_end(item)` is called after each run while its objects are alive.
    """
    res = Result()
    csv_texts = []
    trace_paths = []
    clocks = []  # (item, clock at the end, duration_us)
    t0 = time.perf_counter()
    for item in workload_items:
        s = _parse(macsim, item)
        sim, medium, _macs, recorder = macsim.harness.build(s, trace=item.trace)
        t1 = time.perf_counter()
        sim.run_until(s.duration_us)
        res.loop_s += time.perf_counter() - t1
        m = recorder.finalize(s.duration_us, medium.stats)
        csv_texts.append(macsim.metrics.format_csv({s.variant: m}))
        if item.trace:
            path = os.path.join(out_dir, item.name + ".trace")
            write_trace(path, sim.trace_lines)
            trace_paths.append(path)
            res.trace_lines += len(sim.trace_lines)
        if on_run_end is not None:
            on_run_end(item)
        res.sim_s += s.duration_us / 1e6
        res.metrics.append(m)
        clocks.append((item, sim.now, s.duration_us))
        del sim, medium, _macs, recorder
    res.wall_s = time.perf_counter() - t0

    for item, now, duration_us in clocks:
        if now != duration_us:
            res.problems.append("%s: clock ended at %d, not %d"
                                % (item.name, now, duration_us))
    for item, m in zip(workload_items, res.metrics):
        for fid, fm in m.flows.items():
            if fm.delivered_bits > fm.generated_bits:
                res.problems.append("%s: flow %s delivered %d > generated %d bits"
                                    % (item.name, fid, fm.delivered_bits,
                                       fm.generated_bits))
    for text in csv_texts:
        res.csv.update(text.encode())
    for path in trace_paths:
        with open(path, "rb") as fh:
            res.trace.update(fh.read())
    return res
