"""Set-up cost of one static cell as the node count grows: seconds of
`parse_scenario`, seconds, tracemalloc peak and GC-tracked objects of
`harness.build`, for N = 81, 289 and 1,024 nodes, and of building every
reach table of the medium for N = 81 and 289.  Parse and build have a
column each, so a change shows in the set-up layer it moved; the object
count shows a build that makes more objects per node or flow, which the
cyclic collector then walks.  The reach tables are what the first
transmissions pay.  In one cell every pair is in range, so they are
O(N^2); at 1,024 nodes they hold about a million hearer entries, which
would dominate the sweep.

Then the reach tables of a sparse grid, `jittered_grid` (below) at
N = 1,024 and 4,096: each node has the same few nodes in range at every
N, so the time per node stays flat unless the build tests pairs that
cannot be in range.

Then the run cost of a sparse grid as N grows: `jittered_grid` (10 m
spacing, hear 15 m, sense 25 m, half the nodes backlogged) at N = 64, 256
and 1,024 over 0.2 s simulated.  Each frame's neighbourhood has the same
size at every N, so a cost per transmission that grows with N is work
spent on frames that cannot interact.  A counted run then gives the
carrier-sense calls the medium makes to MacNodes.

Last the run cost of one cell as N grows: `dense_cell` (every node hears
every other, every sender backlogged) at N = 25 and 81 over 0.2 s
simulated.  Every frame reaches N - 1 hearers, so the cost per
transmission grows with N; the count of `MacNode.on_frame` calls per
transmission shows the receive fan-out.

Every timed figure, parse, build and reach tables as well as run cost,
is the median of three timed runs.  Each run is scaled to the reference machine's
seconds by perfbench/calibrate.py's `Clock`, from reference passes just
before and after it, so rows from two runs of this script compare even
when the host's speed drifts between them; each figure is followed by its
median run's scale factor.

    PYTHONPATH=src python tests/setup_sweep.py

Prints four Markdown tables.  It only reports: it fails only on an
exception.
"""

import gc
import os
import sys
import time
import tracemalloc

from conftest import dense_cell, jittered_grid

from macsim import harness
from macsim.mac import MacNode
from macsim.scenario import parse_scenario

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import calibrate  # noqa: E402

SIDES = (9, 17, 32)  # N = side * side
REACH_SIDES = (9, 17)
GRID_REACH_SIDES = (32, 64)
RUN_SIDES = (8, 16, 32)
CELL_SIDES = (5, 9)
RUN_US = 200_000
RUN_REPS = 3  # timed runs per run-cost row; the row takes the median


def build_peak(s):
    """The tracemalloc peak, in bytes, of `harness.build(s)`, and what it
    built."""
    gc.collect()
    tracemalloc.start()
    try:
        built = harness.build(s)
        return tracemalloc.get_traced_memory()[1], built
    finally:
        tracemalloc.stop()


def timed(part):
    """(scaled seconds, scale factor) of one call of `part`."""
    gc.collect()
    clock = calibrate.Clock()
    t = time.perf_counter()
    part()
    seconds = time.perf_counter() - t
    factor = clock.factor()
    return seconds * factor, factor


def median(runs):
    """The median of RUN_REPS runs, each a tuple led by its scaled seconds."""
    return sorted(runs)[RUN_REPS // 2]


def parse_cost(text):
    """(scaled seconds, scale factor) of parsing `text`."""
    return median([timed(lambda: parse_scenario(text))
                   for _ in range(RUN_REPS)])


def build_objects(s):
    """GC-tracked objects that `harness.build(s)` leaves, the build
    included: what it adds to the collector's young generation."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        built = harness.build(s)  # noqa: F841 (kept alive while counting)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def build_cost(side):
    """(scaled build seconds, scale factor, tracemalloc peak bytes,
    GC-tracked objects) of `dense_cell(side)`."""
    s = parse_scenario(dense_cell(side))
    seconds, factor = median([timed(lambda: harness.build(s))
                              for _ in range(RUN_REPS)])
    return seconds, factor, build_peak(s)[0], build_objects(s)


def reach_all(medium, macs):
    for nid in macs:
        medium.reach(nid)


def reach_cost(text):
    """(scaled seconds, scale factor, tracemalloc peak bytes) to build every
    reach table of the freshly built scenario `text`."""
    s = parse_scenario(text)
    runs = []
    for _ in range(RUN_REPS):
        _, medium, macs, _ = harness.build(s)
        runs.append(timed(lambda: reach_all(medium, macs)))
    seconds, factor = median(runs)
    _, medium, macs, _ = harness.build(s)
    gc.collect()
    tracemalloc.start()
    try:
        reach_all(medium, macs)
        return seconds, factor, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reach_row(text):
    """`reach_cost(text)` with its peak in MB."""
    seconds, factor, peak = reach_cost(text)
    return seconds, factor, peak / 2**20


def mac_calls(s, names):
    """Calls of the named MacNode methods in a run of `s`."""
    calls = [0]
    methods = {name: getattr(MacNode, name) for name in names}

    def counted(method):
        def call(mac, *args):
            calls[0] += 1
            method(mac, *args)
        return call

    try:
        for name, method in methods.items():
            setattr(MacNode, name, counted(method))
        sim, _, _, _ = harness.build(s)
        sim.run_until(s.duration_us)
    finally:
        for name, method in methods.items():
            setattr(MacNode, name, method)
    return calls[0]


def run_cost(text, counted):
    """(us per transmission, us per dispatched event, calls of the
    `counted` MacNode methods per transmission, scale factor) of the scenario
    `text`: the times are those of the median of RUN_REPS scaled runs, the
    calls those of one counted run."""
    s = parse_scenario(text)
    runs = []
    for _ in range(RUN_REPS):
        sim, medium, _, _ = harness.build(s)
        runs.append((*timed(lambda: sim.run_until(s.duration_us)),
                     sim.dispatched, medium.stats.total_transmissions))
    seconds, factor, events, tx = median(runs)
    us = seconds * 1e6
    return us / tx, us / events, mac_calls(s, counted) / tx, factor


def main():
    print("| N | parse s | scale factor | build s | scale factor "
          "| tracemalloc peak MB | GC-tracked objects | reach tables s "
          "| scale factor | reach tables peak MB |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for side in SIDES:
        parse = "%.4f | %.3f" % parse_cost(dense_cell(side))
        seconds, factor, peak, objects = build_cost(side)
        reach = "- | - | -"
        if side in REACH_SIDES:
            reach = "%.4f | %.3f | %.1f" % reach_row(dense_cell(side))
        print("| %d | %s | %.4f | %.3f | %.1f | %d | %s |" % (
            side * side, parse, seconds, factor, peak / 2**20, objects,
            reach))
    print()
    print("| N, sparse grid | reach tables s | scale factor "
          "| reach tables peak MB |")
    print("|---|---|---|---|")
    for side in GRID_REACH_SIDES:
        print("| %d | %.4f | %.3f | %.1f |" % (
            side * side, *reach_row(jittered_grid(side, 1, RUN_US))))
    print()
    print("| N | us per transmission | us per event "
          "| carrier-sense calls per transmission | scale factor |")
    print("|---|---|---|---|---|")
    for side in RUN_SIDES:
        print("| %d | %.1f | %.1f | %.2f | %.3f |" % (side * side, *run_cost(
            jittered_grid(side, 1, RUN_US),
            ("on_sense_enter", "on_sense_exit"))))
    print()
    print("| N, one cell | us per transmission | us per event "
          "| on_frame calls per transmission | scale factor |")
    print("|---|---|---|---|---|")
    for side in CELL_SIDES:
        print("| %d | %.1f | %.1f | %.2f | %.3f |" % (side * side, *run_cost(
            dense_cell(side, 1, RUN_US), ("on_frame",))))


if __name__ == "__main__":
    main()
