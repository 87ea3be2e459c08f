"""Set-up cost of one static cell as the node count grows: seconds and
tracemalloc peak of `harness.build` for N = 81, 289 and 1,024 nodes, and
of building every reach table of the medium for N = 81 and 289.  The reach
tables are what the first transmissions pay, O(N^2); at 1,024 nodes they
hold about a million hearer entries, which would dominate the sweep.

    PYTHONPATH=src python tests/setup_sweep.py

Prints a Markdown table.  It only reports: it fails only on an exception.
"""

import gc
import time
import tracemalloc

from conftest import dense_cell

from macsim import harness
from macsim.scenario import parse_scenario

SIDES = (9, 17, 32)  # N = side * side
REACH_SIDES = (9, 17)


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


def build_cost(side):
    """(best of five build seconds, tracemalloc peak bytes) of
    `dense_cell(side)`."""
    s = parse_scenario(dense_cell(side))
    best = float("inf")
    for _ in range(5):
        gc.collect()
        t = time.perf_counter()
        harness.build(s)
        best = min(best, time.perf_counter() - t)
    return best, build_peak(s)[0]


def reach_cost(side):
    """(best of three seconds, tracemalloc peak bytes) to build every reach
    table of a freshly built `dense_cell(side)`."""
    s = parse_scenario(dense_cell(side))
    best = float("inf")
    for _ in range(3):
        _, medium, macs, _ = harness.build(s)
        gc.collect()
        t = time.perf_counter()
        for nid in macs:
            medium.reach(nid)
        best = min(best, time.perf_counter() - t)
    _, medium, macs, _ = harness.build(s)
    gc.collect()
    tracemalloc.start()
    try:
        for nid in macs:
            medium.reach(nid)
        return best, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    print("| N | build s | tracemalloc peak MB | reach tables s "
          "| reach tables peak MB |")
    print("|---|---|---|---|---|")
    for side in SIDES:
        seconds, peak = build_cost(side)
        reach = "- | -"
        if side in REACH_SIDES:
            reach_s, reach_peak = reach_cost(side)
            reach = "%.4f | %.1f" % (reach_s, reach_peak / 2**20)
        print("| %d | %.4f | %.1f | %s |" % (side * side, seconds,
                                             peak / 2**20, reach))


if __name__ == "__main__":
    main()
