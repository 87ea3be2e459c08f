"""Set-up cost of one static cell as the node count grows: seconds and
tracemalloc peak of `harness.build` for N = 81, 289 and 1,024 nodes.

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


def main():
    print("| N | build s | tracemalloc peak MB |")
    print("|---|---|---|")
    for side in SIDES:
        seconds, peak = build_cost(side)
        print("| %d | %.4f | %.1f |" % (side * side, seconds, peak / 2**20))


if __name__ == "__main__":
    main()
