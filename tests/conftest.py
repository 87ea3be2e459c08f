"""Shared helpers: scenario text builders used across the test modules."""

import os
import random

from macsim.scenario import parse_scenario

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")


def shipped(name, duration_us, variant=None):
    """scenarios/<name>.txt cut to duration_us, with `variant` if one is given."""
    with open(os.path.join(SCENARIOS, name + ".txt")) as fh:
        s = parse_scenario(fh.read())
    s.duration_us = duration_us
    if variant is not None:
        s.variant = variant
    return s


def single_cell(n_senders, packet_bytes, seed, duration_us, variant="dcf",
                mac_lines=(), sim_lines=(), link_lines=(), flow_kind=None):
    """n_senders backlogged senders, nodes 1..n, all transmitting to node 0.

    Every node sits well inside one carrier-sense cell.
    """
    lines = ["[sim]", "seed = %d" % seed, "duration_us = %d" % duration_us]
    lines += list(sim_lines)
    lines += ["[nodes]", "0 = 0 0"]
    for i in range(1, n_senders + 1):
        lines.append("%d = %d 0" % (i, i))
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0"]
    lines += list(link_lines)
    lines += ["[mac]", "variant = %s" % variant]
    lines += list(mac_lines)
    lines += ["[flows]"]
    for i in range(1, n_senders + 1):
        lines.append("%d = %d 0 %s" % (i, i,
                                       flow_kind or "backlogged %d" % packet_bytes))
    return "\n".join(lines) + "\n"


def parse(text):
    return parse_scenario(text)


def jittered_grid(side, seed, duration_us, variant="dcf"):
    """side x side grid, 10 m spacing, +-2 m jitter, hear 15 m, sense 25 m.

    Diagonal and two-hop neighbours sit inside sense range but outside hear
    range, so the grid has both hidden and exposed terminals.  Every node on
    one colour of the checkerboard sends to its right or lower neighbour.
    """
    rng = random.Random(seed)
    lines = ["[sim]", "seed = %d" % seed, "duration_us = %d" % duration_us,
             "[nodes]"]
    for r in range(side):
        for c in range(side):
            lines.append("%d = %.2f %.2f" % (r * side + c,
                                             10 * c + rng.uniform(-2, 2),
                                             10 * r + rng.uniform(-2, 2)))
    lines += ["[links]", "hear_range = 15", "sense_range = 25",
              "base_fer_high = 0", "[mac]", "variant = %s" % variant,
              "rts_threshold = 500", "[flows]"]
    fid = 0
    for r in range(side):
        for c in range(side):
            if (r + c) % 2:
                continue
            dst = r * side + c + 1 if c + 1 < side else (r + 1) * side + c
            if dst >= side * side:
                dst = r * side + c - 1
            fid += 1
            lines.append("%d = %d %d backlogged %d"
                         % (fid, r * side + c, dst, rng.randint(500, 1500)))
    return "\n".join(lines) + "\n"
