"""Shared helpers used across the test modules: scenario text builders, an
in-process command-line call and an attribute walk."""

import contextlib
import io
import os
import random

from hypothesis import strategies as st

from macsim import cli
from macsim.dcf import MacParams
from macsim.pcf import min_cp_us
from macsim.scenario import parse_scenario

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")


def cli_main(args):
    """Exit code and stderr of one in-process `macsim` call.  An exception
    other than SystemExit (a traceback from the real command) fails the
    test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def fields(obj):
    """(name, value) of each attribute `obj` holds, from its `__dict__` and
    from the `__slots__` along its class's MRO; an unset slot is left out."""
    yield from getattr(obj, "__dict__", {}).items()
    for cls in type(obj).__mro__:
        for name in vars(cls).get("__slots__", ()):
            if hasattr(obj, name):
                yield name, getattr(obj, name)


def shipped(name, duration_us, variant=None):
    """scenarios/<name>.txt cut to duration_us, with `variant` if one is given."""
    with open(os.path.join(SCENARIOS, name + ".txt")) as fh:
        s = parse_scenario(fh.read())
    s.duration_us = duration_us
    if variant is not None:
        s.variant = variant
    return s


def ica_frag(duration_us, variant="dcf+ica"):
    """ica_string with a slow primary sender (node 2 at 2 Mbps) and an
    exposed node 3 that fragments at 400 bytes: each exposed window is long
    enough for several fragments, and its one frame is capped at 400."""
    with open(os.path.join(SCENARIOS, "ica_string.txt")) as fh:
        text = fh.read().replace("[mac]\n", "[mac]\nnode.2.data_rate = 2\n"
                                 "node.3.frag_threshold = 400\n")
    s = parse_scenario(text)
    s.duration_us = duration_us
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
    lines += ["[links]", "hear_range = 50"]
    # A key may be set once: `link_lines` can replace the error-free default.
    if not any(line.startswith("base_fer_high") for line in link_lines):
        lines.append("base_fer_high = 0")
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


def dense_cell(side, seed=1, duration_us=1_000_000):
    """An access point (node 0) and side * side - 1 backlogged senders on a
    side x side grid of 1 m spacing, all in one cell, every flow to the
    access point.  The links are static: no matrix."""
    n = side * side
    lines = ["[sim]", "seed = %d" % seed, "duration_us = %d" % duration_us,
             "[nodes]"]
    lines += ["%d = %d %d" % (i, i % side, i // side) for i in range(n)]
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0",
              "[mac]", "rts_threshold = 500", "[flows]"]
    lines += ["%d = %d 0 backlogged 1000" % (i, i) for i in range(1, n)]
    return "\n".join(lines) + "\n"


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


_FADING = ("0.5 0.5 0 0  0.25 0.5 0.25 0  0 0.25 0.5 0.25  0 0 0.5 0.5")

# Variant tokens: at most one of each group, then any of the extras.
_RATE_TOKENS = [None, "arf", "rbar", "oar"]
_BACKOFF_TOKENS = [None, "mild", "est", "dfs"]
_EXTRA_TOKENS = ["plus", "ica", "2way", "edcf", "pcf"]

# [mac] keys a node.N. line may set, with values worth drawing.
_NODE_KEYS = {"phi": ["0.5", "2"], "data_rate": ["1", "2", "5.5", "11"],
              "rts_threshold": ["0", "3000"], "frag_threshold": ["300", "700"],
              "est_phi": ["0.3"]}


def _variant(draw):
    toks = ["dcf"] + [t for t in (draw(st.sampled_from(_RATE_TOKENS)),
                                  draw(st.sampled_from(_BACKOFF_TOKENS))) if t]
    return "+".join(toks + draw(st.lists(st.sampled_from(_EXTRA_TOKENS),
                                         unique=True)))


@st.composite
def small_scenarios(draw, every_token=False):
    """3-12 nodes in a 40 m square, some sharing a point, hear range <=
    sense range, links below HIGH sometimes free of base errors, and
    backlogged or CBR flows over a few tens of milliseconds.

    With `every_token`, the variant takes any rate, backoff and extra
    tokens, nodes override it and other [mac] keys, a fragment threshold
    may split packets, and the [edcf] and [pcf] sections appear when a
    node runs those tokens, with flows in both EDCF categories.
    """
    n = draw(st.integers(3, 12))
    hear = draw(st.integers(10, 40))
    quality = draw(st.sampled_from(["HIGH", "HIGH", "HIGH", "MID", "BAD"]))
    lines = ["[sim]", "seed = %d" % draw(st.integers(0, 10_000)),
             "duration_us = %d" % draw(st.integers(20_000, 60_000)),
             "capture_ratio = %s" % draw(st.sampled_from(["1.01", "2", "10"])),
             "control_fer = %d" % draw(st.booleans()), "[nodes]"]
    spots = []
    for i in range(n):
        if spots and draw(st.integers(0, 9)) == 0:
            # Two nodes at one point: the received power between them is
            # clamped at phy.MIN_DISTANCE_M, above the 0.1 m grid.
            x, y = draw(st.sampled_from(spots))
        else:
            x, y = draw(st.tuples(st.integers(0, 400), st.integers(0, 400)))
        spots.append((x, y))
        lines.append("%d = %.1f %.1f" % (i, x / 10, y / 10))
    lines += ["[links]", "hear_range = %d" % hear,
              "sense_range = %d" % (hear + draw(st.integers(0, 30))),
              # Mostly HIGH: below it, 11 Mbps DATA frames always error.
              "initial_quality = %s" % quality,
              "base_fer_high = %s" % draw(st.sampled_from(["0", "0.05"]))]
    if quality != "HIGH" and draw(st.booleans()):
        # Error-free below the state's rate cap, but not above it.
        lines.append("base_fer_%s = 0" % quality.lower())
    if draw(st.booleans()):
        lines += ["dwell_us = %d" % draw(st.integers(1_000, 20_000)),
                  "matrix = " + _FADING]
    variant = (_variant(draw) if every_token else draw(st.sampled_from(
        ["dcf", "dcf+2way", "dcf+oar", "dcf+arf"])))
    lines += ["[mac]", "variant = %s" % variant,
              "rts_threshold = %d" % draw(st.sampled_from([0, 500, 3000]))]
    variants = [variant] * n
    frag = [1500] * n
    rates = [11] * n
    if every_token:
        frag = [draw(st.sampled_from([400, 1500]))] * n
        lines.append("frag_threshold = %d" % frag[0])
        for i in range(n):
            if draw(st.integers(0, 3)) == 0:
                variants[i] = _variant(draw)
                lines.append("node.%d.variant = %s" % (i, variants[i]))
            if draw(st.integers(0, 3)) == 0:
                key = draw(st.sampled_from(sorted(_NODE_KEYS)))
                value = draw(st.sampled_from(_NODE_KEYS[key]))
                lines.append("node.%d.%s = %s" % (i, key, value))
                if key == "frag_threshold":
                    frag[i] = int(value)
                elif key == "data_rate":
                    rates[i] = float(value)
    lines.append("[flows]")
    for fid in range(1, draw(st.integers(2, 2 * n)) + 1):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 2))
        dst += dst >= src
        size = draw(st.integers(50, 1500))
        if draw(st.booleans()):
            flow = "%d = %d %d backlogged %d" % (fid, src, dst, size)
        else:
            flow = "%d = %d %d cbr %d %d" % (
                fid, src, dst, size, draw(st.integers(50_000, 2_000_000)))
        if "edcf" in variants[src].split("+") and draw(st.booleans()):
            flow += " cat=1"
        lines.append(flow)
    if any("edcf" in v.split("+") for v in variants):
        lines += ["[edcf]", "cat0 = 50 2.0 16 256",
                  "cat1 = %d 2.0 %d 256" % (draw(st.integers(50, 110)),
                                            draw(st.integers(8, 32)))]
    if any("pcf" in v.split("+") for v in variants):
        pc = draw(st.integers(0, n - 1))
        polled = draw(st.lists(st.sampled_from(
            [i for i in range(n) if i != pc]), min_size=1, unique=True))
        cfp = draw(st.integers(2_000, 15_000))
        # The CP must fit the worst-case exchange of every node.
        cp = max(min_cp_us(MacParams(), f, r) for f, r in zip(frag, rates))
        cp += draw(st.integers(0, 5_000))
        lines += ["[pcf]", "coordinator = %d" % pc,
                  "pollable = %s" % " ".join(map(str, polled)),
                  "superframe_us = %d" % (cfp + cp + draw(st.integers(0, 5_000))),
                  "cfp_max_us = %d" % cfp, "cp_min_us = %d" % cp]
    return "\n".join(lines) + "\n"
