"""Run-wide invariants over random scenarios with every variant token, and
memory that stays flat over a long run."""

import gc
import os
import random
import subprocess
import sys
import zlib
from collections import Counter, deque

import pytest
from conftest import SCENARIOS, fields, shipped, small_scenarios
from hypothesis import example, given, settings

import macsim
from macsim import harness, metrics
from macsim.engine import Simulator
from macsim.mac import MacNode, Packet
from macsim.medium import Medium
from macsim.metrics import Recorder
from macsim.scenario import parse_scenario


def _run(text):
    s = parse_scenario(text)
    r = harness.run(s, trace=True)
    return r, metrics.format_csv({s.variant: r.metrics}), r.trace_lines


# Found with more examples than the test runs: node 3 has planned an ICA
# fragment for 689,380 us, and at 689,331 it answers a DATA frame for it
# with an ACK.  The fragment used to go out over its own ACK; now the
# window is aborted.
_ICA_UNDER_OWN_ACK = """\
[sim]
seed = 10000
duration_us = 690000
capture_ratio = 1.01
control_fer = 1
[nodes]
0 = 8.8 19.5
1 = 3.7 39.2
2 = 0.0 4.8
3 = 11.9 34.1
4 = 24.7 7.2
5 = 19.5 8.2
6 = 2.6 22.8
7 = 8.0 34.1
8 = 21.0 11.3
9 = 19.5 8.2
10 = 0.0 0.0
[links]
hear_range = 27
dwell_us = 1115
matrix = 0.5 0.5 0 0  0.25 0.5 0.25 0  0 0.25 0.5 0.25  0 0 0.5 0.5
[mac]
variant = dcf+oar+ica+edcf
rts_threshold = 0
node.1.variant = dcf+dfs
[flows]
1 = 8 0 cbr 50 50000
2 = 0 1 cbr 50 50000
3 = 0 1 cbr 50 50000
4 = 9 0 cbr 50 50000
5 = 6 0 cbr 50 50000 cat=1
6 = 0 3 backlogged 606
8 = 3 0 backlogged 50
9 = 6 2 cbr 383 50000
10 = 1 0 backlogged 524
12 = 5 2 cbr 128 50000
16 = 5 0 backlogged 50
20 = 2 0 backlogged 50
[edcf]
cat0 = 50 2.0 16 256
cat1 = 71 2.0 15 256
[pcf]
coordinator = 5
pollable = 1
superframe_us = 14128
cfp_max_us = 3584
cp_min_us = 7423
"""


class _ShuffledTies(Simulator):
    """Dispatches the events due at one instant in a seeded random order.
    The heap breaks ties by seq, which `schedule` and `reschedule` read from
    `_seq` once per call and then advance; here each read gives random high
    bits over a count that keeps every seq unique."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._count = 0
        super().__init__()

    @property
    def _seq(self):
        return self._rng.getrandbits(32) << 32 | self._count

    @_seq.setter
    def _seq(self, value):
        self._count += 1


def test_shuffled_ties_reorder_only_same_time_events():
    sim = _ShuffledTies(1)
    order = []
    for i in range(20):
        sim.schedule(5 + i // 10, "e", 0, lambda i=i: order.append(i))
    sim.run_until(6)
    assert sorted(order[:10]) == list(range(10)) != order[:10]
    assert sorted(order[10:]) == list(range(10, 20))


def _keeps_the_invariants(text, simulator):
    """Runs `text` twice on Simulators from `simulator` and checks the
    run-wide invariants."""
    generated, dropped = [], []
    spans = {}  # id of a live frame's entry -> (start, end)
    reassemble, mac_transmit = MacNode._reassemble, MacNode._transmit
    medium_transmit, medium_end = Medium.transmit, Medium._end
    on_generated, on_drop = Recorder.on_generated, Recorder.on_drop

    def checked(mac, frame):
        # Reassembly keeps a high-water mark: no frame may start above it.
        assert frame.frag_offset <= frame.packet.received
        reassemble(mac, frame)

    def generate(rec, pkt):
        generated.append(pkt)
        on_generated(rec, pkt)

    def drop(rec, pkt):
        if pkt.received < pkt.size:
            dropped.append(pkt.pid)
        on_drop(rec, pkt)

    def one_frame(mac, *args):
        # A node has at most one frame of its own on the air.
        assert not mac.self_tx, "node %d sends twice at once" % mac.node_id
        return mac_transmit(mac, *args)

    def sense_counts(medium):
        # Each node counts the frames on the air in its sense range.
        on_air = Counter(mac.node_id for tx in medium.active.values()
                         for mac in tx.reach.sensing)
        assert {nid: mac.sense_count for nid, mac in medium.macs.items()} \
            == {nid: on_air[nid] for nid in medium.macs}

    def transmit(medium, *args):
        medium_transmit(medium, *args)
        tx = next(reversed(medium.active.values()))
        spans[id(tx.entry)] = (tx.start, tx.end)
        sense_counts(medium)

    def end(medium, tx, *args):
        # Every frame in the concurrency list overlapped this one in time.
        for e in tx.concurrent:
            start, stop = spans[id(e)]
            assert start < tx.end and stop > tx.start, \
                "frames of nodes %d and %d do not overlap" % (e[0], tx.sender)
        medium_end(medium, tx, *args)
        sense_counts(medium)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Simulator", simulator)
        for owner, name, fn in ((MacNode, "_reassemble", checked),
                                (MacNode, "_transmit", one_frame),
                                (Medium, "transmit", transmit),
                                (Medium, "_end", end),
                                (Recorder, "on_generated", generate),
                                (Recorder, "on_drop", drop)):
            mp.setattr(owner, name, fn)
        r, csv, trace = _run(text)
    times = [int(line.split("\t", 1)[0]) for line in trace]
    assert times == sorted(times), "dispatch times went backwards"

    # Each packet ends delivered, dropped or queued, exactly once.
    in_queue = [pkt.pid for mac in r.macs.values() for cat in mac.cats
                for pkt in cat.queue]
    queued = set(in_queue)
    assert len(queued) == len(in_queue)
    assert len(set(dropped)) == len(dropped)
    dropped = set(dropped)
    for pkt in generated:
        delivered = pkt.received >= pkt.size
        # A delivered packet stays queued until its sender hears the ACK.
        n = delivered + (pkt.pid in dropped) + (
            pkt.pid in queued and not delivered)
        assert n == 1, "packet %d counted %d times" % (pkt.pid, n)
    for fid, fm in r.metrics.flows.items():
        waiting = sum(pkt.flow_id == fid and pkt.pid in queued
                      and pkt.received < pkt.size for pkt in generated)
        assert fm.generated_packets == sum(pkt.flow_id == fid
                                           for pkt in generated)
        assert fm.delivered_packets <= fm.generated_packets
        assert fm.generated_packets == (fm.delivered_packets + fm.drops
                                        + waiting)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Simulator", simulator)
        _, csv2, trace2 = _run(text)
    assert csv2 == csv
    assert trace2 == trace


@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_scenarios(every_token=True))
@example(text=_ICA_UNDER_OWN_ACK)
def test_every_variant_token_keeps_the_invariants(text):
    _keeps_the_invariants(text, Simulator)


# The model's outcomes must not hinge on the order of same-instant events,
# which changes the output bytes but none of the invariants.
@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_scenarios(every_token=True))
@example(text=_ICA_UNDER_OWN_ACK)
def test_every_variant_token_keeps_the_invariants_in_any_tie_order(text):
    seed = zlib.crc32(text.encode())
    _keeps_the_invariants(text, lambda: _ShuffledTies(seed))


def _size(value):
    """Entries in a container, counting those of containers inside it."""
    items = value.values() if isinstance(value, dict) else value
    return len(value) + sum(_size(v) for v in items
                            if isinstance(v, (dict, list, set, deque)))


def _footprint(name, variant, duration_us):
    """Live Packets and the size of every container held by the run's
    Simulator (its heap too), Medium, MediumStats, link-quality process,
    MacNodes, their access categories, rate and backoff schemes and point
    coordinator, and the Recorder, after a run of shipped scenario `name`
    cut to `duration_us`.  Also the medium's live concurrency entries,
    counted before any cyclic collection: the run has the collector off,
    so only reference counting frees them."""
    gc.disable()
    try:
        r = harness.run(shipped(name, duration_us, variant))
        medium = r.medium
        powers = {id(reach.power) for reach in medium._reach_of.values()}
        entries = sum(type(o) is list and len(o) == 4 and id(o[2]) in powers
                      for o in gc.get_objects())
    finally:
        gc.enable()
    gc.collect()
    sizes = {"live Packets": sum(isinstance(o, Packet)
                                 for o in gc.get_objects()),
             "live concurrency entries": entries}
    owners = [("recorder", r.recorder), ("sim", r.sim), ("medium", medium),
              ("medium.stats", medium.stats), ("quality", medium.quality)]
    for nid, mac in r.macs.items():
        owners += [("mac%d" % nid, mac), ("mac%d.rate" % nid, mac.rate_scheme),
                   ("mac%d.backoff" % nid, mac.backoff_scheme)]
        owners += [("mac%d.cat%d" % (nid, c.index), c) for c in mac.cats]
    if medium.coordinator is not None:
        owners.append(("coordinator", medium.coordinator))
    for label, owner in owners:
        for key, value in fields(owner):
            if isinstance(value, (dict, list, set, deque)):
                sizes["%s.%s" % (label, key)] = _size(value)
    return r, sizes


def test_memory_stays_flat_over_a_long_run():
    # single_cell collides the most; fading_rate as dcf+oar+est fades its
    # links and keeps Est's windows; pcf_infra runs the point coordinator.
    grown = {}
    for name, variant in (("single_cell", None),
                          ("fading_rate", "dcf+oar+est"),
                          ("pcf_infra", None)):
        short, before = _footprint(name, variant, 2_000_000)
        long, after = _footprint(name, variant, 8_000_000)
        # The exact p95 keeps every delay, and the fairness series needs one
        # bin per flow and window: both are as long as the output.
        for r, sizes in ((short, before), (long, after)):
            rec = r.recorder
            nflows = len(rec.flows)
            assert sizes.pop("recorder.delays") == nflows + sum(
                f.delivered_packets for f in r.metrics.flows.values())
            windows = r.sim.now // rec.window_us + 1
            assert sizes.pop("recorder.window_bits", 0) <= nflows * windows
        # A store that is empty between exchanges (an idle node has no
        # chain) may be missing from either run.
        grown.update({"%s: %s" % (name, k): (before.get(k, 0), n)
                      for k, n in after.items() if n > before.get(k, 0) + 10})
    assert not grown, "stores grow with run length: %s" % grown


# Runs `macsim run --trace` and prints the peak RSS of this process in kB.
# On Linux, ru_maxrss carries the parent's peak over through fork and exec,
# so a child of a large test process would report that; VmHWM is the peak
# of the child's own address space.
_TRACED_PEAK = """
import sys
from macsim import cli
cli.main(["run", sys.argv[1], "--trace", sys.argv[2], "--out", sys.argv[3]])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def test_traced_run_memory_stays_flat(tmp_path):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads VmHWM from /proc")
    with open(os.path.join(SCENARIOS, "single_cell.txt")) as fh:
        text = fh.read()
    assert "duration_us = 10000000" in text
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(macsim.__file__))))
    peaks = []
    for seconds in (10, 40):
        path = tmp_path / ("cell_%d.txt" % seconds)
        path.write_text(text.replace("duration_us = 10000000",
                                     "duration_us = %d" % (seconds * 10**6)))
        child = subprocess.run(
            [sys.executable, "-c", _TRACED_PEAK, str(path),
             str(tmp_path / ("%d.trace" % seconds)),
             str(tmp_path / ("%d.csv" % seconds))],
            env=env, stdout=subprocess.PIPE, text=True, timeout=300,
            check=True)
        peaks.append(int(child.stdout) / 1024)
    with open(tmp_path / "40.trace") as fh:
        lines = sum(1 for _ in fh)
    assert lines > 500_000  # a kept trace would hold all of them
    # A trace kept in memory until the run ends adds about 80 MB here.
    assert peaks[1] - peaks[0] < 5, "peak RSS %.1f MB at 10 s, %.1f MB at " \
        "40 s" % tuple(peaks)
