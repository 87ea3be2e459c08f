"""Metric collection and CSV emission.

A Recorder rides along during a run and counts into one FlowMetrics per
flow: packet generation, delivery (reported once per packet by the
destination's MAC, which keeps the reassembly state on the Packet) and drops
(CF responses that never arrived among them).  Each delivery's delay and the
per-window delivered bits behind the fairness series stay on the Recorder.
finalize() completes the records, adds the medium's collision counts and
returns them in a Metrics value.
"""

import math
from dataclasses import dataclass, field

from .fairness import fairness_index


# Slotted: a kept result holds its Metrics and one FlowMetrics per flow.
@dataclass(slots=True)
class FlowMetrics:
    generated_bits: int = 0
    generated_packets: int = 0
    delivered_bits: int = 0
    delivered_packets: int = 0
    drops: int = 0
    mean_delay_us: float = 0.0
    p95_delay_us: float = 0.0


@dataclass(slots=True)
class Metrics:
    duration_us: int = 0
    flows: dict = field(default_factory=dict)  # flow id -> FlowMetrics
    collision_events: int = 0
    total_transmissions: int = 0
    ack_collisions: int = 0
    fairness_series: list = field(default_factory=list)  # (window idx, value)

    @property
    def collision_fraction(self):
        if self.total_transmissions == 0:
            return 0.0
        return self.collision_events / self.total_transmissions

    @property
    def aggregate_delivered_bits(self):
        return sum(f.delivered_bits for f in self.flows.values())

    # `duration_us` is positive: the parser requires it.
    @property
    def aggregate_throughput_bps(self):
        return self.aggregate_delivered_bits * 1e6 / self.duration_us

    def throughput_bps(self, fid):
        return self.flows[fid].delivered_bits * 1e6 / self.duration_us

    @property
    def fairness_mean(self):
        if not self.fairness_series:
            return 0.0
        # Folded left to right: Python 3.12's sum() compensates float sums.
        total = 0.0
        for _, v in self.fairness_series:
            total += v
        return total / len(self.fairness_series)


class Recorder:
    """Run-time event sink wired into every MacNode.  finalize() returns the
    FlowMetrics in `flows` it counted into: call it once the run has ended."""

    def __init__(self, sim, flow_ids, shares=None, window_us=100_000):
        self.sim = sim
        self.flows = {f: FlowMetrics() for f in flow_ids}
        self.shares = dict(shares or dict.fromkeys(self.flows, 1.0))
        self.window_us = window_us
        self.delays = {f: [] for f in self.flows}
        self.window_bits = {}  # (now // window_us, fid) -> delivered bits
        self.refill = {}  # fid -> callback, set by the traffic source
        self.cf_sent = {}  # sender -> its last CF response's Packet

    # -- hooks called from the MACs and traffic sources ---------------------

    def on_generated(self, pkt):
        fm = self.flows[pkt.flow_id]
        fm.generated_bits += pkt.size * 8
        fm.generated_packets += 1

    def on_delivered(self, pkt):
        """Called once per packet, when its destination holds every byte."""
        fid = pkt.flow_id
        bits = pkt.size * 8
        now = self.sim.now
        self.flows[fid].delivered_bits += bits
        self.delays[fid].append(now - pkt.created)
        key = (now // self.window_us, fid)
        self.window_bits[key] = self.window_bits.get(key, 0) + bits

    def on_drop(self, pkt):
        if pkt.received >= pkt.size:
            return  # the data made it; only the final ACK was lost
        self.flows[pkt.flow_id].drops += 1

    def on_cf_sent(self, pkt):
        """A CF response carrying `pkt` has left the air.  Nothing acks it,
        so it is a drop unless its destination delivered it, checked at the
        sender's next response or finalize, after the frame's hearers ran."""
        last = self.cf_sent.get(pkt.src)
        if last is not None:
            self.on_drop(last)
        self.cf_sent[pkt.src] = pkt

    def on_sender_done(self, pkt):
        cb = self.refill.get(pkt.flow_id)
        if cb is not None:
            cb()

    # -- finalization -------------------------------------------------------

    def finalize(self, duration_us, medium_stats):
        for pkt in self.cf_sent.values():
            self.on_drop(pkt)
        self.cf_sent.clear()
        for fid, fm in self.flows.items():
            delays = self.delays[fid]
            fm.delivered_packets = len(delays)
            if delays:
                fm.mean_delay_us = sum(delays) / len(delays)
                fm.p95_delay_us = float(
                    sorted(delays)[max(0, math.ceil(0.95 * len(delays)) - 1)])
        return Metrics(duration_us, self.flows, medium_stats.collision_events,
                       medium_stats.total_transmissions,
                       medium_stats.ack_collisions,
                       self._fairness_series(duration_us))

    def _fairness_series(self, duration_us):
        """Per-window worst-pair fairness over flows with positive shares.

        Windows where nothing was delivered are skipped; a window where one
        flow starved yields 0, which is the honest short-term reading.
        """
        if len(self.flows) < 2:
            return []
        series = []
        nwin = duration_us // self.window_us
        # Deliveries at or after the last whole window count in it.
        bins = {}
        for (k, fid), bits in self.window_bits.items():
            key = (min(k, nwin - 1), fid)
            bins[key] = bins.get(key, 0) + bits
        shares = [self.shares[f] for f in self.flows]
        # Only windows that hold a delivery, in window order: a window
        # index below 0 means the run is shorter than one window.
        for k in sorted({k for k, _ in bins if k >= 0}):
            w = [bins.get((k, f), 0) for f in self.flows]
            series.append((k, fairness_index(shares, w)))
        return series


# -- CSV --------------------------------------------------------------------

CSV_HEADER = ("variant,flow,generated_bits,delivered_bits,throughput_bps,"
              "mean_delay_us,p95_delay_us,drops,collision_events,"
              "total_transmissions,collision_fraction,fairness_mean")


def format_csv(table):
    """CSV text for {variant name: Metrics}: per-flow rows then a summary row."""
    lines = [CSV_HEADER]
    for variant in table:
        m = table[variant]
        for fid in sorted(m.flows):
            fm = m.flows[fid]
            lines.append(
                "%s,%d,%d,%d,%.3f,%.3f,%.3f,%d,,,," % (
                    variant, fid, fm.generated_bits, fm.delivered_bits,
                    m.throughput_bps(fid), fm.mean_delay_us, fm.p95_delay_us,
                    fm.drops))
        lines.append(
            "%s,all,%d,%d,%.3f,,,%d,%d,%d,%.6f,%.6f" % (
                variant,
                sum(f.generated_bits for f in m.flows.values()),
                m.aggregate_delivered_bits, m.aggregate_throughput_bps,
                sum(f.drops for f in m.flows.values()),
                m.collision_events, m.total_transmissions,
                m.collision_fraction, m.fairness_mean))
    return "\n".join(lines) + "\n"
