"""Shared radio medium: who senses what, who hears what, and collision outcomes.

Propagation delay is zero, so a transmission occupies the same [start, end)
interval at every node in range.  Sensing (energy detection, blocks access)
reaches `sense_range`; decoding reaches `hear_range`.  Outcomes are resolved
when a transmission ends, from the set of audible transmissions it overlapped
at each hearer.

Node positions never change after `harness.build`, so who senses and hears
a sender, and at what power, is static.  The medium asks the Topology once
per sender, on that sender's first transmission, and keeps the answer: a
reach list of (node id, MacNode, hears) for every node in sense range,
sorted by node id (hear range never exceeds sense range, so it covers the
hearers too), and a cache of received power per (sender, hearer).  Moving a
node after the first transmission would leave both stale.
"""

from operator import attrgetter

from . import phy
from .frames import CONTROL_KINDS, DATA, DATA_CF_ACK, ACK, frame_airtime

_QUALITY_STREAM_ID = 0x7FFF0001  # reserved substream for link fading
_TXID = attrgetter("txid")


class _Tx:
    __slots__ = ("txid", "sender", "frame", "rate", "start", "end",
                 "overlaps", "self_busy")

    def __init__(self, txid, sender, frame, rate, start, end):
        self.txid = txid
        self.sender = sender
        self.frame = frame
        self.rate = rate
        self.start = start
        self.end = end
        # hearer id -> set of overlapping _Tx audible at that hearer
        self.overlaps = {}
        # hearers that were mid-transmission at some point during our airtime
        self.self_busy = set()


class MediumStats:
    def __init__(self):
        self.total_transmissions = 0
        self.collided_transmissions = 0
        self.ack_collisions = 0
        self.errored = 0
        self._episode_parent = {}

    # Tiny union-find over tx ids so one multi-frame pile-up counts once.
    def _find(self, x):
        p = self._episode_parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def record_collision(self, txid, overlap_ids):
        p = self._episode_parent
        for t in (txid, *overlap_ids):
            p.setdefault(t, t)
        root = self._find(txid)
        for t in overlap_ids:
            r = self._find(t)
            if r != root:
                p[max(r, root)] = min(r, root)
                root = min(r, root)

    @property
    def collision_events(self):
        return len({self._find(x) for x in self._episode_parent})

    @property
    def collision_fraction(self):
        if self.total_transmissions == 0:
            return 0.0
        return self.collision_events / self.total_transmissions


class Medium:
    def __init__(self, sim, topology, quality, base_fer=None, capture_ratio=10.0,
                 control_fer=False, seed=0, genie_tiebreak=False):
        self.sim = sim
        self.topology = topology
        self.quality = quality
        self.base_fer = dict(phy.DEFAULT_BASE_FER if base_fer is None else base_fer)
        self.capture_ratio = capture_ratio
        self.control_fer = control_fer
        self.genie_tiebreak = genie_tiebreak
        self.macs = {}  # node id -> MacNode
        self.active = {}  # txid -> _Tx
        self._next_txid = 0
        self.stats = MediumStats()
        self.pending_fire = {}  # node id -> access timer deadline (genie mode)
        self._reach_of = {}  # sender id -> [(node id, MacNode, hears)], by id
        self._power_of = {}  # (sender id, hearer id) -> received power
        self._quality_stream = None
        if quality is not None and quality.dwell_us > 0 and quality.matrix is not None:
            from .engine import RandomStream
            self._quality_stream = RandomStream(seed, _QUALITY_STREAM_ID)
            sim.schedule_in(quality.dwell_us, "quality_step", "-", self._step_quality)

    def register(self, mac):
        self.macs[mac.node_id] = mac

    def _step_quality(self):
        self.quality.step(self._quality_stream)
        self.sim.schedule_in(self.quality.dwell_us, "quality_step", "-",
                             self._step_quality)

    # -- genie tie-break (collision-free mode for scheduler equivalence runs) --

    def genie_defers(self, node_id, fire_time):
        """True when a lower-id node's access timer fires at the same instant.

        A transmission that already started at this exact instant also wins
        the slot (its owner's timer has dispatched and left the registry).
        """
        if not self.genie_tiebreak:
            return False
        if any(t.start == fire_time for t in self.active.values()):
            return True
        return any(t == fire_time and n < node_id
                   for n, t in self.pending_fire.items() if n != node_id)

    # -- static reach tables --

    def reach(self, sender_id):
        """(node id, MacNode, hears) for every node sensing `sender_id`, by id."""
        reach = self._reach_of.get(sender_id)
        if reach is None:
            topo = self.topology
            reach = self._reach_of[sender_id] = [
                (other, self.macs[other], topo.can_hear(sender_id, other))
                for other in sorted(self.macs)
                if topo.can_sense(sender_id, other)]
            # Every power _resolve reads is a hearer's, so it is cached here.
            for other, _, hears in reach:
                if hears:
                    self.power(sender_id, other)
        return reach

    def power(self, sender_id, hearer_id):
        """Received power of `sender_id` at `hearer_id`, cached per pair."""
        key = (sender_id, hearer_id)
        p = self._power_of.get(key)
        if p is None:
            p = self._power_of[key] = self.topology.received_power(
                sender_id, hearer_id)
        return p

    # -- transmission lifecycle --

    def transmit(self, sender_id, frame, rate, on_end=None):
        """Put a frame on the air; returns its end time."""
        sim = self.sim
        air = frame_airtime(frame, rate)
        tx = _Tx(self._next_txid, sender_id, frame, rate, sim.now, sim.now + air)
        self._next_txid += 1
        self.stats.total_transmissions += 1
        if sim.trace_lines is not None:
            sim.trace(sender_id, "tx_start", "%s->%s %s len=%d rate=%s dur=%d" % (
                sender_id, frame.dst, frame.kind, frame.payload_bytes, rate,
                frame.duration))

        # Per node in id order: overlaps first, then the busy edge, so the
        # events the edge schedules keep their order.
        active = self.active.values()
        for other, mac, hears in self.reach(sender_id):
            if hears:
                mine = tx.overlaps[other] = set()
                for t2 in active:
                    theirs = t2.overlaps.get(other)
                    if theirs is not None:
                        theirs.add(tx)
                        mine.add(t2)
                    if t2.sender == other:
                        tx.self_busy.add(other)
            mac.on_sense_enter()

        # Half-duplex: anything already in flight is lost at this sender.
        for t2 in active:
            if sender_id in t2.overlaps:
                t2.self_busy.add(sender_id)

        self.active[tx.txid] = tx
        sim.schedule(tx.end, "tx_end", sender_id, lambda: self._end(tx, on_end))
        return tx.end

    def _end(self, tx, on_end):
        del self.active[tx.txid]
        if on_end is not None:
            on_end()
        sim = self.sim
        for hearer in tx.overlaps:  # filled in id order by transmit
            outcome = self._resolve(tx, hearer)
            if sim.trace_lines is not None:
                sim.trace(hearer, "rx", "%s from %s %s" % (
                    outcome, tx.sender, tx.frame.kind))
            if outcome == phy.RECEIVED:
                self.macs[hearer].on_frame(tx.frame, tx.rate, tx.start)
            elif outcome == phy.COLLIDED and hearer == tx.frame.dst:
                self.stats.collided_transmissions += 1
                self.stats.record_collision(
                    tx.txid, [t.txid for t in tx.overlaps[hearer]])
                if tx.frame.kind == ACK:
                    self.stats.ack_collisions += 1
            elif outcome == phy.ERRORED and hearer == tx.frame.dst:
                self.stats.errored += 1
        for _, mac, _ in self.reach(tx.sender):
            mac.on_sense_exit()

    def _resolve(self, tx, hearer):
        if hearer in tx.self_busy:
            return phy.NOT_HEARD
        others = tx.overlaps[hearer]
        if others:
            group = [tx, *sorted(others, key=_TXID)]
            cache = self._power_of  # every t in group reaches hearer
            powers = [cache[t.sender, hearer] for t in group]
            starts = [(t.start,) for t in group]
            winner = phy.resolve_capture(starts, powers, self.capture_ratio)
            if winner != 0:
                return phy.COLLIDED
            # fall through: captured cleanly, no further error draw
            return phy.RECEIVED
        fer = self._fer(tx, hearer)
        if fer > 0.0 and self.macs[hearer].rng.bernoulli(fer):
            return phy.ERRORED
        return phy.RECEIVED

    def _fer(self, tx, hearer):
        kind = tx.frame.kind
        if kind in CONTROL_KINDS and not self.control_fer:
            return 0.0
        if self.quality is None:
            return 0.0
        q = self.quality.state(tx.sender, hearer)
        if kind in (DATA, DATA_CF_ACK) and tx.rate > phy.MAX_RATE_FOR_QUALITY[q]:
            return 1.0
        return phy.frame_error_prob(tx.frame.payload_bytes, self.base_fer[q])
