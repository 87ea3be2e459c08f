"""Shared radio medium: who senses what, who hears what, and collision outcomes.

Propagation delay is zero, so a transmission occupies the same [start, end)
interval at every node in range.  Sensing (energy detection, blocks access)
reaches `sense_range`; decoding reaches `hear_range`.

Each transmission keeps one concurrency list: every frame that was on the
air at some point during it, in txid order.  Outcomes are resolved when a
transmission ends, in one pass over the sender's hearers in id order:

- a hearer that sent one of the concurrent frames loses it (half duplex);
- a hearer that can hear none of the concurrent senders receives it, unless
  the frame error draw fails;
- otherwise the frame collides if any audible concurrent frame started
  earlier or is strictly stronger at that hearer, and else goes to the
  capture rule (`phy.resolve_capture`) with the audible frames in txid order.

Node positions never change after `harness.build`, so who senses and hears
a sender, and at what power, is static.  The medium asks the Topology once
per sender, on that sender's first transmission, and keeps the answer: a
reach list of (node id, MacNode, hears) for every node in sense range,
sorted by node id (hear range never exceeds sense range, so it covers the
hearers too), the set of node ids that hear the sender, and a cache of
received power per (sender, hearer).  Moving a node after the first
transmission would leave all three stale.
"""

from . import phy
from .frames import CONTROL_KINDS, DATA, DATA_CF_ACK, ACK, frame_airtime

_QUALITY_STREAM_ID = 0x7FFF0001  # reserved substream for link fading


class _Tx:
    __slots__ = ("txid", "sender", "frame", "rate", "start", "end",
                 "concurrent")

    def __init__(self, txid, sender, frame, rate, start, end):
        self.txid = txid
        self.sender = sender
        self.frame = frame
        self.rate = rate
        self.start = start
        self.end = end
        # (txid, sender, start) of every frame on the air at some point
        # during this one, in txid order; plain tuples, so no _Tx holds
        # another alive.
        self.concurrent = []


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
        self._hears_of = {}  # sender id -> frozenset of the node ids hearing it
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
        The registry is kept only with `genie_tiebreak` on, and only then is
        this called.
        """
        if any(t.start == fire_time for t in self.active.values()):
            return True
        return any(t == fire_time and n < node_id
                   for n, t in self.pending_fire.items() if n != node_id)

    # -- static reach tables --

    def reach(self, sender_id):
        """(node id, MacNode, hears) for every node sensing `sender_id`, by id.

        The first call for a sender also records its hear set and caches its
        power at each hearer.
        """
        reach = self._reach_of.get(sender_id)
        if reach is None:
            topo = self.topology
            reach = self._reach_of[sender_id] = [
                (other, self.macs[other], topo.can_hear(sender_id, other))
                for other in sorted(self.macs)
                if topo.can_sense(sender_id, other)]
            self._hears_of[sender_id] = frozenset(
                other for other, _, hears in reach if hears)
            # Every power _end reads is a hearer's, so it is cached here.
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

        # Each frame on the air overlaps the new one, and the reverse.
        mine = tx.concurrent
        entry = (tx.txid, sender_id, tx.start)
        for t2 in self.active.values():  # txid order
            mine.append((t2.txid, t2.sender, t2.start))
            t2.concurrent.append(entry)
        for _, mac, _ in self.reach(sender_id):
            mac.on_sense_enter()

        self.active[tx.txid] = tx
        sim.schedule(tx.end, "tx_end", sender_id, lambda: self._end(tx, on_end))
        return tx.end

    def _end(self, tx, on_end):
        del self.active[tx.txid]
        if on_end is not None:
            on_end()
        sim = self.sim
        tracing = sim.trace_lines is not None
        stats = self.stats
        frame, sender, start = tx.frame, tx.sender, tx.start
        dst = frame.dst
        kind = frame.kind
        # Without a quality process, or for a control frame exempt from
        # errors, the frame error rate is 0 at every hearer: no draw.
        fer_free = self.quality is None or (kind in CONTROL_KINDS
                                            and not self.control_fer)
        concurrent = tx.concurrent
        if concurrent:
            hears_of = self._hears_of
            busy = {s for _, s, _ in concurrent}
            others = [(txid, s, st, hears_of[s]) for txid, s, st in concurrent]
            power = self._power_of  # every audible sender reaches its hearer
        for hearer, mac, hears in self._reach_of[sender]:  # by id
            if not hears:
                continue
            if concurrent and hearer in busy:
                outcome = phy.NOT_HEARD  # half duplex: it was sending
            elif concurrent and (
                    audible := [o for o in others if hearer in o[3]]):
                # The capture rule fails outright if another frame started
                # first or is strictly stronger: only the rest need it.
                p0 = power[sender, hearer]
                outcome = phy.COLLIDED
                for _, s, st, _ in audible:
                    if st < start or power[s, hearer] > p0:
                        break
                else:
                    powers = [p0] + [power[o[1], hearer] for o in audible]
                    starts = [(start,)] + [(o[2],) for o in audible]
                    if phy.resolve_capture(starts, powers,
                                           self.capture_ratio) == 0:
                        outcome = phy.RECEIVED  # captured: no error draw
            elif fer_free:
                outcome = phy.RECEIVED
            else:
                fer = self._fer(tx, hearer)
                outcome = (phy.ERRORED if fer > 0.0 and mac.rng.bernoulli(fer)
                           else phy.RECEIVED)
            if tracing:
                sim.trace(hearer, "rx", "%s from %s %s" % (
                    outcome, sender, kind))
            if outcome == phy.RECEIVED:
                mac.on_frame(frame, tx.rate, start)
            elif hearer == dst:
                if outcome == phy.COLLIDED:
                    stats.collided_transmissions += 1
                    stats.record_collision(tx.txid, [o[0] for o in audible])
                    if kind == ACK:
                        stats.ack_collisions += 1
                elif outcome == phy.ERRORED:
                    stats.errored += 1
        for _, mac, _ in self._reach_of[sender]:
            mac.on_sense_exit()

    def _fer(self, tx, hearer):
        """Frame error rate at `hearer`, given a quality process and a frame
        that errors can hit."""
        kind = tx.frame.kind
        q = self.quality.state(tx.sender, hearer)
        if kind in (DATA, DATA_CF_ACK) and tx.rate > phy.MAX_RATE_FOR_QUALITY[q]:
            return 1.0
        return phy.frame_error_prob(tx.frame.payload_bytes, self.base_fer[q])
