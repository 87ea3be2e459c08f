"""Shared radio medium: who senses what, who hears what, and collision outcomes.

Propagation delay is zero, so a transmission occupies the same [start, end)
interval at every node in range.  Sensing (energy detection, blocks access)
reaches `sense_range`; decoding reaches `hear_range`.

Node positions never change after `harness.build`, so who senses and hears
a sender, and at what power, is static.  On the run's first transmission
the medium builds every node's reach table in one pass over the node
pairs that can be in sense range, which measures each pair's distance,
and its power if in hear range, once for both tables.  Those pairs are
found by putting the nodes in square cells a little wider than
`sense_range`: a pair in range lies in the same or adjacent cells, so on
a sparse layout the build grows with N, not N^2; a layout that spans at
most two cells each way, such as one dense cell, takes every pair
without cells.  A sender's table holds the hearer table,
(node id, MacNode, received power) for every node that hears the sender,
in id order; the same powers as a {node id: power} map; and the MacNodes
in sense range, in id order, whose carrier sense it counts (hear range
never exceeds sense range, so those cover the hearers too).  Moving a node
after the first transmission would leave the tables stale.

`quality.fading` (see `phy.LinkQualityProcess`) says whether links fade.
Static links all share one state, so the medium keeps one clean rate, set
at construction: the highest rate at which every frame has zero error rate
at every hearer.  It is 0 on fading links, or when the shared state has a
nonzero base error rate.

Each reach table also caches, per other sender, whether the two senders'
frames interact: one sent by a hearer of the other (half duplex), or one
that some node hears together with the other.  Hearing comes from one
`hear_range` and a symmetric distance, so the answer is the same from
both sides; it is computed the first time frames of the two senders are
on the air together and stored in both tables.  A table holds at most one
entry per node, so the cache is bounded by N, not by run length.

A node sends one frame at a time, so the medium keeps the frames on the
air by sender, in start order.  Each transmission keeps one concurrency
list: the entries [sender, start, sender's power map, episode link] of
every other frame on the air at some point during it whose sender
interacts with its own, in start order.  Intervals are half-open, so a
frame that ends at the instant another starts does not overlap it, even
while its end event is still queued.  A frame left out is inaudible at
every hearer and was sent by none of them.  Outcomes are resolved when a
transmission ends:

- a frame with an empty list whose error rate is 0 at every hearer (sent
  at or below the clean rate, or a control frame exempt from errors) is
  received by every hearer without further tests;
- otherwise whether each concurrent frame started earlier is settled once
  for the frame, and each hearer, in id order, takes one pass: a hearer
  that sent one of the concurrent frames loses it (half duplex); then one
  loop over the concurrent frames collides it as soon as an audible one
  started earlier or is strictly stronger there, and else adds up the
  audible powers left to right in start order.  With none audible the
  frame error draw decides (a frame above a link's rate cap errors with
  probability 1 and still takes its draw); with some, the capture rule
  (`phy.resolve_capture`, called once for that hearer with the sum) does.

Nodes that only sense the sender are not visited by the pass.

The medium keeps each node's carrier-sense count (`MacNode.sense_count`,
the frames on the air in its sense range): a frame's start adds one at
every node of its sender's `sensing` list, in id order, and its end, after
the pass, takes it off again.  The count is the model's.  The MacNode is
called (`on_sense_enter`, `on_sense_exit`) only on a real edge, when the
count goes from 0 to 1 or from 1 to 0 while neither its NAV nor its own
frame holds it busy.  The point coordinator (`coordinator`, set before the
first frame) acts on every start and end its node senses: a reach table
keeps it as `pcf` if its node senses the sender, and the medium calls it
after the count loop, and calls `on_tx_end` after its own node's frames.

A collision at a frame's destination joins it and the concurrent frames
audible there in one collision episode, a union-find over the entries:
the link is None outside any episode, True at a root, else another entry
of the episode.  A join links one root under another, so the links form a
tree, with no reference cycle, and an episode is freed with the last frame
holding one of its entries.
"""

from bisect import bisect
from math import hypot

from . import phy
from .engine import RandomStream
from .frames import CONTROL_KINDS, DATA, DATA_CF_ACK, ACK, frame_airtime
from .phy import COLLIDED, ERRORED, NOT_HEARD, RECEIVED

_QUALITY_STREAM_ID = 0x7FFF0001  # reserved substream for link fading


class _Reach:
    """One sender's reach table; see the module docstring."""

    __slots__ = ("hearers", "power", "sensing", "pcf", "links")

    def __init__(self, hearers, power, sensing, pcf):
        self.hearers = hearers  # [(node id, MacNode, power)], by id
        self.power = power  # {node id: power}, the same powers
        self.sensing = sensing  # [MacNode] in sense range, by id
        self.pcf = pcf  # the coordinator if its node senses the sender
        self.links = {}  # other sender id -> whether their frames interact


class _Tx:
    __slots__ = ("sender", "frame", "rate", "start", "end", "reach", "entry",
                 "concurrent")

    def __init__(self, sender, frame, rate, start, end, reach):
        self.sender = sender
        self.frame = frame
        self.rate = rate
        self.start = start
        self.end = end
        self.reach = reach
        # This frame's item in the concurrency lists of other frames.
        self.entry = [sender, start, reach.power, None]
        # The entry of every frame on the air at some point during this one,
        # in start order; plain lists, so no _Tx holds another alive.
        self.concurrent = []


class MediumStats:
    """Counters of transmissions and their outcomes at the destination.
    Each entry that joins an episode adds one to `collision_events`, and
    each join of two episodes takes one off: it counts the episodes."""

    def __init__(self):
        self.total_transmissions = 0
        self.collided_transmissions = 0
        self.ack_collisions = 0
        self.collision_events = 0

    def _root(self, e):
        """The root entry of `e`'s episode; an entry in none starts one."""
        if e[3] is None:
            e[3] = True
            self.collision_events += 1
        while e[3] is not True:
            e = e[3]
        return e

    def record_collision(self, entry, overlapping):
        """Join `entry` and the `overlapping` entries in one episode, each
        other root linked under `entry`'s."""
        root = self._root(entry)
        for e in overlapping:
            r = self._root(e)
            if r is not root:
                r[3] = root
                self.collision_events -= 1


def _later_neighbours(nodes, sense):
    """For each of `nodes`, (node id, MacNode, x, y) in id order: the node,
    and the nodes of higher id that can be within `sense` of it, in id
    order.

    The nodes go in square cells a little wider than `sense`, so a pair in
    range, even one whose measured distance rounds down to `sense`, lies in
    the same or adjacent cells: those are the candidates.  When the layout
    spans at most two cells each way, every pair is one, and the id-ordered
    list serves without cells."""
    # With a range of 0 only co-located nodes are in range: any side will do.
    side = sense * (1 + 1e-9) or 1.0
    xs = [node[2] for node in nodes]
    ys = [node[3] for node in nodes]
    if (max(xs) // side - min(xs) // side <= 1
            and max(ys) // side - min(ys) // side <= 1):
        for i, node in enumerate(nodes):
            yield node, nodes[i + 1:]
        return
    cell_of = [(x // side, y // side) for x, y in zip(xs, ys)]
    cells = {}  # cell -> its nodes, in id order
    for node, cell in zip(nodes, cell_of):
        cells.setdefault(cell, []).append(node)
    near_of = {}  # cell -> the nodes of it and its neighbours, and their ids
    for node, cell in zip(nodes, cell_of):
        near = near_of.get(cell)
        if near is None:
            cx, cy = cell
            # A set: far from the origin, cx + 1 can round to cx.
            around = {(cx + dx, cy + dy) for dx in (-1, 0, 1)
                      for dy in (-1, 0, 1)}
            # Ids are unique, so sorting compares nothing past them.
            near = sorted([n for c in around for n in cells.get(c, ())])
            near = near_of[cell] = near, [n[0] for n in near]
        near, ids = near
        yield node, near[bisect(ids, node[0]):]


class Medium:
    def __init__(self, sim, topology, quality, base_fer, capture_ratio,
                 control_fer, seed, genie_tiebreak):
        self.sim = sim
        self.topology = topology
        self.quality = quality
        self.base_fer = base_fer
        self.capture_ratio = capture_ratio
        self.control_fer = control_fer
        self.genie_tiebreak = genie_tiebreak
        self.macs = {}  # node id -> MacNode
        self.coordinator = None  # the PointCoordinator, set before any frame
        # sender id -> its _Tx, in start order: a node's next frame starts
        # after this one's end event (see the module docstring).
        self.active = {}
        self.stats = MediumStats()
        self._reach_of = {}  # sender id -> _Reach
        self.clean_rate = 0
        if quality.fading:
            self._quality_stream = RandomStream(seed, _QUALITY_STREAM_ID)
            sim.schedule_in(quality.dwell_us, "quality_step", "-", self._step_quality)
        elif base_fer[quality.initial] == 0.0:
            self.clean_rate = phy.MAX_RATE_FOR_QUALITY[quality.initial]

    def register(self, mac):
        self.macs[mac.node_id] = mac

    def _step_quality(self):
        self.quality.step(self._quality_stream)
        self.sim.schedule_in(self.quality.dwell_us, "quality_step", "-",
                             self._step_quality)

    # -- static reach tables --

    def reach(self, sender_id):
        """The reach table of `sender_id`; the first call builds them all."""
        reach = self._reach_of.get(sender_id)
        if reach is None:
            self._build_reach()
            reach = self._reach_of[sender_id]
        return reach

    def _build_reach(self):
        """Every node's reach table, each node pair that can be in sense
        range measured once for both (see `_later_neighbours`); taking the
        pairs in id order keeps each table in id order."""
        topo = self.topology
        positions = topo.positions
        sense, hear = topo.sense_range, topo.hear_range
        nodes = [(nid, mac, *positions[nid])
                 for nid, mac in sorted(self.macs.items())]
        hearers = {node[0]: [] for node in nodes}
        power = {node[0]: {} for node in nodes}
        sensing = {node[0]: [] for node in nodes}
        for (a, mac_a, ax, ay), later in _later_neighbours(nodes, sense):
            hear_a, power_a, sense_a = hearers[a], power[a], sensing[a]
            for b, mac_b, bx, by in later:
                d = hypot(ax - bx, ay - by)  # as Topology.distance
                if d <= sense:
                    sense_a.append(mac_b)
                    sensing[b].append(mac_a)
                    if d <= hear:  # never above sense_range
                        p = phy.power_at(d)
                        hear_a.append((b, mac_b, p))
                        hearers[b].append((a, mac_a, p))
                        power_a[b] = power[b][a] = p
        pc = self.coordinator
        for nid in hearers:
            self._reach_of[nid] = _Reach(
                hearers[nid], power[nid], sensing[nid],
                pc if pc and pc.mac in sensing[nid] else None)

    # -- transmission lifecycle --

    def transmit(self, sender_id, frame, rate, on_end=None):
        """Put a frame on the air."""
        sim = self.sim
        now = sim.now
        reach = self.reach(sender_id)
        air = frame_airtime(frame, rate)
        tx = _Tx(sender_id, frame, rate, now, now + air, reach)
        self.stats.total_transmissions += 1
        if sim.trace_lines is not None:
            sim.trace_lines.append(
                f"{now}\t{sender_id}\ttx_start\t{sender_id}->{frame.dst} "
                f"{frame.kind} len={frame.payload_bytes} rate={rate} "
                f"dur={frame.duration}")

        # Each frame on the air overlaps the new one, and the reverse, but
        # for one that ends at this instant: its `tx_end` is still queued.
        # The two lists take each other's frame only if one sender hears
        # the other (half duplex) or some node hears both; no other frame
        # changes an outcome.  Hearing is symmetric, so one test per sender
        # pair serves both lists, and it is cached in both reach tables.
        mine = tx.concurrent
        entry = tx.entry
        links = reach.links
        for t2 in self.active.values():  # start order
            if t2.end == now:
                continue
            linked = links.get(t2.sender)
            if linked is None:
                power = reach.power
                p2 = t2.reach.power
                linked = links[t2.sender] = t2.reach.links[sender_id] = (
                    t2.sender in power
                    or not power.keys().isdisjoint(p2.keys()))
            if linked:
                mine.append(t2.entry)
                t2.concurrent.append(entry)
        # Carrier sense: the first frame a node senses is a busy edge only
        # if neither its NAV nor its own frame holds it busy already.
        for mac in reach.sensing:
            n = mac.sense_count + 1
            mac.sense_count = n
            if n == 1 and not mac.self_tx and mac.nav_until <= now:
                mac.on_sense_enter()
        if reach.pcf is not None:
            reach.pcf.on_sense_enter()

        self.active[sender_id] = tx
        sim.schedule(tx.end, "tx_end", sender_id, lambda: self._end(tx, on_end))

    def _end(self, tx, on_end):
        del self.active[tx.sender]
        if on_end is not None:
            on_end()
        pcf = self.coordinator
        if pcf is not None and pcf.mac.node_id == tx.sender:
            pcf.on_tx_end()
        sim = self.sim
        lines = sim.trace_lines
        frame, sender, rate = tx.frame, tx.sender, tx.rate
        kind = frame.kind
        concurrent = tx.concurrent
        # On static error-free links up to the medium's clean rate, or for
        # a control frame exempt from errors, the frame error rate is 0 at
        # every hearer: no draw.
        fer_free = rate <= self.clean_rate or (kind in CONTROL_KINDS
                                                   and not self.control_fer)
        if fer_free and not concurrent:
            if lines is not None:
                # Every hearer's line differs only in the node field.
                stamp = f"{sim.now}\t"
                tail = f"\trx\t{RECEIVED} from {sender} {kind}"
            for hearer, mac, _ in tx.reach.hearers:
                if lines is not None:
                    lines.append(f"{stamp}{hearer}{tail}")
                mac.on_frame(frame)
        else:
            stats = self.stats
            dst = frame.dst
            ratio = self.capture_ratio
            start = tx.start
            busy = {e[0] for e in concurrent}
            # Per concurrent frame: whether it started before this one (then
            # it collides this frame wherever it is audible), its power map.
            rivals = [(e[1] < start, e[2]) for e in concurrent]
            for hearer, mac, p0 in tx.reach.hearers:  # by id
                if hearer in busy:
                    outcome = NOT_HEARD  # half duplex: it was sending
                else:
                    outcome = RECEIVED
                    rest = None  # the audible rivals' powers, summed
                    for earlier, power in rivals:  # start order
                        p = power.get(hearer)
                        if p is not None:
                            # Capture fails outright if the other frame
                            # started first or is strictly stronger.
                            if earlier or p > p0:
                                outcome = COLLIDED
                                break
                            rest = p if rest is None else rest + p
                    else:
                        if rest is not None:
                            if not phy.resolve_capture(p0, rest, ratio):
                                outcome = COLLIDED
                        elif not fer_free:
                            fer = self._fer(tx, hearer)
                            if fer > 0.0 and mac.rng.bernoulli(fer):
                                outcome = ERRORED
                if lines is not None:
                    lines.append(
                        f"{sim.now}\t{hearer}\trx\t{outcome} from {sender} {kind}")
                if outcome == RECEIVED:
                    mac.on_frame(frame)
                elif hearer == dst:
                    if outcome == COLLIDED:
                        stats.collided_transmissions += 1
                        stats.record_collision(tx.entry, [
                            e for e in concurrent if hearer in e[2]])
                        if kind == ACK:
                            stats.ack_collisions += 1
        now = sim.now
        for mac in tx.reach.sensing:
            n = mac.sense_count - 1
            mac.sense_count = n
            if n == 0 and not mac.self_tx and mac.nav_until <= now:
                mac.on_sense_exit()
        if tx.reach.pcf is not None:
            tx.reach.pcf.on_sense_exit()

    def _fer(self, tx, hearer):
        """Frame error rate at `hearer` of a frame that errors can hit."""
        kind = tx.frame.kind
        q = self.quality.state(tx.sender, hearer)
        if kind in (DATA, DATA_CF_ACK) and tx.rate > phy.MAX_RATE_FOR_QUALITY[q]:
            return 1.0
        return phy.frame_error_prob(tx.frame.payload_bytes, self.base_fer[q])
