"""Per-node MAC machine: carrier sense, slotted backoff, handshakes, variants.

One MacNode runs one or more access categories (plain DCF is the
single-category special case, which is what makes the EDCF trace-equivalence
property hold by construction).  Each node holds one rate scheme (rate.py)
and one backoff scheme (fairness.py), chosen at build time and called
through a fixed set of hooks; those and the DCF+/ICA extensions hang off the
same timing skeleton rather than separate state machines.
"""

from collections import deque, namedtuple
from dataclasses import dataclass

from . import dcf, ext, rate as rate_mod
from .engine import Event, RandomStream
from .frames import (ACK, ACK_AIR, ACK_BYTES, BEACON, CF_ACK, CF_POLL,
                     CF_END, CTS, CTS_AIR, CTS_BYTES, DATA, DATA_CF_ACK,
                     RSH_AIR, RTS, RTS_BYTES, Frame)
from .phy import airtime

IDLE = "idle"
AWAIT_CTS = "await_cts"
AWAIT_ACK = "await_ack"
DCFP_WAIT_CTS = "dcfp_wait_cts"  # data receiver offered a piggyback, waits CTS
DCFP_WAIT_REV = "dcfp_wait_rev"  # data sender granted it, waits reverse DATA
ICA_WINDOW = "ica_window"

# The contention-free frames, which an overhearing node handles by kind:
# the beacon sets the NAV, CF-End clears it, and the rest leave it alone
# (IEEE 802.11-1999 9.3).  They carry no exchange id of their own.
_CF_KINDS = frozenset((BEACON, CF_POLL, CF_ACK, CF_END, DATA_CF_ACK))


@dataclass
class Packet:
    pid: int
    flow_id: int
    src: int
    dst: int
    size: int  # [bytes]
    created: int  # [us]
    remaining: int = 0
    received: int = 0  # bytes from offset 0 the destination holds

    def __post_init__(self):
        self.remaining = self.size

    @property
    def offset(self):
        return self.size - self.remaining


class AccessCategory:
    """Backoff instance plus queue for one traffic category."""

    def __init__(self, index, aifs_us, pf, cw_min, cw_max):
        self.index = index
        self.aifs_us = aifs_us
        self.pf = pf
        self.cw_min = cw_min
        self.cw_max = cw_max
        self.cw = cw_min
        self.queue = deque()
        self.backoff_slots = None  # None = draw before next arm
        self.retry_count = 0
        self.timer = None  # the pending access Event, or None
        self.fire_ev = None  # the access Event last armed, kept for reuse
        self.count_start = 0  # reference instant for consumed-slot arithmetic
        self.ready_time = 0  # when a packet last joined an empty queue


# One DATA frame of an exchange's chain: `size` bytes of `packet`, and
# whether it is a whole packet the receiver must not reassemble.
_ChainElem = namedtuple("_ChainElem", "packet size standalone")


class MacNode:
    # The medium's loops and every handler read these fields, so they sit
    # at fixed offsets: past about 30 fields CPython moves an instance's
    # fields to a dict.  A new field goes in the list (test_mac checks it).
    __slots__ = ("sim", "medium", "node_id", "params", "rng", "recorder",
                 "fixed_rate", "rate_scheme", "backoff_scheme", "_on_hear",
                 "_on_transmit", "_on_overhear_cts", "dcfplus", "ica_wait",
                 "cats", "sense_count", "self_tx", "nav_until", "nav_xid",
                 "_nav_timer", "idle_since", "phase", "_chain", "_chain_idx",
                 "_cur_cat", "_timer", "_data_rate", "_xid", "_next_xid",
                 "_ica_xid", "_ica_nav_end", "_ica_timer")

    # harness.build resolves every setting: `ica_wait` is the CTS wait after
    # an overheard RTS (None: ICA off), and `categories` holds the plain-DCF
    # category or one per EDCF category.
    def __init__(self, sim, medium, node_id, params, seed, fixed_rate,
                 rate_scheme, backoff_scheme, dcfplus, ica_wait, categories,
                 recorder):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.params = params
        self.rng = RandomStream(seed, node_id)
        self.recorder = recorder

        self.fixed_rate = fixed_rate
        self.rate_scheme = rate_scheme
        self.backoff_scheme = backoff_scheme
        # A scheme defines only the hooks it needs; see fairness.Beb.
        self._on_hear = getattr(backoff_scheme, "on_hear", None)
        self._on_transmit = getattr(backoff_scheme, "on_transmit", None)
        self._on_overhear_cts = getattr(backoff_scheme, "on_overhear_cts",
                                        None)
        self.dcfplus = dcfplus
        self.ica_wait = ica_wait
        self.cats = categories

        # Channel state.
        self.sense_count = 0
        self.self_tx = False
        self.nav_until = 0
        self.nav_xid = -1
        self._nav_timer = None  # the NAV expiry, built when first armed
        self.idle_since = 0

        # Exchange state.
        self.phase = IDLE
        self._chain = None
        self._chain_idx = 0
        self._cur_cat = None
        self._timer = None
        self._data_rate = fixed_rate
        self._xid = -1
        self._next_xid = node_id * 1_000_000

        # ICA state.  The overheard RTS sets both fields before it arms
        # `_ica_timer`; they are read only while that timer is pending or
        # the phase is ICA_WINDOW.
        self._ica_xid = -1  # exchange id of the overheard RTS
        self._ica_nav_end = 0  # its end plus its duration: the primary ACK end
        self._ica_timer = None

        medium.register(self)

    # ------------------------------------------------------------------
    # channel state edges
    # ------------------------------------------------------------------

    def _virtually_idle(self):
        return (self.sense_count == 0 and not self.self_tx
                and self.nav_until <= self.sim.now)

    # set_nav runs for nearly every overheard frame, and every node that
    # hears a frame sets its NAV to the same end, so the expiry is armed with
    # Simulator.arm: one heap entry per instant, not one per node.  A NAV
    # only grows, but for a correction by the exchange that set it
    # (`replace`); no caller that replaces passes an `until` earlier than now.
    def set_nav(self, until, xid=-1, replace=False):
        now = self.sim.now
        nav = self.nav_until
        if until <= nav and not (replace and xid == self.nav_xid):
            return
        was_idle = self.sense_count == 0 and not self.self_tx and nav <= now
        self.nav_until = until
        self.nav_xid = xid
        timer = self._nav_timer
        if until > now:
            if was_idle:
                self._on_busy_edge()
            if timer is None:
                timer = Event(None, None, "nav_expiry", self.node_id,
                              self._maybe_idle_edge)
            self._nav_timer = self.sim.arm(timer, until)
        elif timer is not None:
            timer.cancel()

    # Runs when the NAV expires, and after anything else that may have left
    # the node virtually idle.
    def _maybe_idle_edge(self):
        if self._virtually_idle():
            self._on_idle_edge()

    # A busy edge freezes each pending backoff: it banks the slots counted
    # so far and cancels the access Event, which stays on the category as
    # `fire_ev`.  The next idle edge revives it with Simulator.reschedule.
    # The remaining slots count from that idle edge, which is no earlier
    # than this busy edge, so the revived time is never earlier than the
    # cancelled one and the Event keeps its heap entry.
    def _on_busy_edge(self):
        now = self.sim.now
        for cat in self.cats:
            ev = cat.timer
            if ev is not None:
                if ev.time == now:
                    continue  # same-slot decision already taken; let it fire
                elapsed = now - (cat.count_start + cat.aifs_us)
                slots = cat.backoff_slots
                if elapsed > 0:
                    slots -= elapsed // self.params.slot_us
                cat.backoff_slots = slots if slots > 0 else 0
                ev.cancel()
                cat.timer = None
        self.idle_since = None

    # Every caller has just tested that the node is virtually idle.
    def _on_idle_edge(self):
        now = self.idle_since = self.sim.now
        if self.phase != IDLE:
            return
        for cat in self.cats:
            if cat.timer is None and cat.queue:
                self._arm_now(cat, now)

    # The medium keeps `sense_count` and calls these two only when it
    # crosses 0/1 while the node is virtually free: a busy or an idle edge.
    on_sense_enter = _on_busy_edge
    on_sense_exit = _on_idle_edge

    # ------------------------------------------------------------------
    # access arming
    # ------------------------------------------------------------------

    # Its one caller, `enqueue`, has just queued a packet.
    def _arm(self, cat):
        if cat.timer is not None:
            return
        if self.phase != IDLE or not self._virtually_idle():
            return
        if self.idle_since is None:  # a NAV ends now: its expiry edge arms
            return
        self._arm_now(cat, self.sim.now)

    def _arm_now(self, cat, now):
        """Schedule `cat`'s access Event: AIFS plus its backoff slots after
        the later of the idle edge and the category's ready time."""
        slots = cat.backoff_slots
        if slots is None:
            slots = cat.backoff_slots = self.backoff_scheme.draw(cat, self.rng)
        start = self.idle_since
        if cat.ready_time > start:
            start = cat.ready_time
        cat.count_start = start
        fire = start + cat.aifs_us + slots * self.params.slot_us
        if fire < now:
            fire = now
        ev = cat.fire_ev
        if ev is None:
            ev = self.sim.schedule(fire, "access_fire", self.node_id,
                                   lambda c=cat: self._on_access_fire(c))
        else:
            ev = self.sim.reschedule(ev, fire)
        cat.timer = cat.fire_ev = ev

    def _on_access_fire(self, cat):
        cat.timer = None
        if not cat.queue:
            return  # a CF response sent the packet after the timer was armed
        if self.self_tx:
            # A point coordinator step due at this instant ran first and put
            # this node's own frame on the air.  Like any busy edge at the
            # firing instant, it leaves the timer no slots to count.
            cat.backoff_slots = 0
            return
        now = self.sim.now
        medium = self.medium
        # Genie tie-break: a frame that started at this instant, or an
        # access timer of a lower-id node due now, takes the slot, among
        # nodes that sense each other: only their edges re-arm this timer.
        if medium.genie_tiebreak:
            near = medium.reach(self.node_id).sensing
            if (any(t.start == now and medium.macs[t.sender] in near
                    for t in medium.active.values())
                    or any(c.timer is not None and c.timer.time == now
                           for mac in near if mac.node_id < self.node_id
                           for c in mac.cats)):
                cat.backoff_slots = 0
                return
        cat.backoff_slots = None
        # Virtual collision between this node's own categories.
        ready = [cat]
        for other in self.cats:
            if other is not cat and other.timer is not None \
                    and other.timer.time == now:
                ready.append(other)
        if len(ready) > 1:
            winner = ext.edcf_pick_winner(ready)
            for loser in ready:
                if loser is winner:
                    continue
                if loser is not cat:  # `cat`'s own timer has just fired
                    loser.timer.cancel()
                    loser.timer = None
                loser.cw = ext.edcf_expand_cw(loser.cw, loser.pf, loser.cw_max)
                loser.backoff_slots = dcf.draw_backoff(loser.cw, self.rng)
            self.sim.trace(self.node_id, "virtual_collision", "winner=cat%d",
                           winner.index)
            if winner is not cat:
                return
        self._start_exchange(cat)

    # ------------------------------------------------------------------
    # sender sequencing
    # ------------------------------------------------------------------

    def _new_xid(self):
        self._next_xid += 1
        return self._next_xid

    def _build_chain(self, cat, data_rate):
        """Chain of DATA frames for this attempt, from the head of the queue:
        the rate scheme's burst of whole packets, else the head's fragments."""
        frag_threshold = self.params.frag_threshold
        burst = self.rate_scheme.burst(cat.queue, data_rate, frag_threshold)
        if burst is not None:
            return [_ChainElem(pkt, pkt.remaining, 1) for pkt in burst]
        head = cat.queue[0]
        return [_ChainElem(head, size, 0)
                for size in dcf.fragment_plan(head.remaining, frag_threshold)]

    def _start_exchange(self, cat):
        p = self.params
        self._cur_cat = cat
        self._data_rate = self.rate_scheme.pick(self.sim.now)
        self._chain = self._build_chain(cat, self._data_rate)
        self._chain_idx = 0
        self._xid = self._new_xid()
        first = self._chain[0]
        if dcf.should_use_rts(first.size, p.rts_threshold):
            dur = (3 * p.sifs_us + CTS_AIR
                   + airtime(first.size, self._data_rate) + ACK_AIR)
            frame = Frame(RTS, self.node_id, first.packet.dst, duration=dur,
                          payload_bytes=RTS_BYTES, xid=self._xid)
            if self.rate_scheme.receiver_picks:
                frame.tentative_rate = self._data_rate
                frame.size = first.size
            self.phase = AWAIT_CTS
            self._transmit(frame, 1, self._await(
                CTS_AIR, "cts_timeout", lambda: self._on_failure("cts")))
        else:
            self.phase = AWAIT_ACK
            self._send_chain_elem()

    def _on_cts(self, frame):
        self._cancel_timer()
        # Only a receiver-picks scheme's RTS gets a selected rate back.  The
        # first DATA carries a sub-header if the receiver changed the rate;
        # the scheme keeps the new rate, and the chain is rebuilt for it: a
        # burst's length depends on the rate, a fragment plan does not.
        rsh = 0
        selected = frame.selected_rate
        if selected:
            rsh = int(rate_mod.rbar_needs_rsh(self._data_rate, selected))
            self._data_rate = self.rate_scheme.rate = selected
            self._chain = self._build_chain(self._cur_cat, selected)
        self.phase = AWAIT_ACK
        self.sim.schedule_in(self.params.sifs_us, "send_data", self.node_id,
                             lambda: self._send_chain_elem(rsh))

    def _send_chain_elem(self, rsh=0):
        p = self.params
        elem = self._chain[self._chain_idx]
        nxt = (self._chain[self._chain_idx + 1]
               if self._chain_idx + 1 < len(self._chain) else None)
        dur = p.sifs_us + ACK_AIR
        if nxt is not None:
            dur += 2 * p.sifs_us + airtime(nxt.size, self._data_rate) + ACK_AIR
        frame = Frame(DATA, self.node_id, elem.packet.dst, duration=dur,
                      payload_bytes=elem.size, packet=elem.packet,
                      xid=self._xid, frag_offset=elem.packet.offset,
                      standalone=elem.standalone, rsh=rsh)
        self._transmit(frame, self._data_rate, self._await(
            ACK_AIR, "ack_timeout", lambda: self._on_failure("ack")))

    def _on_ack(self, frame):
        elem = self._confirm()
        cat = self._cur_cat
        cat.retry_count = 0
        self.backoff_scheme.on_success(self, cat, elem.size * 8)
        self.rate_scheme.on_result(True, self.sim.now)
        if self._chain_idx < len(self._chain):
            self.sim.schedule_in(self.params.sifs_us, "send_data", self.node_id,
                                 self._send_chain_elem)
        elif frame.duration > 0 and self.dcfplus:
            self._dcfp_grant(frame)  # the receiver offers reverse data
        else:
            self._finish_exchange()

    def _confirm(self):
        """Book the ACK of the chain's current element and return it."""
        self._cancel_timer()
        elem = self._chain[self._chain_idx]
        pkt = elem.packet
        pkt.remaining -= elem.size
        if pkt.remaining == 0 or elem.standalone:
            self._complete_packet(self._cur_cat, pkt)
        self._chain_idx += 1
        return elem

    def _complete_packet(self, cat, pkt):
        if pkt in cat.queue:
            cat.queue.remove(pkt)
        self.recorder.on_sender_done(pkt)

    # The only way back to IDLE.  Its callers have cancelled the response
    # timer, or run as it fired.
    def _finish_exchange(self):
        self.phase = IDLE
        self._timer = None
        self._chain = None
        self._cur_cat = None
        self._maybe_idle_edge()

    def _on_failure(self, kind):
        cat = self._cur_cat
        elem = self._chain[self._chain_idx]
        pkt = elem.packet
        self.sim.trace(self.node_id, "tx_fail", "%s pkt=%d", kind, pkt.pid)
        if kind == "ack":
            self.rate_scheme.on_result(False, self.sim.now)
        cat.retry_count += 1
        self.backoff_scheme.on_failure(self, cat)
        if cat.retry_count > self.params.retry_limit:
            cat.retry_count = 0
            cat.cw = cat.cw_min
            self.recorder.on_drop(pkt)
            self.sim.trace(self.node_id, "drop", "pkt=%d", pkt.pid)
            self._complete_packet(cat, pkt)  # keeps backlogged sources fed
        cat.backoff_slots = dcf.draw_backoff(cat.cw, self.rng)
        self._finish_exchange()

    # ------------------------------------------------------------------
    # transmit helpers
    # ------------------------------------------------------------------

    def _transmit(self, frame, rate, after=None):
        if self._on_transmit is not None:
            self._on_transmit(self, frame)
        if self._virtually_idle():
            self._on_busy_edge()
        self.self_tx = True

        def on_end():
            self.self_tx = False
            self._maybe_idle_edge()
            if after is not None:
                after()

        self.medium.transmit(self.node_id, frame, rate, on_end)

    def _reply(self, kind, frame, rate, after=None):
        """Send `frame` one SIFS from now, in an event named `kind`."""
        self.sim.schedule_in(self.params.sifs_us, kind, self.node_id,
                             lambda: self._transmit(frame, rate, after))

    def _await(self, air, kind, handler):
        """End-of-frame callback that arms the response timeout: `handler`
        runs, as event `kind`, unless a reply of `air` us comes back within
        one SIFS and a slot.  An exchange that ended while the frame was on
        the air (a DCF+ offer whose earlier timeout fired) waits for
        nothing."""
        wait = self.params.sifs_us + air + self.params.slot_us
        phase = self.phase

        def arm():
            if self.phase == phase:
                self._timer = self.sim.schedule_in(wait, kind, self.node_id,
                                                   handler)

        return arm

    def _cancel_timer(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------

    # A frame addressed to this node is handled by the exchange it belongs
    # to.  Everything else, and a CTS or ACK the current exchange is not
    # waiting for, falls through to the overhear tail, which ends in at most
    # one NAV update.
    def on_frame(self, frame):
        if self._on_hear is not None:
            self._on_hear(self, frame)
        kind = frame.kind
        if frame.dst == self.node_id:
            if kind == RTS:
                return self._maybe_cts(frame)
            if kind == DATA or kind == DATA_CF_ACK:
                return self._on_data(frame)
            phase = self.phase
            if kind == ACK and phase == AWAIT_ACK:
                return self._on_ack(frame)
            if kind == ACK and phase == ICA_WINDOW:
                return self._ica_on_ack()
            if kind == CTS and phase == AWAIT_CTS:
                return self._on_cts(frame)
            if kind == CTS and phase == DCFP_WAIT_CTS:
                return self._dcfp_send_reverse(frame)
            if kind == CF_POLL:
                return self._on_poll(frame)
        if kind == RTS:
            if self.ica_wait is not None and self.phase == IDLE:
                return self._ica_watch(frame)
        elif kind == CTS:
            if self._ica_timer is not None and self._ica_xid == frame.xid:
                self._ica_timer.cancel()
                self._ica_timer = None
            if self._on_overhear_cts is not None:
                self._on_overhear_cts(self, frame)
        elif kind in _CF_KINDS:
            if kind == BEACON:
                self.set_nav(self.sim.now + frame.duration, frame.xid)
            elif kind == CF_END:
                self._nav_reset()
            return
        xid = frame.xid
        if frame.duration > 0 or xid == self.nav_xid:
            self.set_nav(self.sim.now + frame.duration, xid, True)

    def _nav_reset(self):
        self.nav_until = self.sim.now
        self.nav_xid = -1
        if self._nav_timer is not None:
            self._nav_timer.cancel()

    def _ica_watch(self, frame):
        """An idle ICA node overheard an RTS: defer like DCF would, but only
        until the CTS question is settled; the timeout either frees the
        node (exposed) or re-blocks it."""
        self._ica_xid = frame.xid
        self._ica_nav_end = self.sim.now + frame.duration
        if self._ica_timer is not None:
            self._ica_timer.cancel()
        self._ica_timer = self.sim.schedule_in(
            self.ica_wait, "ica_cts_timeout", self.node_id,
            self._ica_cts_timeout)
        self.set_nav(self.sim.now + self.ica_wait, frame.xid)

    # -- responder side -------------------------------------------------

    def _maybe_cts(self, frame):
        if self.phase != IDLE or self.nav_until > self.sim.now:
            return
        p = self.params
        cts = Frame(CTS, self.node_id, frame.src, payload_bytes=CTS_BYTES,
                    xid=frame.xid)
        if frame.tentative_rate:
            selected = rate_mod.rbar_select_rate(
                self.medium.quality.state(frame.src, self.node_id))
            rsh = RSH_AIR if rate_mod.rbar_needs_rsh(frame.tentative_rate,
                                                     selected) else 0
            cts.selected_rate = selected
            cts.duration = (2 * p.sifs_us + airtime(frame.size, selected)
                            + rsh + ACK_AIR)
        else:
            cts.duration = max(0, frame.duration - p.sifs_us - CTS_AIR)
        self._reply("send_cts", cts, 1)
        # Stay quiet while the exchange we just enabled runs.
        self.set_nav(self.sim.now + p.sifs_us + CTS_AIR + cts.duration,
                     frame.xid, replace=True)

    def _on_data(self, frame):
        p = self.params
        self._reassemble(frame)
        if frame.kind == DATA_CF_ACK:
            return  # contention-free response; the poll loop carries on
        ack = Frame(ACK, self.node_id, frame.src, payload_bytes=ACK_BYTES,
                    xid=frame.xid)
        ack.duration = max(0, frame.duration - p.sifs_us - ACK_AIR)
        # In DCFP_WAIT_REV the ACK that asked for the grant came from the
        # destination of this node's own chain.
        if (self.phase == DCFP_WAIT_REV
                and frame.src == self._chain[0].packet.dst):
            self._cancel_timer()
            self._finish_exchange()
        elif (self.dcfplus and ack.duration == 0 and frame.standalone == 0
                and frame.payload_bytes == frame.packet.size
                and self.phase == IDLE):
            ack.duration = self._dcfp_offer(frame.src)
        if self.phase == DCFP_WAIT_CTS:
            self._reply("send_ack", ack, 1, self._await(
                CTS_AIR, "dcfp_cts_timeout", self._finish_exchange))
            return
        self._reply("send_ack", ack, 1)
        if ack.duration > 0:
            # More fragments follow; keep quiet for the rest of the burst.
            self.set_nav(self.sim.now + p.sifs_us + ACK_AIR + ack.duration,
                         frame.xid, replace=True)

    # A sender moves its offset only when an ACK confirms the payload, so no
    # frame starts above what the destination already holds: a high-water
    # mark on the packet covers the same bytes as a union of every range.
    def _reassemble(self, frame):
        pkt = frame.packet
        if pkt.received >= pkt.size:
            return  # a retransmission of a delivered packet
        end = frame.frag_offset + frame.payload_bytes
        if end > pkt.received:
            pkt.received = end
        if pkt.received >= pkt.size:
            self.recorder.on_delivered(pkt)
            self.sim.trace(self.node_id, "deliver", "flow=%d pkt=%d",
                           pkt.flow_id, pkt.pid)

    # -- DCF+ ------------------------------------------------------------

    def _dcfp_offer(self, peer):
        """Offer `peer`, which just sent us DATA, the first whole packet
        queued for it that fits one frame.  The packet becomes this node's
        one-element chain, so its ACK takes the normal path.  Returns the
        duration of the ACK that carries the offer, 0 if there is none."""
        p = self.params
        for cat in self.cats:
            for pkt in cat.queue:
                if pkt.dst == peer and pkt.remaining == pkt.size \
                        and pkt.size <= p.frag_threshold:
                    self.phase = DCFP_WAIT_CTS
                    self._cur_cat = cat
                    self._chain = [_ChainElem(pkt, pkt.size, 1)]
                    self._chain_idx = 0
                    return ext.dcfplus_ack_duration(pkt.size, self.fixed_rate,
                                                    p.sifs_us)
        return 0

    def _dcfp_grant(self, ack):
        """We sent DATA, the ACK asks for a reverse slot: answer with CTS."""
        p = self.params
        self.phase = DCFP_WAIT_REV
        cts = Frame(CTS, self.node_id, ack.src, payload_bytes=CTS_BYTES,
                    duration=max(0, ack.duration - p.sifs_us - CTS_AIR),
                    xid=ack.xid)
        rev_air = max(0, ack.duration - 3 * p.sifs_us - CTS_AIR - ACK_AIR)
        self._reply("send_cts", cts, 1, self._await(
            rev_air, "dcfp_rev_timeout", self._finish_exchange))

    def _dcfp_send_reverse(self, cts):
        """Our piggyback request was granted; ship the reverse packet."""
        self._cancel_timer()
        self.phase = AWAIT_ACK
        pkt = self._chain[0].packet
        frame = Frame(DATA, self.node_id, pkt.dst,
                      duration=self.params.sifs_us + ACK_AIR,
                      payload_bytes=pkt.size, packet=pkt, xid=cts.xid,
                      standalone=1)
        self._reply("send_data", frame, self.fixed_rate, self._await(
            ACK_AIR, "dcfp_ack_timeout", self._finish_exchange))

    # -- ICA -------------------------------------------------------------

    def _ica_cts_timeout(self):
        self._ica_timer = None
        p = self.params
        window_end = ext.ica_primary_data_end(self._ica_nav_end, p.sifs_us)
        cat = self.cats[0]
        size = 0
        # Something (likely the CTS) still in the air: not exposed.
        if self.phase == IDLE and cat.queue and self.sense_count == 0 \
                and not self.self_tx:
            head = cat.queue[0]
            start, size = ext.ica_plan_parallel(self.sim.now, window_end,
                                                head.remaining,
                                                p.frag_threshold,
                                                self.fixed_rate)
        if not size:
            self.set_nav(self._ica_nav_end)
            return
        self.sim.trace(self.node_id, "ica_exposed", "window_end=%d frags=1",
                       window_end)
        self.phase = ICA_WINDOW
        self._cur_cat = cat
        self._chain = [_ChainElem(head, size, 0)]
        self._chain_idx = 0
        for c in self.cats:
            if c.timer is not None:
                c.timer.cancel()
                c.timer = None
        self.sim.schedule(start, "ica_start", self.node_id,
                          self._ica_send_frag)

    def _ica_send_frag(self):
        if self.phase != ICA_WINDOW:
            return
        elem = self._chain[0]
        pkt = elem.packet
        # A reply to a frame for this node took the air, or a CF response
        # has sent the packet since the window opened.
        if self.self_tx or not pkt.remaining:
            self._ica_abort()
            return
        frame = Frame(DATA, self.node_id, pkt.dst,
                      duration=self.params.sifs_us + ACK_AIR,
                      payload_bytes=elem.size, packet=pkt, xid=self._new_xid(),
                      frag_offset=pkt.offset)
        self._transmit(frame, self.fixed_rate, self._await(
            ACK_AIR, "ica_ack_timeout", self._ica_abort))

    def _ica_on_ack(self):
        self._confirm()
        self._ica_close()

    def _ica_abort(self):
        self.sim.trace(self.node_id, "ica_abort")
        self._ica_close()

    def _ica_close(self):
        self.set_nav(self._ica_nav_end)
        self._finish_exchange()

    # -- PCF responder ---------------------------------------------------

    def _on_poll(self, frame):
        cat = self.cats[0]
        if cat.queue:
            pkt = cat.queue[0]
            resp = Frame(DATA_CF_ACK, self.node_id, pkt.dst,
                         payload_bytes=pkt.remaining, packet=pkt,
                         frag_offset=pkt.offset, standalone=1)

            # Nothing acknowledges a CF response: the sender forgets the
            # packet once it is sent, and the recorder settles it later.
            def done():
                pkt.remaining = 0
                self._complete_packet(cat, pkt)
                self.recorder.on_cf_sent(pkt)

            self._reply("send_cf_data", resp, self.fixed_rate, done)
        else:
            self._reply("send_cf_ack", Frame(CF_ACK, self.node_id, frame.src,
                                             payload_bytes=ACK_BYTES), 1)

    # ------------------------------------------------------------------
    # traffic entry
    # ------------------------------------------------------------------

    def enqueue(self, pkt, category=0):
        cat = self.cats[category]
        was_empty = not cat.queue
        cat.queue.append(pkt)
        if was_empty:
            cat.ready_time = self.sim.now
        self._arm(cat)

