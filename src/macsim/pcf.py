"""Point coordination: beacon-delimited contention-free periods with polling.

The point coordinator (PC) splits time into superframes.  Each one opens
with a beacon sent after a PIFS of idle air, whose duration field silences
contention until the contention-free period (CFP) would end at the latest.
The PC then polls stations round-robin, one response per poll, recovering
with a PIFS timeout when a polled station stays silent, and closes the CFP
early with a CF-END once everyone had a turn or the time budget runs out.
A station whose largest response would overrun the CFP is passed over, and
that is its turn; when no station left fits, the CF-END leaves the cursor.
The polling position carries over between superframes, and the contention
period (CP) that fills the rest of the superframe runs plain DCF.  The
PC's own node takes part in it and answers frames sent to it, and a radio
sends one frame at a time: a beacon or a poll step that falls due while
the node's own frame is on the air waits for that frame's end.
"""

from .frames import (BEACON, BROADCAST, CF_END, CF_POLL, BEACON_BYTES,
                     CF_END_BYTES, CF_POLL_BYTES, MAX_MSDU_BYTES, Frame,
                     control_airtime)
from .phy import airtime

POLL_AIR = control_airtime(CF_POLL_BYTES)
BEACON_AIR = control_airtime(BEACON_BYTES)
CF_END_AIR = control_airtime(CF_END_BYTES)

# Coordinator states.
_WAIT_BEACON = "wait_beacon"  # waiting for PIFS of idle air at the boundary
_POLLING = "polling"  # between poll steps
_WAIT_RESPONSE = "wait_response"  # poll sent, PIFS silence timer armed
_IN_RESPONSE = "in_response"  # carrier went up; waiting for it to drop
_CP = "cp"  # contention period until the next boundary, or the first
_HELD = "held"  # a poll step fell due while the node's own frame was on air


def min_cp_us(params, max_bytes, rate):
    """Shortest CP that always fits one worst-case four-way exchange."""
    from .frames import RTS_AIR, CTS_AIR, ACK_AIR
    return (params.difs_us + (params.cw_max - 1) * params.slot_us
            + RTS_AIR + CTS_AIR + airtime(max_bytes, rate) + ACK_AIR
            + 3 * params.sifs_us)


class PointCoordinator:
    """Sends through the PC node's MacNode; the medium calls its hooks."""

    def __init__(self, mac, pollable, superframe_us, cfp_max_us):
        self.mac = mac
        self.sim = mac.sim
        self.pollable = list(pollable)
        self.superframe_us = superframe_us
        self.cfp_max_us = cfp_max_us
        self.pos = 0  # round-robin cursor, persists across superframes
        self.state = _CP
        self.cfp_end = 0
        self._polled = 0
        self._timer = None
        self._boundary = 0
        mac.medium.coordinator = self

    def start(self):
        self._boundary = self.sim.now
        self.sim.schedule(self._boundary, "cfp_boundary", self.mac.node_id,
                          self._on_boundary)

    # -- superframe boundary / beacon ---------------------------------------

    def _on_boundary(self):
        self.cfp_end = self.sim.now + self.cfp_max_us
        self._polled = 0
        self.state = _WAIT_BEACON
        self._boundary += self.superframe_us
        self.sim.schedule(self._boundary, "cfp_boundary", self.mac.node_id,
                          self._on_boundary)
        self._try_beacon()

    def _try_beacon(self):
        if self.mac.sense_count == 0 and not self.mac.self_tx:
            self._timer = self.sim.schedule_in(
                self.mac.params.pifs_us, "beacon_pifs", self.mac.node_id,
                self._send_beacon)

    def _send_beacon(self):
        self._timer = None
        if self.mac.self_tx:
            return  # the node's own frame is on the air; see on_tx_end
        end = self.sim.now + BEACON_AIR
        frame = Frame(BEACON, self.mac.node_id, BROADCAST,
                      duration=max(0, self.cfp_end - end),
                      payload_bytes=BEACON_BYTES)
        self.state = _POLLING
        self.mac._transmit(frame, 1, self._schedule_next_poll)

    def _schedule_next_poll(self):
        self.sim.schedule_in(self.mac.params.sifs_us, "cf_poll_gap",
                             self.mac.node_id, self._next_poll)

    # -- polling loop --------------------------------------------------------

    # Runs SIFS after a beacon, a response or the node's own frame, all of
    # which leave the state _POLLING, or at a poll's silence timeout.
    def _next_poll(self):
        if self.mac.self_tx:  # the node's own frame; see on_tx_end
            self.state = _HELD
            return
        # A polled station sends its whole head packet at its own rate.
        p = self.mac.params
        macs = self.mac.medium.macs
        n = len(self.pollable)
        for skip in range(n - self._polled):  # the stations yet to have a turn
            target = self.pollable[(self.pos + skip) % n]
            worst = (POLL_AIR + 2 * p.sifs_us + p.pifs_us
                     + airtime(MAX_MSDU_BYTES, macs[target].fixed_rate))
            if self.sim.now + worst + CF_END_AIR <= self.cfp_end:
                break
        else:
            self._send_cf_end()
            return
        self.pos = (self.pos + skip + 1) % n
        self._polled += skip + 1
        poll = Frame(CF_POLL, self.mac.node_id, target,
                     payload_bytes=CF_POLL_BYTES)
        self.state = _WAIT_RESPONSE
        self.mac._transmit(poll, 1, self._arm_silence_timer)

    def _arm_silence_timer(self):
        if self.state != _WAIT_RESPONSE:
            return  # a frame sensed during the poll, or a held step, decides
        self._timer = self.sim.schedule_in(
            self.mac.params.pifs_us, "poll_timeout", self.mac.node_id,
            self._on_poll_timeout)

    def _on_poll_timeout(self):
        self._timer = None
        self.sim.trace(self.mac.node_id, "poll_silent")
        self.state = _POLLING
        self._next_poll()

    def _send_cf_end(self):
        frame = Frame(CF_END, self.mac.node_id, BROADCAST,
                      payload_bytes=CF_END_BYTES)
        self.state = _CP
        self.sim.trace(self.mac.node_id, "cf_end", "polled=%d", self._polled)
        self.mac._transmit(frame, 1)

    # -- carrier-sense hooks, called by the medium ---------------------------

    def on_tx_end(self):
        """The node's own frame ended: a beacon or poll step it held back
        may go now."""
        if self.state == _WAIT_BEACON and self._timer is None:
            self._try_beacon()
        elif self.state == _HELD:
            self.state = _POLLING
            self._schedule_next_poll()

    def on_sense_enter(self):
        if self.state == _WAIT_BEACON and self._timer is not None:
            self._timer.cancel()
            self._timer = None
        elif self.state == _WAIT_RESPONSE:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self.state = _IN_RESPONSE

    def on_sense_exit(self):
        if self.mac.sense_count != 0:
            return
        if self.state == _WAIT_BEACON and self._timer is None:
            self._try_beacon()
        elif self.state == _IN_RESPONSE:
            self.state = _POLLING
            self._schedule_next_poll()
