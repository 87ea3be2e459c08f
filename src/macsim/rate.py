"""Rate-selection schemes layered on DCF: ARF, RBAR and OAR.

ARF is sender-side and result-driven; RBAR lets the receiver pick the rate
during the RTS/CTS exchange; OAR extends RBAR with multi-packet bursts under
the fragmentation mechanism, bounded so a burst never holds the channel
longer than one maximum-size packet at the base rate.  harness.build picks
one scheme object per node: `FixedRate`, `Arf`, `Rbar` or `Oar`.
"""

from itertools import islice

from . import phy
from .phy import RATES, airtime

BASE_RATE = 2  # Mbps; 802.11b base rate anchoring OAR's temporal fairness

ARF_UP_AFTER = 10  # consecutive successes before stepping up
ARF_TIMER_US = 60_000  # recovery timer default
OAR_REF_BYTES = 2304  # default burst budget: one max-size 802.11 MSDU


def _step(rate, delta):
    i = RATES.index(rate) + delta
    return RATES[max(0, min(len(RATES) - 1, i))]


class FixedRate:
    """No adaptation: every attempt goes out at the node's configured rate.

    The base of every rate scheme.  The mac asks `pick` for each new
    exchange's rate, reports each DATA attempt's outcome to `on_result`, and
    asks `burst` whether to send several queued packets under one exchange.
    A scheme with `receiver_picks` set puts the picked rate on its RTS as a
    tentative rate and keeps the rate the receiver selects on its CTS.
    """

    receiver_picks = False

    def __init__(self, rate):
        self.rate = rate

    def pick(self, now):
        return self.rate

    def on_result(self, acked, now):
        pass

    def burst(self, queue, rate, frag_threshold):
        """Packets from the head of `queue` to send as one burst, or None."""
        return None


class Arf(FixedRate):
    """Auto Rate Fallback: sender-side and result-driven."""

    def __init__(self, rate, timer_us=ARF_TIMER_US):
        self.rate = rate
        self.consecutive_successes = 0
        self.consecutive_failures = 0
        self.recovery_deadline = -1  # [us]; -1 = no timer running
        self.just_upgraded = False
        self.timer_us = timer_us

    def pick(self, now):
        """Rate for the next attempt; an expired recovery timer probes one step up."""
        if self.recovery_deadline >= 0 and now >= self.recovery_deadline:
            self.recovery_deadline = -1
            if self.rate != RATES[-1]:
                self.rate = _step(self.rate, +1)
                self.just_upgraded = True
                self.consecutive_successes = 0
                self.consecutive_failures = 0
        return self.rate

    def on_result(self, acked, now):
        """Update `rate` after a data transmission attempt.

        First missed ACK retries at the same rate; the second steps down and
        arms the recovery timer.  Ten straight successes step up; a failure
        right after an upgrade steps straight back down.
        """
        if acked:
            self.consecutive_failures = 0
            self.consecutive_successes += 1
            self.just_upgraded = False
            if (self.consecutive_successes >= ARF_UP_AFTER
                    and self.rate != RATES[-1]):
                self.rate = _step(self.rate, +1)
                self.consecutive_successes = 0
                self.just_upgraded = True
                self.recovery_deadline = -1
        else:
            self.consecutive_successes = 0
            self.consecutive_failures += 1
            if self.just_upgraded or self.consecutive_failures >= 2:
                self.rate = _step(self.rate, -1)
                self.just_upgraded = False
                self.consecutive_failures = 0
                self.recovery_deadline = now + self.timer_us


class Rbar(FixedRate):
    """Receiver-based auto rate: each exchange starts at the rate the
    receiver last selected (`rate`), the tentative rate on the RTS."""

    receiver_picks = True


class Oar(Rbar):
    """Opportunistic auto rate: RBAR plus bursts of whole packets whose
    airtime stays within one `ref_bytes` packet at the base rate."""

    def __init__(self, rate, ref_bytes=OAR_REF_BYTES):
        super().__init__(rate)
        self.ref_bytes = ref_bytes

    def burst(self, queue, rate, frag_threshold):
        head = queue[0]
        if head.remaining > frag_threshold:
            return None
        n = oar_cap_burst(oar_burst_len(rate), head.remaining, rate,
                          self.ref_bytes)
        burst = [head]
        for pkt in islice(queue, 1, None):
            if len(burst) >= n or pkt.dst != head.dst:
                break
            burst.append(pkt)
        return burst


# Receiver-side rate choice: quality state -> highest sustainable rate.
def rbar_select_rate(quality_state):
    return phy.MAX_RATE_FOR_QUALITY[quality_state]


def rbar_needs_rsh(tentative, selected):
    """A reservation sub-header is needed whenever the receiver changed the rate."""
    return selected != tentative


def oar_burst_len(selected):
    """Packets per burst: floor of sending rate over base rate, at least one."""
    return max(1, int(selected / BASE_RATE))


def oar_cap_burst(n, packet_bytes, rate, ref_bytes):
    """Trim a burst so its data airtime stays within one max-size packet at base rate."""
    cap = airtime(ref_bytes, BASE_RATE)
    while n > 1 and n * airtime(packet_bytes, rate) > cap:
        n -= 1
    return n
