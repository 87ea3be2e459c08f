"""DCF extensions: DCF+ piggyback reservations, EDCF priority classes, ICA.

ICA (intelligent collision avoidance) lets a node that overheard an RTS but
never the matching CTS conclude it is merely exposed, and run a parallel
transmission sized to end exactly when the primary DATA ends, so the two
link-level ACKs cannot garble each other.
"""

from dataclasses import dataclass

from .frames import ACK_AIR, CTS_AIR
from .phy import airtime


# -- DCF+ -------------------------------------------------------------------

def dcfplus_ack_duration(reverse_bytes, rate, sifs_us):
    """Duration carried on an ACK that offers `reverse_bytes` of reverse data.

    Covers CTS + reverse DATA + ACK with SIFS gaps, so both neighbourhoods
    stay reserved while the roles flip.
    """
    return 3 * sifs_us + CTS_AIR + airtime(reverse_bytes, rate) + ACK_AIR


# -- EDCF -------------------------------------------------------------------

def edcf_expand_cw(cw, pf, cw_max):
    """Virtual-collision loser: window grows by the persistence factor."""
    return min(int(round(cw * pf)), cw_max)


def edcf_pick_winner(ready):
    """Among categories whose timers expired together, lowest AIFS wins,
    then lowest category index."""
    return min(ready, key=lambda c: (c.aifs_us, c.index))


# -- ICA --------------------------------------------------------------------

@dataclass
class IcaState:
    rts_duration: int = 0
    rts_end: int = -1  # when the overheard RTS left the air [us]
    xid: int = -1
    window_end: int = -1  # primary DATA end instant E [us]

    def clear(self):
        self.rts_duration = 0
        self.rts_end = -1
        self.xid = -1
        self.window_end = -1


def ica_primary_data_end(rts_end, rts_duration, sifs_us):
    """The RTS duration runs to the end of the primary ACK; back off one
    SIFS and one ACK to get the primary DATA end."""
    return rts_end + rts_duration - sifs_us - ACK_AIR


def ica_plan_parallel(budget_start, window_end, remaining_bytes, frag_threshold,
                      rate, sifs_us):
    """Fragments for one exposed-node window, or an empty list.

    Fragments are threshold-sized with ACK turnarounds budgeted between them;
    the final fragment is trimmed so its airtime ends exactly at the primary
    DATA end (within the byte granularity of the rate), which keeps its ACK
    clear of the primary transmission.  Returns (start_us, [sizes]).
    """
    if remaining_bytes <= 0 or window_end <= budget_start:
        return budget_start, []
    sizes = []
    t = budget_start
    remaining = remaining_bytes
    while remaining > 0:
        if sizes:
            t += sifs_us + ACK_AIR + sifs_us  # previous fragment's ACK turnaround
        size = min(frag_threshold, remaining)
        if t + airtime(size, rate) > window_end:
            size = _largest_fitting(window_end - t, rate)
            if size <= 0:
                break
            size = min(size, remaining)
            sizes.append(size)
            break
        sizes.append(size)
        t += airtime(size, rate)
        remaining -= size
    if not sizes:
        return budget_start, []
    # Delay the start so the last fragment lands flush against the window end.
    total = sum(airtime(s, rate) for s in sizes)
    total += (len(sizes) - 1) * (2 * sifs_us + ACK_AIR)
    start = window_end - total
    if start < budget_start:
        start = budget_start
    return start, sizes


def _largest_fitting(budget_us, rate):
    """Largest payload whose airtime fits in the budget (0 if none)."""
    lo, hi = 0, 4096
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if airtime(mid, rate) <= budget_us:
            lo = mid
        else:
            hi = mid - 1
    return lo
