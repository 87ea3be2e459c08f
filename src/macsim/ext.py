"""DCF extensions: DCF+ piggyback reservations, EDCF priority classes, ICA.

ICA (intelligent collision avoidance) lets a node that overheard an RTS but
never the matching CTS conclude it is merely exposed, and send one DATA
frame in parallel, timed to end exactly when the primary DATA ends, so the
two link-level ACKs cannot garble each other.  A window holds one frame
only: the exposed node hears the primary sender, so the ACK of an earlier
fragment would reach it while the primary DATA is still on the air.
"""

from .frames import ACK_AIR, CTS_AIR
from .phy import airtime, largest_payload


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

def ica_primary_data_end(nav_end, sifs_us):
    """An overheard RTS reserves the air until `nav_end`, its end plus its
    duration: the end of the primary ACK.  Back off one SIFS and one ACK to
    get the primary DATA end."""
    return nav_end - sifs_us - ACK_AIR


def ica_plan_parallel(budget_start, window_end, remaining_bytes, frag_threshold,
                      rate):
    """The one DATA frame of an exposed-node window: (start_us, size_bytes).

    The frame is as large as the fragment threshold, the packet and the
    window allow, and starts so that it ends exactly at the primary DATA end
    `window_end`.  A size of 0 means nothing fits.
    """
    size = min(frag_threshold, remaining_bytes,
               largest_payload(window_end - budget_start, rate))
    return window_end - airtime(size, rate), size
