"""MAC frame model: frame kinds, control-frame sizes and airtimes, and the
Frame record with its time on air."""

from dataclasses import dataclass

from .phy import airtime

# Frame kinds.
RTS = "RTS"
CTS = "CTS"
DATA = "DATA"
ACK = "ACK"
BEACON = "BEACON"
CF_POLL = "CF_POLL"
CF_ACK = "CF_ACK"
CF_END = "CF_END"
DATA_CF_ACK = "DATA_CF_ACK"

# Control frame MPDU sizes [bytes]; always transmitted at 1 Mbps so every
# neighbour can decode the duration field.
RTS_BYTES = 20
CTS_BYTES = 14
ACK_BYTES = 14
CF_POLL_BYTES = 20
CF_END_BYTES = 20
BEACON_BYTES = 50
RSH_BYTES = 10  # RBAR reservation sub-header, prepended at 1 Mbps
RSH_AIR = RSH_BYTES * 8  # [us] at 1 Mbps, no second preamble
MAX_MSDU_BYTES = 2304  # the largest packet a flow may carry

CONTROL_RATE = 1  # Mbps

BROADCAST = -1

CONTROL_KINDS = {RTS, CTS, ACK, BEACON, CF_POLL, CF_ACK, CF_END}


def control_airtime(bytes_):
    return airtime(bytes_, CONTROL_RATE)


RTS_AIR = control_airtime(RTS_BYTES)
CTS_AIR = control_airtime(CTS_BYTES)
ACK_AIR = control_airtime(ACK_BYTES)


@dataclass(slots=True)
class Frame:
    kind: str
    src: int
    dst: int
    duration: int = 0  # NAV value [us]
    payload_bytes: int = 0
    # Simulator-internal bookkeeping.
    packet: object = None  # DATA: the Packet this payload is part of
    xid: int = -1  # exchange id, so NAV corrections target the right one
    frag_offset: int = 0  # DATA: byte offset of this payload in its packet
    standalone: int = 0  # DATA: a whole packet, not to be reassembled
    # Variant extension fields.
    tentative_rate: float = 0.0  # RBAR, on RTS
    selected_rate: float = 0.0  # RBAR, on CTS
    size: int = 0  # RBAR, advertised data bytes on RTS
    rsh: int = 0  # RBAR reservation sub-header present on DATA
    adv_cw: int = 0  # MACAW shared contention window (0 = absent)


def frame_airtime(frame, rate):
    """Time on air, including the RSH prefix when present."""
    t = airtime(frame.payload_bytes, rate)
    if frame.rsh:
        t += RSH_AIR
    return t
