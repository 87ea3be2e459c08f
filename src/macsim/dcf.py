"""DCF building blocks: timing parameters, backoff draws, fragmentation.

The stateful channel-access machine lives in mac.py; everything here is a
pure function so the rules can be tested in isolation.
"""

from dataclasses import dataclass

CW_MIN = 16
CW_MAX = 256
RETRY_LIMIT = 7

# Default 802.11b timing [us]; scenarios may override.
SLOT_US = 20
SIFS_US = 10


# Frozen: harness.build gives every node without `node.N.*` keys one
# shared instance.
@dataclass(frozen=True)
class MacParams:
    slot_us: int = SLOT_US
    sifs_us: int = SIFS_US
    cw_min: int = CW_MIN
    cw_max: int = CW_MAX
    retry_limit: int = RETRY_LIMIT
    rts_threshold: int = 500  # bytes; >= threshold uses RTS/CTS
    frag_threshold: int = 1500  # bytes

    @property
    def pifs_us(self):
        return self.sifs_us + self.slot_us

    @property
    def difs_us(self):
        return self.sifs_us + 2 * self.slot_us


def draw_backoff(cw, stream):
    """Uniform slot count in [0, cw-1], via 64-bit modulo (portable)."""
    return stream.next_u64() % cw


def should_use_rts(payload_bytes, rts_threshold):
    """RTS/CTS kicks in at the threshold (boundary inclusive)."""
    return payload_bytes >= rts_threshold


def fragment_plan(payload_bytes, frag_threshold):
    """Split a payload into fragment sizes, each at most `frag_threshold`."""
    plan = []
    while payload_bytes > frag_threshold:
        plan.append(frag_threshold)
        payload_bytes -= frag_threshold
    plan.append(payload_bytes)
    return plan
