"""Radio medium primitives: 802.11b airtimes, frame errors, link quality, capture.

The PLCP preamble+header (24 bytes) always goes out at 1 Mbps, i.e. a flat
192 us on every frame; the MPDU then rides at one of the four 802.11b rates.
Airtimes are rounded up to the next microsecond so reservations never
undershoot.

Links fade only when a transition matrix is given with a dwell above 0;
`LinkQualityProcess.fading` is the one place that decides it.  Static links
all share one quality state and store nothing per link.
"""

import math
from dataclasses import dataclass

PLCP_US = 192  # 24 bytes at 1 Mbps

# Mbps -> (num, den) with num/den = microseconds per payload byte.
_US_PER_BYTE = {
    1: (8, 1),
    2: (4, 1),
    5.5: (16, 11),
    11: (8, 11),
}

RATES = (1, 2, 5.5, 11)  # the four rows of the 802.11b rate table

# Link quality states, ordered worst to best.
BAD, LOW, MID, HIGH = 0, 1, 2, 3
QUALITY_NAMES = ("BAD", "LOW", "MID", "HIGH")
QUALITY_BY_NAME = {n: i for i, n in enumerate(QUALITY_NAMES)}

# Highest rate each quality state can sustain; transmitting above it loses
# the frame outright.
MAX_RATE_FOR_QUALITY = {BAD: 1, LOW: 2, MID: 5.5, HIGH: 11}

# Default frame error rates at the 300-byte reference size, per quality state.
DEFAULT_BASE_FER = {BAD: 0.5, LOW: 0.1, MID: 0.02, HIGH: 0.005}
FER_BASE_SIZE = 300  # [bytes]

# Received power is clamped at this distance [m]: the inverse square law
# has no finite value at 0.
MIN_DISTANCE_M = 0.01

# Reception outcomes.
RECEIVED, COLLIDED, ERRORED, NOT_HEARD = "RECEIVED", "COLLIDED", "ERRORED", "NOT_HEARD"


def airtime(payload_bytes, rate):
    """Microseconds on the air for `payload_bytes` of MPDU at `rate` Mbps."""
    num, den = _US_PER_BYTE[rate]
    return PLCP_US + -(-payload_bytes * num // den)  # ceil division


def largest_payload(budget_us, rate):
    """Largest payload whose `airtime` at `rate` fits in `budget_us` (0 if
    none)."""
    num, den = _US_PER_BYTE[rate]
    return max(0, (budget_us - PLCP_US) * den // num)


def frame_error_prob(payload_bytes, base_fer):
    """FER scaled from `base_fer` at FER_BASE_SIZE: doubles per 300 extra bytes."""
    if base_fer == 0.0:
        return 0.0
    return min(1.0, base_fer * 2.0 ** ((payload_bytes - FER_BASE_SIZE) / 300.0))


@dataclass
class Topology:
    """Node positions plus hearing/sensing ranges (sense >= hear, symmetric)."""

    positions: dict  # node id -> (x, y) in meters
    hear_range: float
    sense_range: float

    def distance(self, a, b):
        ax, ay = self.positions[a]
        bx, by = self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def can_hear(self, a, b):
        return a != b and self.distance(a, b) <= self.hear_range

    def can_sense(self, a, b):
        return a != b and self.distance(a, b) <= self.sense_range

    def received_power(self, sender, receiver):
        """Power of `sender` at `receiver`; see `power_at`."""
        return power_at(self.distance(sender, receiver))


def power_at(d):
    """Unit transmit power over distance squared; used by the capture rule.
    Distances below MIN_DISTANCE_M count as MIN_DISTANCE_M, so co-located
    senders arrive at equal finite power and collide."""
    if d < MIN_DISTANCE_M:
        d = MIN_DISTANCE_M
    return 1.0 / (d * d)


class LinkQualityProcess:
    """Per-ordered-link 4-state Markov chain stepped every `dwell_us`.

    Links fade only with a matrix and a dwell above 0 (`fading`); then
    `states` holds every ordered link, and each step advances them in
    sorted order with draws from the dedicated stream, so fading is
    reproducible per seed.  Static links all keep the state `initial`, and
    `states` stays empty.
    """

    def __init__(self, node_ids, initial_state, matrix=None, dwell_us=0):
        self.initial = initial_state
        self.matrix = matrix
        self.dwell_us = dwell_us
        self.fading = matrix is not None and dwell_us > 0
        # (sender, receiver) -> state, for fading links only
        self.states = {(a, b): initial_state for a in node_ids
                       for b in node_ids if a != b} if self.fading else {}
        self._order = sorted(self.states)  # step's draw order

    def state(self, sender, receiver):
        return self.states.get((sender, receiver), self.initial)

    def step(self, stream):
        """Advance every link one Markov step (no-op on static links)."""
        for link in self._order:
            row = self.matrix[self.states[link]]
            u = stream.uniform()
            acc = 0.0
            nxt = len(row) - 1
            for j, p in enumerate(row):
                acc += p
                if u < acc:
                    nxt = j
                    break
            self.states[link] = nxt


def validate_matrix(matrix):
    for i, row in enumerate(matrix):
        if any(p < 0 for p in row):
            raise ValueError("negative probability in row %d" % i)
        if abs(sum(row) - 1.0) > 1e-9:
            raise ValueError("row %d does not sum to 1" % i)


def resolve_capture(power, rest, capture_ratio):
    """True when a frame received at `power` captures the hearer over the
    overlapping frames whose powers there sum to `rest`.

    The frame must beat that sum by the capture ratio.  The medium tests
    start order (preamble capture) and a strictly stronger rival itself,
    so the sum holds only frames that started no earlier and are no
    stronger.  The medium folds it left to right in start order with `+`,
    never with `sum()`, which Python 3.12 made compensated, so the decision
    is the same on every version.
    """
    return not power < capture_ratio * rest
