"""Fairness machinery: MILD backoff, throughput-estimation backoff, DFS.

harness.build picks one backoff scheme object per node: `Beb`, `Mild`, `Est`
or `Dfs`.  The SCFQ oracle that DFS is checked against lives with the tests
(tests/scfq.py).
"""

import math
from collections import deque

from . import dcf
from .frames import ACK_AIR
from .phy import PLCP_US

MILD_FACTOR = 1.5
EST_WINDOW_US = 100_000
# Cap on a DFS backoff: past any run, and finite even after randomizing.
_MAX_SLOTS = 1e300


def mild_update(cw, collided, factor, cw_min, cw_max):
    """MACAW backoff: multiply on collision, decrement by one on success."""
    if collided:
        return int(round(min(cw * factor, cw_max)))  # cw * factor may be inf
    return max(cw - 1, cw_min)


def fairness_index(shares, throughputs):
    """Worst-pair min/max ratio of share-normalized throughputs.

    The equation as typeset is ambiguous between the worst pair and the best
    pair; the worst pair is the reading consistent with maximizing the index
    toward 1.
    """
    norm = [w / p for w, p in zip(throughputs, shares)]
    return min(norm) / max(norm)


def estimation_backoff_update(cw, w_self, w_others, phi_self, cw_min, cw_max):
    """Double the window when above fair share, halve when below, hold on a tie."""
    mine = w_self / phi_self
    theirs = w_others / (1.0 - phi_self)
    if mine > theirs:
        return min(2 * cw, cw_max)
    if mine < theirs:
        return max(cw // 2, cw_min)
    return cw


def dfs_backoff(length_bits, phi, scaling, stream=None, compress_threshold=None):
    """First-attempt DFS backoff in slots.

    floor(scaling * L / phi), randomized by a mean-1 uniform multiplier on
    [0.5, 1.5] when a stream is given, then compressed above the threshold by
    threshold + floor(threshold * log2(B / threshold)).  The compression map
    is continuous at the threshold and monotone.
    """
    b = int(min(scaling * length_bits / phi, _MAX_SLOTS))  # never inf
    if stream is not None:
        b = int(b * (0.5 + stream.uniform()))
    if compress_threshold is not None and b > compress_threshold:
        b = compress_threshold + int(
            compress_threshold * math.log2(b / compress_threshold))
    return b


class Beb:
    """Binary exponential backoff, the DCF rule, and the base of every
    backoff scheme.

    The mac calls `draw` for a fresh backoff, `on_success` after each acked
    DATA frame and `on_failure` after each missed CTS or ACK.  A scheme may
    also define three hooks, which the mac looks up once and calls only if
    they exist: `on_transmit` for each frame it sends, `on_overhear_cts` for
    each CTS it overhears (addressed to another node, or to this one when
    its exchange is not waiting for it), and `on_hear` for each frame it
    receives.  Binary exponential backoff defines none of them.
    """

    def draw(self, cat, rng):
        return dcf.draw_backoff(cat.cw, rng)

    def on_success(self, mac, cat, bits):
        cat.cw = cat.cw_min

    def on_failure(self, mac, cat):
        cat.cw = min(2 * cat.cw, cat.cw_max)


class Mild(Beb):
    """MACAW: multiplicative increase, linear decrease, and a window that
    every frame advertises and every hearer copies."""

    def __init__(self, factor=MILD_FACTOR):
        self.factor = factor

    def on_success(self, mac, cat, bits):
        cat.cw = mild_update(cat.cw, False, self.factor, cat.cw_min, cat.cw_max)

    def on_failure(self, mac, cat):
        cat.cw = mild_update(cat.cw, True, self.factor, cat.cw_min, cat.cw_max)

    def on_transmit(self, mac, frame):
        frame.adv_cw = mac.cats[0].cw

    def on_hear(self, mac, frame):
        if frame.adv_cw > 0 and frame.src != mac.node_id:
            mac.cats[0].cw = frame.adv_cw  # copy, not max


class Est(Beb):
    """Throughput-estimation backoff over a sliding window of the node's own
    acked bits and the bits it infers from snooped CTS frames."""

    def __init__(self, phi=0.5, window_us=EST_WINDOW_US):
        self.phi = phi
        self.window_us = window_us
        self._own = deque()  # (time_us, bits), oldest first
        self._others = deque()

    def note_own(self, now, bits):
        self._own.append((now, bits))

    def note_others(self, now, bits):
        self._others.append((now, bits))

    def _prune(self, now):
        cutoff = now - self.window_us
        for samples in (self._own, self._others):
            while samples and samples[0][0] < cutoff:
                samples.popleft()

    def w_self(self, now):
        self._prune(now)
        return sum(b for _, b in self._own)

    def w_others(self, now):
        self._prune(now)
        return sum(b for _, b in self._others)

    def on_success(self, mac, cat, bits):
        self.on_failure(mac, cat)  # the same window update, before our bits
        self.note_own(mac.sim.now, bits)

    def on_failure(self, mac, cat):
        now = mac.sim.now
        cat.cw = estimation_backoff_update(
            cat.cw, self.w_self(now), self.w_others(now), self.phi,
            cat.cw_min, cat.cw_max)

    def on_overhear_cts(self, mac, frame):
        # A CTS not involving us reveals a data exchange and its length.
        if frame.src != mac.node_id:
            data_air = frame.duration - 2 * mac.params.sifs_us - ACK_AIR
            rate = frame.selected_rate or mac.fixed_rate
            bits = max(0, (data_air - PLCP_US)) * rate
            if bits > 0:
                self.note_others(mac.sim.now, bits)


class Dfs(Beb):
    """Distributed fair scheduling: a first attempt backs off in proportion
    to its packet length over the node's share; retries use the DCF window."""

    def __init__(self, phi=1.0, scaling=1.0, randomize=True, compress=None):
        self.phi = phi
        self.scaling = scaling
        self.randomize = randomize
        self.compress = compress

    def draw(self, cat, rng):
        if cat.retry_count:
            return dcf.draw_backoff(cat.cw, rng)
        return dfs_backoff(cat.queue[0].remaining * 8, self.phi, self.scaling,
                           rng if self.randomize else None, self.compress)
