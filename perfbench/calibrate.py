"""Host seconds scaled to a fixed machine speed.

On a shared host the speed of one core moves by tens of percent from one
minute to the next as neighbours load the machine, and it moves the same
way for any CPU-bound Python code.  So every timed part of a run is
bracketed by a fixed pure-Python reference loop that touches no macsim
code, and its time is scaled by REF_S / (reference time measured around it).
A change to macsim cannot move the reference loop; a change of machine load
moves both and cancels.  REF_S is the reference pass's time under
typical load on the machine the benchmark was defined on (a shared 2-core
sandbox, where one pass took 20-35 ms), so the scaled times read as that
machine's seconds.
"""

import heapq
import time

REF_S = 0.030  # seconds one reference pass takes at the fixed speed


class _Event:
    __slots__ = ("time", "seq", "fn")

    def __init__(self, time_us, seq, fn):
        self.time = time_us
        self.seq = seq
        self.fn = fn

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _Node:
    __slots__ = ("nid", "count", "peers")

    def __init__(self, nid):
        self.nid = nid
        self.count = 0
        self.peers = {}

    def on_event(self, now, nodes, seq):
        self.count += 1
        peer = nodes[(self.nid * 31 + now) % len(nodes)]
        self.peers[peer.nid] = self.peers.get(peer.nid, 0) + 1
        if self.count % 3:
            return _Event(now + (self.nid * 7 + now) % 97 + 1, seq,
                          lambda p=peer: p.count)
        return None


def reference_pass(n=8000):
    """A miniature event loop with the simulator's mix: a heap of slotted
    events compared in Python, handler method calls, dict updates and small
    closures.  Fully deterministic."""
    nodes = [_Node(i) for i in range(256)]
    queue = [_Event(i, i, None) for i in range(64)]
    seq = len(queue)
    for _ in range(n):
        ev = heapq.heappop(queue)
        nxt = nodes[ev.seq % 256].on_event(ev.time, nodes, seq)
        seq += 1
        if nxt is not None:
            heapq.heappush(queue, nxt)
        if len(queue) < 64:
            heapq.heappush(queue, _Event(ev.time + 5, seq, None))
            seq += 1
    return seq


def _time_pass():
    t = time.perf_counter()
    reference_pass()
    return time.perf_counter() - t


class Clock:
    """Scale factors for consecutive timed parts, each from the reference
    passes just before and just after it."""

    def __init__(self):
        self._last = _time_pass()
        self.raw_ref_s = []  # every reference pass, for the record

    def factor(self):
        """Call right after a timed part: REF_S over the bracketing mean."""
        now = _time_pass()
        self.raw_ref_s.append(now)
        f = REF_S / ((self._last + now) / 2)
        self._last = now
        return f
