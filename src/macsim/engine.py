"""Discrete-event engine: monotone clock, cancellable timers, per-node PRNG streams.

Time is kept in integer microseconds throughout the simulator.  Events with
equal timestamps dispatch in insertion order (a sequence counter breaks heap
ties), so a run is fully determined by the scenario and the seed.

The queue is a heap of `(time, seq, event)` tuples, as in SimPy's
`Environment.schedule`: seq is unique, so tuple comparison settles every
ordering on the first two integers, in C, and never compares two Events.
Cancelling an Event only marks it; the loop skips it when it surfaces.

An Event's own `(time, seq)` is its dispatch key; its heap entry may carry
an older, smaller key (the lazy-key rule).  `Simulator.reschedule` moves a
pending Event later by rewriting its key in place, without a new entry.
When an entry reaches the top of the heap whose seq is not the Event's,
the loop re-keys it where it lies, under the Event's own key, or drops it
if the Event is cancelled.  An Event has at most one heap entry, and it
never dispatches before its key, so every Event dispatches in exactly the
order that cancelling it and scheduling a new one would give.
"""

from heapq import heappop, heappush, heapreplace

MASK64 = (1 << 64) - 1


class SchedulingError(Exception):
    """Raised when an event is scheduled before the current clock."""


class Event:
    """A scheduled occurrence.  Keep the handle to cancel or reschedule it.

    `(time, seq)` is the dispatch key.  `queued` is the time of the Event's
    heap entry, which is never later than `time`, or None when it has none
    (it dispatched, or its cancelled entry was dropped).
    """

    __slots__ = ("time", "seq", "kind", "target", "fn", "cancelled", "queued")

    def __init__(self, time, seq, kind, target, fn):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.target = target  # node id, or "-" for the medium/engine
        self.fn = fn
        self.cancelled = False
        self.queued = time

    def cancel(self):
        self.cancelled = True


class Simulator:
    """Single-threaded event loop owning the clock, queue and trace."""

    def __init__(self):
        self.now = 0  # [us]
        self._queue = []
        self._seq = 0
        self.dispatched = 0
        # "time\tnode\tkind\tdetail" lines when tracing: a list, or any
        # sink with `append(line)`.
        self.trace_lines = None

    def enable_trace(self, sink=None):
        """Trace into `sink`, or into a new list."""
        self.trace_lines = [] if sink is None else sink

    def trace(self, node, kind, fmt="", *args):
        """One model event's line, with `fmt % args` as its detail (`fmt`
        alone when there are no args).  Formats nothing unless tracing is
        on, so callers need no guard of their own."""
        lines = self.trace_lines
        if lines is not None:
            detail = fmt % args if args else fmt
            lines.append(f"{self.now}\t{node}\t{kind}\t{detail}")

    def schedule(self, time, kind, target, fn):
        """Enqueue `fn` to run at `time`.  Returns a cancellable Event handle."""
        if time < self.now:
            raise SchedulingError(
                "schedule at t=%d before clock t=%d (%s)" % (time, self.now, kind)
            )
        seq = self._seq
        ev = Event(time, seq, kind, target, fn)
        heappush(self._queue, (time, seq, ev))
        self._seq = seq + 1
        return ev

    def reschedule(self, ev, time):
        """Make `ev` pending at `time`, whether it was pending, cancelled or
        dispatched.

        Same as `ev.cancel()` then `schedule(time, ev.kind, ev.target,
        ev.fn)`, and returns the handle to keep.  That is `ev` itself
        unless `time` is earlier than its heap entry: then `ev` stays
        cancelled and a new Event takes its place.
        """
        queued = ev.queued
        if time < self.now or (queued is not None and time < queued):
            ev.cancelled = True
            return self.schedule(time, ev.kind, ev.target, ev.fn)  # raises if past
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        ev.cancelled = False
        if queued is None:
            ev.queued = time
            heappush(self._queue, (time, seq, ev))
        return ev

    def schedule_in(self, delay, kind, target, fn):
        return self.schedule(self.now + delay, kind, target, fn)

    def run_until(self, t_end):
        """Dispatch every event with time <= t_end; leave the clock at t_end."""
        if t_end < self.now:
            raise SchedulingError("run_until(%d) before clock t=%d" % (t_end, self.now))
        count = 0
        q = self._queue
        # The engine's own line per dispatched event, when tracing.
        emit = None if self.trace_lines is None else self.trace_lines.append
        while q:
            time, seq, ev = q[0]
            if time > t_end:
                break
            if seq != ev.seq and not ev.cancelled:
                # A stale entry: re-key it under the Event's key.
                ev.queued = ev.time
                heapreplace(q, (ev.time, ev.seq, ev))
                continue
            heappop(q)
            ev.queued = None
            if ev.cancelled:
                continue
            self.now = time
            if emit is not None:
                emit(f"{time}\t{ev.target}\t{ev.kind}\t")
            ev.fn()
            count += 1
        self.dispatched += count
        self.now = t_end
        return count


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return x, z ^ (z >> 31)


class RandomStream:
    """splitmix64 stream; (seed, node_id) fixes the draw sequence on any platform.

    The substream state is seeded by one splitmix64 step over
    seed XOR (node_id * 0x9E3779B97F4A7C15), so per-node streams are
    independent of each other and of draw order elsewhere.
    """

    __slots__ = ("_state",)

    def __init__(self, seed, node_id):
        mix = (seed ^ ((node_id * 0x9E3779B97F4A7C15) & MASK64)) & MASK64
        _, self._state = _splitmix64(mix)

    def next_u64(self):
        self._state, out = _splitmix64(self._state)
        return out

    def uniform(self):
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def bernoulli(self, p):
        return self.uniform() < p
