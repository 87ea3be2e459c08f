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
When an entry surfaces whose seq is not the Event's, the loop pushes the
Event again under its own key, or drops the entry if the Event is
cancelled.  An Event has at most one heap entry, and it never dispatches
before its key, so every Event dispatches in exactly the order that
cancelling it and scheduling a new one would give.

A timer that many targets set to one instant (every node that overhears a
frame sets its NAV to the same end) is armed with `Simulator.arm` instead.
Each arm files the Event under a fresh seq in the group for its instant,
and the group waits behind one heap entry, keyed by its first member's seq.
Re-arming or cancelling a member rewrites only its seq or flag: the loop
skips a member filed under a seq that is no longer its own, with no heap
work.  The loop dispatches a group's live members in seq order, and before
each one checks the heap: when the heap holds a smaller key at that
instant, the group goes back under that member's key.  So every member
dispatches in exactly the (time, seq) order that an Event of its own
would.  An arm for the instant being walked starts a new group.
"""

from bisect import insort
from heapq import heappop, heappush

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


class _Group(list):
    """The `(seq, event)` members armed for one instant, in seq order.  `key`
    is the seq of the group's live heap entry, None from when the loop
    takes the group; an entry under any other seq is dropped."""

    __slots__ = ("key",)


class Simulator:
    """Single-threaded event loop owning the clock, queue and trace."""

    def __init__(self):
        self.now = 0  # [us]
        self._queue = []
        self._groups = {}  # time -> the _Group that `arm` files into
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

    def arm(self, ev, time):
        """File `ev` in the group for `time`.  Same as `ev.cancel()` then
        `schedule(time, ev.kind, ev.target, ev.fn)`, and returns the handle
        to keep: `ev` itself.  An Event armed here is moved only with `arm`
        or `cancel`, never with `reschedule`."""
        if time < self.now:
            ev.cancelled = True
            raise SchedulingError(
                "arm at t=%d before clock t=%d (%s)" % (time, self.now, ev.kind))
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        ev.cancelled = False
        try:
            group = self._groups[time]
        except KeyError:
            group = self._groups[time] = _Group(((seq, ev),))
            group.key = seq
            heappush(self._queue, (time, seq, group))
            return ev
        if seq < group[-1][0]:  # only if `_seq` is not monotone
            insort(group, (seq, ev))
            if seq < group.key:
                group.key = seq
                heappush(self._queue, (time, seq, group))
        else:
            group.append((seq, ev))
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
        while q and q[0][0] <= t_end:
            time, seq, ev = heappop(q)
            if type(ev) is _Group:
                if seq == ev.key:
                    count += self._walk(ev, time, emit)
                continue
            if ev.cancelled:
                ev.queued = None
                continue
            if seq != ev.seq:  # stale entry: requeue under the Event's key
                ev.queued = ev.time
                heappush(q, (ev.time, ev.seq, ev))
                continue
            ev.queued = None
            self.now = time
            if emit is not None:
                emit(f"{time}\t{ev.target}\t{ev.kind}\t")
            ev.fn()
            count += 1
        self.dispatched += count
        self.now = t_end
        return count

    def _walk(self, group, time, emit):
        """Dispatch `group`'s live members in seq order until the heap holds
        a smaller key at `time`; returns how many dispatched.  The group
        takes no new members from here on: an arm for `time` starts a new
        group."""
        q = self._queue
        groups = self._groups
        if groups.get(time) is group:
            del groups[time]
        group.key = None
        self.now = time
        count = 0
        for i, (seq, ev) in enumerate(group):
            if ev.seq != seq or ev.cancelled:
                continue
            if q:
                top = q[0]
                if top[0] == time and top[1] < seq:
                    del group[:i]
                    group.key = seq
                    heappush(q, (time, seq, group))
                    return count
            if emit is not None:
                emit(f"{time}\t{ev.target}\t{ev.kind}\t")
            ev.fn()
            count += 1
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
