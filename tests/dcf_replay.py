"""Exact DCF schedule replay: the reference the simulator's DCF must match.

On one cell where every node hears every other, with error-free links and
no capture, plain DCF is deterministic given each sender's backoff draws.
Each sender draws from its own RandomStream(seed, node_id), as a MacNode
does, so this replay predicts every frame start and every drop to the
microsecond.  It takes the frame airtimes and the backoff draw from the
package, and none of its MAC or medium code.

The rules, as the simulator models IEEE 802.11-1999 9.2:
- A sender counts its backoff from the later of the channel's idle edge
  and the time it became ready (its flow's start, or its response
  timeout), plus DIFS, one slot per backoff slot.
- A busy edge banks floor(elapsed / slot) slots: a slot that was only
  partly idle does not count.
- Senders whose counts end at one instant all transmit.  A lone sender
  succeeds, and the channel is idle again from the ACK's end; the winner
  draws its next backoff from cw_min.
- Two or more collide, and the channel is idle again from their frames'
  end.  Each collider times out one SIFS, one response and one slot after
  its frame's end.  Its window doubles (up to cw_max), or resets to cw_min
  when the retry limit is passed and the packet is dropped, and then it
  draws.  There is no EIFS.
"""

from macsim.dcf import draw_backoff
from macsim.engine import RandomStream
from macsim.frames import ACK, ACK_AIR, CTS, CTS_AIR, DATA, RTS, RTS_AIR
from macsim.phy import airtime

AP = 0  # the node every sender sends to
DATA_RATE = 11  # Mbps, the default [mac] data_rate


class _Sender:
    def __init__(self, node_id, seed, cw_min, start_us):
        self.rng = RandomStream(seed, node_id)
        self.cw = cw_min
        self.retries = 0
        self.slots = draw_backoff(cw_min, self.rng)
        self.ready = start_us  # when it may next count


def replay(starts, seed, duration_us, packet_bytes, rts, cw_min, cw_max,
           retry_limit, slot_us, sifs_us):
    """Frame starts and drops of backlogged senders 1..len(starts) to the
    access point, sender i's flow starting at starts[i - 1].

    Returns ({node: [(start_us, kind), ...]}, {node: [drop_us, ...]}), each
    up to `duration_us` inclusive, as the simulator's trace would show.
    """
    difs = sifs_us + 2 * slot_us
    data_air = airtime(packet_bytes, DATA_RATE)
    first_air = RTS_AIR if rts else data_air  # the frame that can collide
    timeout = sifs_us + (CTS_AIR if rts else ACK_AIR) + slot_us
    senders = {i: _Sender(i, seed, cw_min, start)
               for i, start in enumerate(starts, 1)}
    frames = {i: [] for i in range(len(starts) + 1)}
    drops = {i: [] for i in senders}
    idle = 0  # the channel's last idle edge
    while True:
        count = {i: max(idle, s.ready) for i, s in senders.items()}
        fire = {i: count[i] + difs + s.slots * slot_us
                for i, s in senders.items()}
        now = min(fire.values())
        if now > duration_us:
            break
        for i, s in senders.items():
            elapsed = now - count[i] - difs
            if fire[i] != now and elapsed > 0:
                s.slots -= elapsed // slot_us
        tx = [i for i in senders if fire[i] == now]
        if len(tx) == 1:
            i = tx[0]
            t = now
            if rts:
                frames[i].append((t, RTS))
                t += RTS_AIR + sifs_us
                frames[AP].append((t, CTS))
                t += CTS_AIR + sifs_us
            frames[i].append((t, DATA))
            t += data_air + sifs_us
            frames[AP].append((t, ACK))
            idle = t + ACK_AIR
            s = senders[i]
            s.cw = cw_min
            s.retries = 0
            s.slots = draw_backoff(cw_min, s.rng)
            continue
        idle = now + first_air
        for i in tx:
            frames[i].append((now, RTS if rts else DATA))
            s = senders[i]
            s.ready = idle + timeout
            s.retries += 1
            s.cw = min(2 * s.cw, cw_max)
            if s.retries > retry_limit:
                s.retries = 0
                s.cw = cw_min
                drops[i].append(s.ready)
            s.slots = draw_backoff(s.cw, s.rng)
    return ({i: [f for f in fs if f[0] <= duration_us]
             for i, fs in frames.items()},
            {i: [t for t in ts if t <= duration_us] for i, ts in drops.items()})
