"""End-to-end MAC behavior observed through run traces and metrics."""

import ast
import os

from conftest import fields, ica_frag, shipped, single_cell
from macsim import ext, harness
from macsim import mac as mac_mod
from macsim.engine import Event
from macsim.frames import (ACK, ACK_AIR, ACK_BYTES, BEACON, BEACON_BYTES,
                           BROADCAST, CF_END, CF_END_BYTES, CF_POLL,
                           CF_POLL_BYTES, CTS, CTS_AIR, CTS_BYTES, DATA, RTS,
                           RTS_AIR, RTS_BYTES, Frame, frame_airtime)
from macsim.mac import Packet
from macsim.metrics import Recorder
from macsim.phy import airtime
from macsim.scenario import parse_scenario


def _run(text, **kw):
    return harness.run(parse_scenario(text), **kw)


def _tx_starts(trace, kind=None):
    out = []
    for line in trace:
        t, node, ev, detail = line.split("\t")
        if ev == "tx_start" and (kind is None or " %s " % kind in detail):
            out.append((int(t), int(node), detail))
    return out


def test_four_way_exchange_interframe_spacing():
    r = _run(single_cell(1, 1500, seed=1, duration_us=20_000,
                         mac_lines=["rts_threshold = 500"]), trace=True)
    rts = _tx_starts(r.trace_lines, "RTS")[0]
    cts = _tx_starts(r.trace_lines, "CTS")[0]
    data = _tx_starts(r.trace_lines, "DATA")[0]
    ack = _tx_starts(r.trace_lines, "ACK")[0]
    # RTS goes out after DIFS plus a whole number of backoff slots.
    assert (rts[0] - 50) % 20 == 0 and rts[0] >= 50
    # Each following frame starts one SIFS after the previous frame ends.
    assert cts[0] == rts[0] + RTS_AIR + 10
    assert data[0] == cts[0] + CTS_AIR + 10
    assert ack[0] == data[0] + 1283 + 10  # airtime(1500, 11)


def test_two_way_handshake_below_rts_threshold():
    r = _run(single_cell(1, 400, seed=1, duration_us=20_000,
                         mac_lines=["rts_threshold = 500"]), trace=True)
    assert not _tx_starts(r.trace_lines, "RTS")
    assert _tx_starts(r.trace_lines, "DATA")
    assert r.metrics.aggregate_delivered_bits > 0


def test_retry_limit_drops_after_eight_attempts():
    # The receiver is out of range, so no CTS ever comes back.
    text = """
[sim]
seed = 2
duration_us = 400000
[nodes]
0 = 0 0
1 = 100 0
[links]
hear_range = 10
base_fer_high = 0
[mac]
rts_threshold = 500
[flows]
1 = 1 0 backlogged 1500
"""
    r = _run(text, trace=True)
    m = r.metrics
    assert m.flows[1].delivered_bits == 0
    assert m.flows[1].drops >= 1
    drops = [int(line.split("\t")[0]) for line in r.trace_lines
             if "\tdrop\t" in line]
    first_drop = drops[0]
    attempts = [t for t, _, _ in _tx_starts(r.trace_lines, "RTS")
                if t < first_drop]
    assert len(attempts) == 8  # initial attempt + 7 retries
    # Binary exponential growth: later gaps dwarf the earliest ones.
    gaps = [b - a for a, b in zip(attempts, attempts[1:])]
    assert max(gaps) > gaps[0]


def test_fragmentation_burst_sifs_spaced():
    r = _run(single_cell(1, 1500, seed=3, duration_us=30_000,
                         mac_lines=["rts_threshold = 500",
                                    "frag_threshold = 500"]), trace=True)
    datas = _tx_starts(r.trace_lines, "DATA")[:3]
    assert len(datas) == 3 and all("len=500" in d for _, _, d in datas)
    frag_air = 192 + 364  # airtime(500, 11)
    for a, b in zip(datas, datas[1:]):
        # fragment, SIFS, ACK, SIFS, next fragment
        assert b[0] - a[0] == frag_air + 10 + ACK_AIR + 10
    # The packet is delivered once, reassembled from its fragments.
    assert any("deliver" in line and "pkt=0" in line for line in r.trace_lines)
    assert r.metrics.flows[1].delivered_bits >= 1500 * 8


def test_nav_silences_third_party_during_exchange():
    # Node 2 hears only the receiver (CTS side) of the 1->0 exchange and
    # must stay silent until the reservation runs out.
    text = """
[sim]
seed = 5
duration_us = 100000
[nodes]
0 = 0 0
1 = -10 0
2 = 10 0
[links]
hear_range = 12
base_fer_high = 0
[mac]
rts_threshold = 500
[flows]
1 = 1 0 backlogged 1500
2 = 2 0 backlogged 1500
"""
    r = _run(text, trace=True)
    # Whenever a CTS for node 1 goes out, node 2 must not start a new
    # transmission before the covered DATA+ACK completes.
    cts_lines = [(int(line.split("\t")[0]), line) for line in r.trace_lines
                 if "tx_start" in line and "0->1 CTS" in line]
    starts_by_2 = [t for t, n, _ in _tx_starts(r.trace_lines) if n == 2]
    for t, line in cts_lines:
        dur = int(line.rsplit("dur=", 1)[1])
        end = t + CTS_AIR + dur
        assert not any(t + CTS_AIR < s < end for s in starts_by_2)


def test_hidden_nodes_collide_and_are_counted():
    # 1 and 2 cannot sense each other but share receiver 0: 2-way mode
    # guarantees overlapping DATA at the receiver sooner or later.
    text = """
[sim]
seed = 4
duration_us = 1000000
[nodes]
0 = 0 0
1 = -10 0
2 = 10 0
[links]
hear_range = 12
base_fer_high = 0
[mac]
variant = dcf+2way
[flows]
1 = 1 0 backlogged 1500
2 = 2 0 backlogged 1500
"""
    m = harness.run(parse_scenario(text)).metrics
    assert m.collision_events > 0
    assert 0 < m.collision_fraction <= 1
    assert m.total_transmissions > m.collision_events


def test_conservation_generated_equals_delivered_dropped_queued():
    r = _run(single_cell(3, 1000, seed=7, duration_us=2_000_000))
    m = r.metrics
    generated = sum(f.generated_packets for f in m.flows.values())
    delivered = sum(f.delivered_packets for f in m.flows.values())
    dropped = sum(f.drops for f in m.flows.values())
    queued = sum(len(c.queue) for mac in r.macs.values() for c in mac.cats)
    assert generated == delivered + dropped + queued


def test_data_frame_errors_trigger_retry_and_recovery():
    # 2% FER at 300 B doubles per 300 B: 32% per 1500-B frame.  The
    # channel is lossy but usable; retries show up and conservation holds.
    r = _run(single_cell(1, 1500, seed=11, duration_us=1_000_000,
                         link_lines=["base_fer_high = 0.02"],
                         mac_lines=["rts_threshold = 500"]), trace=True)
    m = r.metrics
    assert m.flows[1].delivered_bits > 0
    fails = [line for line in r.trace_lines if "tx_fail" in line]
    assert fails  # the FER must have bitten at least once
    generated = m.flows[1].generated_packets
    queued = sum(len(c.queue) for mac in r.macs.values() for c in mac.cats)
    assert generated == (m.flows[1].delivered_packets + m.flows[1].drops
                         + queued)


def _receive_twice_fragmented():
    """Node 0 of a built, unrun cell receives both fragments of one
    1000-byte packet from node 1, then the final one again, as when the
    ACK to it is lost.  Returns the recorder, the packet and the trace."""
    sim, medium, macs, rec = harness.build(parse_scenario(
        single_cell(1, 1000, seed=1, duration_us=10_000)), trace=True)
    pkt = Packet(0, 1, 1, 0, 1000, 0)
    rec.on_generated(pkt)
    first = Frame(DATA, 1, 0, payload_bytes=500, packet=pkt)
    final = Frame(DATA, 1, 0, payload_bytes=500, packet=pkt, frag_offset=500)
    for frame in (first, final, final):
        macs[0].on_frame(frame)
    return rec, medium, pkt, sim.trace_lines


def test_duplicate_delivery_counted_once():
    rec, medium, pkt, trace = _receive_twice_fragmented()
    assert [line for line in trace if "\tdeliver\t" in line] == [
        "0\t0\tdeliver\tflow=1 pkt=0"]
    m = rec.finalize(10_000, medium.stats).flows[1]
    assert m.delivered_packets == 1
    assert m.delivered_bits == 8000


def test_drop_after_delivery_is_ignored():
    # The data arrived; only the final ACK was lost at the sender.
    rec, medium, pkt, _ = _receive_twice_fragmented()
    rec.on_drop(pkt)
    assert rec.finalize(10_000, medium.stats).flows[1].drops == 0


def test_backlogged_source_refills_after_drop():
    # A sender whose receiver is unreachable keeps generating: every drop
    # frees a queue slot and pulls in the next packet.
    text = """
[sim]
seed = 2
duration_us = 2000000
[nodes]
0 = 0 0
1 = 100 0
[links]
hear_range = 10
base_fer_high = 0
[mac]
rts_threshold = 500
[flows]
1 = 1 0 backlogged 1500
"""
    m = harness.run(parse_scenario(text)).metrics
    assert m.flows[1].drops > 2
    assert m.flows[1].generated_packets > 4


def test_backoff_freezes_while_peer_occupies_medium():
    # Two contending nodes in one cell: transmissions never overlap.
    r = _run(single_cell(2, 1500, seed=6, duration_us=500_000,
                         mac_lines=["rts_threshold = 500"]), trace=True)
    assert r.metrics.collision_fraction < 0.2
    busy_start = busy_until = 0  # the frame on the air that ends last
    overlaps = same_slot = 0
    for t, node, detail in _tx_starts(r.trace_lines):
        if t < busy_until:
            overlaps += 1
            same_slot += t == busy_start
        air = {"RTS": RTS_AIR, "CTS": CTS_AIR, "ACK": ACK_AIR}.get(
            detail.split()[1], None)
        if air is None:
            air = 1283  # DATA at 11 Mbps
        if t + air > busy_until:
            busy_start, busy_until = t, t + air
    # Collisions are possible (equal backoff draws) but must be rare, and
    # every overlap must be a genuine same-slot collision, not a sensing bug:
    # it starts in the same microsecond as the frame it overlaps, and each
    # one is a collision event of its own.
    assert overlaps > 0
    assert same_slot == overlaps
    assert overlaps == r.metrics.collision_events


def test_oar_burst_carries_multiple_packets_per_cts():
    r = _run(single_cell(1, 800, seed=8, duration_us=100_000,
                         variant="dcf+oar",
                         mac_lines=["rts_threshold = 500"]), trace=True)
    cts_count = len(_tx_starts(r.trace_lines, "CTS"))
    data_count = len(_tx_starts(r.trace_lines, "DATA"))
    assert cts_count > 0
    assert data_count > cts_count  # several DATA frames ride one handshake


def test_ica_window_sends_one_frame_flush_with_primary_data():
    # ica_frag's windows have room for several 400-byte fragments, but the
    # ACK of any but the last would reach node 3 during the primary DATA.
    lines = [line.split("\t") for line in
             harness.run(ica_frag(1_000_000), trace=True).trace_lines]
    kinds = [kind for _, _, kind, _ in lines]
    assert "ica_next" not in kinds
    windows = [(node, int(detail.split()[0][len("window_end="):]))
               for _, node, kind, detail in lines if kind == "ica_exposed"]
    starts = [i for i, kind in enumerate(kinds) if kind == "ica_start"]
    assert len(windows) == len(starts) > 50
    for (node, window_end), i in zip(windows, starts):
        # The start event sends the window's only DATA, which ends with
        # the primary DATA.
        _, src, kind, detail = lines[i + 1]
        assert (src, kind) == (node, "tx_start") and " DATA " in detail
        end = next(int(t) for t, src, kind, _ in lines[i + 2:]
                   if src == node and kind == "tx_end")
        assert end == window_end
    assert kinds.count("ica_abort") <= 0.05 * len(windows)


def _first_ica_window():
    """ica_frag built and run until node 3 opens its first exposed window:
    (simulator, node 3's MacNode, the time of the window's start event)."""
    sim, _, macs, _ = harness.build(ica_frag(200_000), trace=True)
    mac = macs[3]
    while mac.phase != mac_mod.ICA_WINDOW:
        sim.run_until(sim.now + 1)
    # The heap also holds NAV groups, which are not Events.
    start = next(ev.time for _, _, ev in sim._queue
                 if isinstance(ev, Event) and ev.kind == "ica_start"
                 and not ev.cancelled)
    return sim, mac, start


def _node_lines_at(trace, node, t):
    return [line.split("\t", 2)[2] for line in trace
            if line.startswith("%d\t%d\t" % (t, node))]


def test_ica_window_aborts_when_a_reply_holds_the_air_at_its_start():
    # A CF-Poll for node 3 arrives just before its window's DATA is due:
    # the response goes out one SIFS later, and the window gives way to it.
    sim, mac, start = _first_ica_window()
    poll = Frame(CF_POLL, 4, 3, payload_bytes=CF_POLL_BYTES)
    sim.schedule(start - mac.params.sifs_us - 1, "test_poll", 4,
                 lambda: mac.on_frame(poll))
    sim.run_until(start)
    assert _node_lines_at(sim.trace_lines, 3, start) == [
        "ica_start\t", "ica_abort\t"]
    assert mac.phase == mac_mod.IDLE
    # The aborted window still keeps node 3 quiet until the primary ACK ends.
    assert mac.nav_until == mac._ica_nav_end > start


def test_ica_window_whose_packet_a_cf_response_sent_closes_unsent():
    # A CF-Poll for node 3 just after its window opens: the response sends
    # the window's packet whole, and ends long before the window's start.
    # The start sends no empty DATA, whose ACK would collide at node 3.
    sim, mac, start = _first_ica_window()
    opened, nav_end, pkt = sim.now, mac._ica_nav_end, mac._chain[0].packet
    poll = Frame(CF_POLL, 4, 3, payload_bytes=CF_POLL_BYTES)
    sim.schedule(opened + 1, "test_poll", 4, lambda: mac.on_frame(poll))
    sim.run_until(start)
    assert pkt.remaining == 0
    assert _node_lines_at(sim.trace_lines, 3, start) == [
        "ica_start\t", "ica_abort\t"]
    assert mac.phase == mac_mod.IDLE and mac.nav_until == nav_end
    sim.run_until(nav_end)
    assert not [line for line in sim.trace_lines
                if start <= int(line.split("\t")[0]) <= nav_end
                and ("\t3\trx\tCOLLIDED" in line or "\t3->" in line)]


def test_ica_window_closed_before_its_start_sends_nothing():
    # However the window closed, its start event finds no frame to send.
    sim, mac, start = _first_ica_window()
    sim.schedule(start - 1, "test_close", 3, mac._ica_abort)
    sim.run_until(start + 1000)
    assert _node_lines_at(sim.trace_lines, 3, start) == ["ica_start\t"]
    assert mac.phase == mac_mod.IDLE


def test_second_overheard_rts_restarts_the_ica_cts_wait():
    # Only the CTS wait of the latest overheard RTS may run out.
    sim, _, macs, _ = harness.build(parse_scenario(
        "[sim]\nduration_us = 5000\n[nodes]\n0 = 0 0\n1 = 5 0\n2 = 10 0\n"
        "[links]\nhear_range = 50\n[mac]\nvariant = dcf+ica\n"), trace=True)
    mac = macs[2]
    for t, xid in ((100, 7), (200, 8)):
        rts = Frame(RTS, 0, 1, duration=2000, payload_bytes=RTS_BYTES, xid=xid)
        sim.schedule(t, "test_rts", 0, lambda f=rts: mac.on_frame(f))
    sim.run_until(5000)
    assert [line for line in sim.trace_lines if "\tica_cts_timeout\t" in line
            ] == ["%d\t2\tica_cts_timeout\t" % (200 + mac.ica_wait)]
    assert mac.nav_until == 2200


def _three_in_a_row(variant="dcf", mac_lines=""):
    """Nodes 0, 1 and 2, 5 m apart, all in range: (simulator, MacNodes),
    traced, with a Recorder for flows 0 and 1."""
    sim, _, macs, _ = harness.build(parse_scenario(
        "[sim]\nduration_us = 5000\n[nodes]\n0 = 0 0\n1 = 5 0\n2 = 10 0\n"
        "[links]\nhear_range = 50\nbase_fer_high = 0\n"
        "[mac]\nvariant = %s\n%s" % (variant, mac_lines)), trace=True)
    recorder = Recorder(sim, [0, 1])
    for mac in macs.values():
        mac.recorder = recorder
    return sim, macs


def _hear(sim, mac, t, frame, seen, probe):
    """At `t`, `mac` receives `frame`; `probe(mac)` is then kept in `seen`."""
    def rx():
        mac.on_frame(frame)
        seen.append(probe(mac))
    sim.schedule(t, "test_rx", mac.node_id, rx)


def test_zero_duration_frame_of_the_held_exchange_cuts_the_nav():
    # An RBAR RTS reserves the air for DATA at its tentative rate.  Node 2
    # hears the RTS, misses the CTS and the DATA, sent at a faster selected
    # rate, and hears the final ACK: the ACK's zero duration ends the NAV
    # the RTS predicted.  The ACK of another exchange leaves it.
    sim, macs = _three_in_a_row()
    seen = []
    for t, frame in (
            (100, Frame(RTS, 0, 1, duration=3000, payload_bytes=RTS_BYTES,
                        xid=7, tentative_rate=2, size=1000)),
            (1500, Frame(ACK, 1, 0, payload_bytes=ACK_BYTES, xid=8)),
            (2000, Frame(ACK, 1, 0, payload_bytes=ACK_BYTES, xid=7))):
        _hear(sim, macs[2], t, frame, seen, lambda mac: mac.nav_until)
    sim.run_until(5000)
    assert seen == [3100, 3100, 2000]
    # The expiry event of the NAV the RTS set goes with it.
    assert not [line for line in sim.trace_lines if "\tnav_expiry\t" in line]


def test_overheard_cts_of_the_watched_rts_ends_the_ica_cts_wait():
    # Node 2 watches node 0's RTS (exchange 7).  The CTS of another
    # exchange leaves the wait running; the watched exchange's CTS ends
    # it, so node 2 is not exposed and keeps the NAV the CTS sets.
    sim, macs = _three_in_a_row("dcf+ica")
    seen = []
    for t, frame in (
            (100, Frame(RTS, 0, 1, duration=2000, payload_bytes=RTS_BYTES,
                        xid=7)),
            (200, Frame(CTS, 0, 1, duration=500, payload_bytes=CTS_BYTES,
                        xid=8)),
            (300, Frame(CTS, 1, 0, duration=1500, payload_bytes=CTS_BYTES,
                        xid=7))):
        _hear(sim, macs[2], t, frame, seen,
              lambda mac: mac._ica_timer is not None)
    sim.run_until(5000)
    assert seen == [True, True, False]
    assert not [line for line in sim.trace_lines if "\tica_cts_timeout\t"
                in line]
    assert macs[2].nav_until == 1800


def test_cf_end_during_an_ica_watch_leaves_no_access_timer_in_the_window():
    # Node 2 has a packet queued.  It senses node 0's CF-END from 0 to
    # 352 us and overhears an RTS at 100 us.  The CF-END clears the NAV of
    # the watch, and its end is an idle edge that arms node 2's access
    # timer, due at 602 us.  At the CTS timeout, 434 us, node 2 is exposed:
    # its window must cancel that timer, so that the window's one DATA
    # frame is the only frame node 2 sends.
    sim, macs = _three_in_a_row("dcf+ica")
    mac = macs[2]
    cat = mac.cats[0]
    cat.queue.append(Packet(0, 0, 2, 1, 500, 0))
    cat.backoff_slots = 10
    cf_end = Frame(CF_END, 0, BROADCAST, payload_bytes=CF_END_BYTES)
    sim.schedule(0, "test_tx", 0, lambda: macs[0]._transmit(cf_end, 1))
    seen = []
    _hear(sim, mac, 100, Frame(RTS, 0, 1, duration=3000,
                               payload_bytes=RTS_BYTES, xid=7),
          seen, lambda mac: mac._ica_timer.time)
    sim.schedule(353, "probe", 2, lambda: seen.append(cat.timer.time))
    sim.schedule(435, "probe", 2, lambda: seen.append(
        (mac.phase, cat.timer)))
    sim.run_until(5000)
    assert seen == [434, 602, (mac_mod.ICA_WINDOW, None)]
    window_end = ext.ica_primary_data_end(3100, mac.params.sifs_us)
    assert [(t, detail.split()[1]) for t, node, detail
            in _tx_starts(sim.trace_lines) if node == 2] == [
        (window_end - frame_airtime(Frame(DATA, 2, 1, payload_bytes=500),
                                    11), DATA)]
    assert not [line for line in sim.trace_lines
                if line.startswith("602\t2\taccess_fire")]


def test_rts_ending_as_the_nav_ends_is_answered():
    # Node 1's NAV ends at 1,000 us, the instant an RTS to it ends: the NAV
    # no longer holds, so node 1 answers one SIFS later.
    sim, macs = _three_in_a_row()
    macs[1].set_nav(1_000)
    _hear(sim, macs[1], 1_000, Frame(RTS, 0, 1, duration=2000,
                                     payload_bytes=RTS_BYTES, xid=7),
          [], lambda mac: None)
    sim.run_until(5000)
    assert [(t, node) for t, node, _ in _tx_starts(sim.trace_lines, "CTS")
            ] == [(1_010, 1)]


def test_dcf_plus_offers_a_reverse_packet_as_large_as_the_fragment_threshold():
    # Node 1 holds a 500-byte packet for node 0, and fragments at 500
    # bytes: the packet fits one frame, so the ACK of node 0's DATA offers
    # it.  The ACK of node 2's DATA offers nothing: no packet waits for 2.
    sim, macs = _three_in_a_row("dcf+plus", "frag_threshold = 500\n")
    mac = macs[1]
    mac.cats[0].queue.append(Packet(1, 1, 1, 0, 500, 0))
    mac.cats[0].backoff_slots = 100  # its own access waits past both
    seen = []
    for t, src in ((100, 2), (1_000, 0)):
        _hear(sim, mac, t, Frame(DATA, src, 1, duration=mac.params.sifs_us
                                 + ACK_AIR, payload_bytes=500,
                                 packet=Packet(t, 0, src, 1, 500, 0), xid=t),
              seen, lambda mac: mac.phase)
    sim.run_until(2_000)
    assert seen == [mac_mod.IDLE, mac_mod.DCFP_WAIT_CTS]
    duration = ext.dcfplus_ack_duration(500, 11, mac.params.sifs_us)
    assert [detail for _, node, detail in _tx_starts(sim.trace_lines, "ACK")
            ] == ["1->2 ACK len=14 rate=1 dur=0",
                  "1->0 ACK len=14 rate=1 dur=%d" % duration]


_TWO_CATEGORIES = "[edcf]\ncat0 = 50 2.0 16 256\ncat1 = 70 2.0 16 256\n"


def test_ica_and_cf_polls_serve_category_0_of_an_edcf_node():
    # Only category 0 holds a packet.  Node 2 is exposed by the RTS it
    # watches; node 1 answers a CF-Poll with its packet.
    sim, macs = _three_in_a_row("dcf+ica+edcf", _TWO_CATEGORIES)
    for mac in macs.values():
        mac.cats[0].queue.append(Packet(mac.node_id, 0, mac.node_id, 0, 100,
                                        0))
    phases = []
    _hear(sim, macs[2], 100, Frame(RTS, 0, 1, duration=3000,
                                   payload_bytes=RTS_BYTES, xid=7),
          [], lambda mac: None)
    sim.schedule(435, "probe", 2, lambda: phases.append(macs[2].phase))
    _hear(sim, macs[1], 500, Frame(CF_POLL, 0, 1,
                                   payload_bytes=CF_POLL_BYTES),
          [], lambda mac: None)
    sim.run_until(600)
    assert phases == [mac_mod.ICA_WINDOW]
    assert [(t, node) for t, node, _ in _tx_starts(sim.trace_lines,
                                                  "DATA_CF_ACK")] == [(510, 1)]


def test_oar_burst_frames_are_whole_packets():
    # A DCF+ receiver offers reverse data after a DATA that carries a whole
    # packet alone, not after a burst's: each burst frame is flagged.
    sim, macs = _three_in_a_row("dcf+oar+plus")
    mac = macs[1]
    cat = mac.cats[0]
    cat.queue.extend(Packet(i, 1, 1, 0, 500, 0) for i in range(3))
    chain = mac._build_chain(cat, 11)
    assert [(e.size, e.standalone) for e in chain] == [(500, 1)] * 3


def test_one_byte_packets_are_delivered():
    # The destination holds no byte of a new packet, however short.
    r = _run(single_cell(1, 1, seed=1, duration_us=20_000))
    assert r.metrics.flows[1].delivered_packets > 0


def test_rts_reserves_the_air_for_the_first_fragment():
    # 1,000 bytes in fragments of 400, 400 and 200: the RTS covers the
    # first one.
    r = _run(single_cell(1, 1000, seed=1, duration_us=20_000,
                         mac_lines=["rts_threshold = 0",
                                    "frag_threshold = 400"]), trace=True)
    rts = _tx_starts(r.trace_lines, "RTS")[0][2]
    assert rts.endswith(" dur=%d" % (30 + CTS_AIR + airtime(400, 11)
                                     + ACK_AIR))


def test_busy_edge_banks_each_whole_slot_even_a_1_us_one():
    # With a 1 us slot, DIFS is 12 us: a busy edge 13 us after the idle
    # edge has counted one slot of the five.
    sim, macs = _three_in_a_row(mac_lines="slot_us = 1\n")
    mac = macs[1]
    cat = mac.cats[0]
    cat.backoff_slots = 5
    mac.enqueue(Packet(0, 1, 1, 0, 100, 0))
    sim.schedule(13, "test_busy", 1, mac.on_sense_enter)
    sim.run_until(13)
    assert cat.backoff_slots == 4


def test_packet_queued_while_the_access_timer_is_pending_keeps_it():
    # Node 1's CF response sends its one packet; the response's end armed
    # the access timer (735 us) while the packet was still queued.  A
    # packet that arrives before the timer is due takes that timer.
    sim, macs = _three_in_a_row()
    mac = macs[1]
    cat = mac.cats[0]
    cat.backoff_slots = 20
    mac.enqueue(Packet(0, 1, 1, 0, 100, 0))
    _hear(sim, mac, 10, Frame(CF_POLL, 0, 1, payload_bytes=CF_POLL_BYTES),
          [], lambda mac: None)
    sim.schedule(300, "test_arrival", 1, lambda: mac.enqueue(
        Packet(1, 1, 1, 0, 100, 300)))
    sim.run_until(300)
    assert len(cat.queue) == 1 and cat.timer.time == 735


def test_access_timer_armed_from_an_old_idle_edge_fires_at_once():
    # A genie tie-break can leave a node idle with a queued packet and no
    # timer (it yielded to a node whose frame then never came): a packet
    # that arrives later arms from the old idle edge, whose backoff has
    # run out, so the timer is due at once.
    sim, macs = _three_in_a_row()
    mac = macs[1]
    cat = mac.cats[0]
    cat.backoff_slots = 0
    cat.queue.append(Packet(0, 1, 1, 0, 100, 0))
    seen = []

    def arrival():
        mac.enqueue(Packet(1, 1, 1, 0, 100, 1_000))
        seen.append(cat.timer.time)

    sim.schedule(1_000, "test_arrival", 1, arrival)
    sim.run_until(1_000)
    assert seen == [1_000]


def test_genie_tiebreak_yields_only_to_nodes_it_senses():
    # Two pairs 1 km apart, out of each other's sense range.  At these
    # seeds node 2's access timer used to tie with node 0's and yield to
    # it; nothing node 2 senses then re-armed it, and flow 1 delivered
    # nothing.
    for seed in (1, 28, 32):
        r = _run("[sim]\nseed = %d\nduration_us = 500000\ngenie_tiebreak = 1\n"
                 "[nodes]\n0 = 0 0\n1 = 10 0\n2 = 1000 0\n3 = 1010 0\n"
                 "[links]\nhear_range = 50\n[flows]\n"
                 "0 = 0 1 backlogged 1000\n1 = 2 3 backlogged 1000\n" % seed)
        assert all(f.delivered_packets > 0
                   for f in r.metrics.flows.values()), seed


def _estimate_samples(mac):
    """(time, bits) samples held by any traffic estimator the node keeps."""
    samples = []
    for _, obj in fields(mac):
        for name in ("_own", "_others"):
            samples += list(getattr(obj, name, ()))
    return samples


def test_firing_category_that_loses_a_virtual_collision():
    # Both of node 1's categories are due at 70 us, and cat1, armed first,
    # fires first.  cat0 has the lower AIFS and wins: cat1 backs off, and
    # cat0's timer, still pending, sends its frame at the same instant.
    # The losing category used to cancel its own, spent timer and crash.
    s = parse_scenario("[sim]\nduration_us = 5000\n[nodes]\n0 = 0 0\n"
                       "1 = 5 0\n[links]\nhear_range = 50\n"
                       "base_fer_high = 0\n[mac]\nvariant = dcf+edcf\n"
                       "[flows]\n1 = 1 0 cbr 100 800 cat=1\n"
                       "2 = 1 0 cbr 100 800\n[edcf]\ncat0 = 50 2.0 16 256\n"
                       "cat1 = 70 2.0 16 256\n")
    sim, medium, macs, recorder = harness.build(s, trace=True)
    cat0, cat1 = macs[1].cats
    cat0.backoff_slots, cat1.backoff_slots = 1, 0
    sim.run_until(s.duration_us)
    node1 = [line for line in sim.trace_lines
             if line.split("\t")[1] == "1"]
    assert node1[2:6] == [
        "70\t1\taccess_fire\t", "70\t1\tvirtual_collision\twinner=cat0",
        "70\t1\taccess_fire\t",
        "70\t1\ttx_start\t1->0 DATA len=100 rate=11 dur=314"]
    flows = recorder.finalize(s.duration_us, medium.stats).flows
    assert flows[1].delivered_packets == flows[2].delivered_packets == 1


# Node 1 ACKs a DATA frame from node 0 while an earlier reverse-grant offer
# still waits for its CTS, and that offer's timeout ends the exchange before
# the ACK ends.  The ACK's end used to arm a second `dcfp_cts_timeout`
# anyway; it ended node 1's next exchange while its ACK timeout was
# pending, and that timeout crashed on the chain the exchange had dropped.
_STALE_OFFER = """\
[sim]
duration_us = 45000
[nodes]
0 = 17.2 31.4
1 = 25.3 25.6
2 = 24.7 10.1
3 = 17.2 31.4
[links]
[mac]
variant = dcf+plus+ica+2way+edcf+pcf
node.0.variant = dcf
[flows]
1 = 0 1 cbr 50 50000
2 = 0 1 cbr 50 50000
13 = 1 0 backlogged 50
[edcf]
cat0 = 50 2.0 16 256
[pcf]
coordinator = 0
pollable = 1 2 3
superframe_us = 16524
cfp_max_us = 6992
cp_min_us = 9532
"""


def test_response_timeout_outlived_by_its_exchange_is_not_armed():
    sim, medium, macs, recorder = harness.build(parse_scenario(_STALE_OFFER))
    sim.run_until(45_000)
    assert sim.now == 45_000
    assert recorder.finalize(45_000, medium.stats).flows[13].delivered_packets


def test_packet_arriving_as_the_nav_ends_arms_at_the_expiry_idle_edge():
    # The NAV ends at 1,000 us and a packet arrives at that instant, before
    # the NAV expiry event runs: the node is virtually idle but has no idle
    # edge yet.  It must not arm from the busy edge's missing `idle_since`;
    # the expiry's idle edge arms it, counting from 1,000 us.
    sim, medium, macs, recorder = harness.build(parse_scenario(
        "[sim]\nduration_us = 2000\n[nodes]\n0 = 0 0\n1 = 5 0\n"
        "[links]\nhear_range = 50\n[flows]\n"))
    mac = macs[0]
    cat = mac.cats[0]
    cat.backoff_slots = 3
    seen = []
    sim.schedule(1_000, "test_arrival", 0, lambda: mac.enqueue(
        Packet(0, 0, 0, 1, 500, 1_000)))
    sim.schedule(1_000, "probe", 0, lambda: seen.append(cat.timer))
    mac.set_nav(1_000)
    sim.run_until(1_000)
    assert seen == [None]
    assert mac.idle_since == cat.count_start == 1_000
    assert cat.timer.time == 1_000 + mac.params.difs_us + 3 * mac.params.slot_us


def test_access_timer_due_as_the_node_s_own_frame_starts_waits_for_its_end():
    # A point coordinator's step and its node's access timer can be due at
    # one instant.  When the step dispatches first, the timer finds the
    # node's own frame on the air: it must not start a second frame, but
    # wait with no slots left and go one DIFS after the frame's end.
    sim, medium, macs, _ = harness.build(parse_scenario(
        "[sim]\nduration_us = 3000\n[nodes]\n0 = 0 0\n1 = 5 0\n"
        "[links]\nhear_range = 50\nbase_fer_high = 0\n"
        "[mac]\nrts_threshold = 3000\n"), trace=True)
    recorder = Recorder(sim, [0])
    for mac in macs.values():
        mac.recorder = recorder
    mac = macs[0]
    cat = mac.cats[0]
    cat.backoff_slots = 3
    mac.enqueue(Packet(0, 0, 0, 1, 500, 0))
    due = cat.timer.time
    beacon = Frame(BEACON, 0, BROADCAST, payload_bytes=BEACON_BYTES)
    sim.schedule(due, "step", 0, lambda: mac._transmit(beacon, 1))
    sim.reschedule(cat.timer, due)  # now the step dispatches first
    sim.run_until(3000)
    starts = [(t, detail.split()[1])
              for t, _, detail in _tx_starts(sim.trace_lines)]
    assert starts[:2] == [(due, BEACON), (due + frame_airtime(beacon, 1)
                                          + mac.params.difs_us, DATA)]


def test_genie_tiebreak_sees_every_category_timer():
    # Nodes 1 and 2 both reach the medium at t=90 on category 0, and node 2
    # dispatches first.  Node 1 armed its category 1, due at t=170, last:
    # the tie-break must still see its category 0 timer, so node 1 sends.
    sim, medium, macs, _ = harness.build(parse_scenario(
        "[sim]\nduration_us = 1000\ngenie_tiebreak = 1\n"
        "[nodes]\n0 = 0 0\n1 = 1 0\n2 = 2 0\n"
        "[links]\nhear_range = 50\nbase_fer_high = 0\n"
        "[mac]\nvariant = dcf+edcf\nrts_threshold = 3000\n"
        "[edcf]\ncat0 = 50 2.0 16 256\ncat1 = 70 2.0 16 256\n"), trace=True)
    recorder = Recorder(sim, [0, 1, 2])
    for mac in macs.values():
        mac.recorder = recorder
    for node, cat, slots, fid in ((2, 0, 2, 0), (1, 0, 2, 1), (1, 1, 5, 2)):
        mac = macs[node]
        mac.cats[cat].backoff_slots = slots
        mac.enqueue(Packet(fid, fid, node, 0, 500, 0), cat)
    sim.run_until(1000)
    assert _tx_starts(sim.trace_lines)[0][:2] == (90, 1)


def test_only_estimation_backoff_keeps_traffic_samples():
    # Plain DCF never reads a traffic estimate, so it must keep no samples:
    # samples appended on every ACK and never pruned grow without bound.
    r = harness.run(shipped("single_cell", 2_000_000))
    assert not any(_estimate_samples(m) for m in r.macs.values())
    # Estimation backoff keeps samples, but only about one window of them.
    r = harness.run(shipped("single_cell", 2_000_000, "dcf+est"))
    kept = [t for m in r.macs.values() for t, _ in _estimate_samples(m)]
    assert kept and min(kept) >= 2_000_000 - 2 * 100_000


def test_every_macnode_attribute_is_assigned_in_init():
    # State that only some methods create is invisible to the reader of
    # __init__ and outlives the exchange that made it.
    path = os.path.join(os.path.dirname(mac_mod.__file__), "mac.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "MacNode")

    def assigned(fn):
        """{attribute: first line} of every `self.<attribute>` stored to."""
        out = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store) and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                out.setdefault(node.attr, node.lineno)
        return out

    methods = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
    fields = assigned(next(f for f in methods if f.name == "__init__"))
    stray = sorted("%s (%s, line %d)" % (attr, f.name, line)
                   for f in methods if f.name != "__init__"
                   for attr, line in assigned(f).items()
                   if attr not in fields)
    assert not stray, "assigned outside __init__: %s" % ", ".join(stray)


# perfbench/layers.py wraps these by name to count calls, so they stay in
# src/ until it reads the run's own counters instead (ROADMAP item 2).
_UNREFERENCED_OK = {
    "Topology.can_hear": "perfbench/layers.py wraps it by name",
    "Topology.can_sense": "perfbench/layers.py wraps it by name",
    "Topology.received_power": "perfbench/layers.py wraps it by name",
}


def test_every_src_function_is_referenced_in_src():
    # A helper that only tests call is code the model does not run.  A
    # reference is a name, an attribute, an imported name or a string, since
    # some hooks (`on_hear`) are looked up with getattr.  A name used inside
    # a def of the same name is no reference: two unused defs of one name
    # (a method that calls a helper) would otherwise keep each other.
    src = os.path.dirname(mac_mod.__file__)
    defs, refs = {}, set()

    def collect(node, prefix):
        """{qualified name: name} of every non-dunder def under `node`."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if isinstance(child, ast.FunctionDef) and not (
                        child.name.startswith("__")
                        and child.name.endswith("__")):
                    defs[qual] = child.name
                collect(child, qual + ".")
            else:
                collect(child, prefix)

    def walk(node, inside):
        """Add the references under `node`, where `inside` holds the names
        of the defs around it."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            elif isinstance(child, ast.Constant) and isinstance(child.value,
                                                                str):
                name = child.value
            else:
                name = None
            if name is not None and name not in inside:
                refs.add(name)
            if isinstance(child, ast.FunctionDef):
                walk(child, inside | {child.name})
            else:
                walk(child, inside)

    for fname in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read())
        collect(tree, "")
        walk(tree, frozenset())
    unused = sorted(q for q, name in defs.items() if name not in refs)
    assert unused == sorted(_UNREFERENCED_OK), \
        "defs with no reference in src/: %s" % unused


def _instance_fields(cls_node):
    """Names a class's methods assign on their first parameter, closures
    inside them included, and the fields a dataclass body annotates."""
    names = {n.target.id for n in cls_node.body
             if isinstance(n, ast.AnnAssign)
             and isinstance(n.target, ast.Name)}
    for fn in cls_node.body:
        if not isinstance(fn, ast.FunctionDef) or not fn.args.args:
            continue
        me = fn.args.args[0].arg
        names.update(n.attr for n in ast.walk(fn)
                     if isinstance(n, ast.Attribute)
                     and isinstance(n.ctx, ast.Store)
                     and isinstance(n.value, ast.Name) and n.value.id == me)
    return names


def test_mac_node_fields_have_a_fixed_layout():
    # CPython keeps about 30 fields of an instance inline and puts the rest
    # in a per-instance dict, so MacNode, which the medium's loops read for
    # every node in range, declares its fields.  A field assigned only in a
    # rare branch (ICA, DCF+) fails here rather than mid-run.
    src = os.path.dirname(mac_mod.__file__)
    big = []
    for fname in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read())
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            slotted = any(isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in n.targets) for n in cls.body)
            assigned = _instance_fields(cls)
            if fname == "mac.py" and cls.name == "MacNode":
                assert slotted
                slots = mac_mod.MacNode.__slots__
                assert len(slots) == len(set(slots))
                assert set(slots) == assigned
            elif not slotted and len(assigned) >= 29:
                big.append((fname, cls.name, len(assigned)))
    assert not big, "classes near the inline-field limit: %s" % big
    s = parse_scenario(single_cell(2, 500, 1, 10_000))
    _, _, macs, _ = harness.build(s)
    assert not any(hasattr(mac, "__dict__") for mac in macs.values())
