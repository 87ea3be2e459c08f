"""Point coordination: superframe structure, polling, silence recovery."""

import os

import pytest
from conftest import SCENARIOS

from macsim import harness
from macsim import pcf as pcf_mod
from macsim.dcf import MacParams
from macsim.frames import (BEACON, CF_END, CF_POLL, CF_POLL_BYTES,
                           DATA_CF_ACK, MAX_MSDU_BYTES, Frame)
from macsim.mac import MacNode
from macsim.pcf import BEACON_AIR, CF_END_AIR, POLL_AIR, min_cp_us
from macsim.phy import airtime
from macsim.scenario import ScenarioError, parse_scenario


def _pcf_text(extra_nodes="", extra_flows="", pollable="1 2",
              cp_min=20000, superframe=60000, cfp_max=30000, duration=300000):
    return """
[sim]
seed = 1
duration_us = %d
[nodes]
0 = 0 0
1 = 5 0
2 = -5 0
%s
[links]
hear_range = 50
base_fer_high = 0
[mac]
variant = dcf+pcf
[pcf]
coordinator = 0
pollable = %s
superframe_us = %d
cfp_max_us = %d
cp_min_us = %d
[flows]
1 = 1 2 backlogged 500
%s
""" % (duration, extra_nodes, pollable, superframe, cfp_max, cp_min,
       extra_flows)


def _events(trace, kind):
    return [(int(l.split("\t")[0]), l) for l in trace
            if "\t%s" % kind in l]


def test_min_cp_formula():
    p = MacParams()
    want = (50 + 255 * 20 + 352 + 304 + 1283 + 304 + 30)
    assert min_cp_us(p, 1500, 11) == want


def test_superframe_budget_validated():
    with pytest.raises((ScenarioError, ValueError)):
        harness.run(parse_scenario(
            _pcf_text(cp_min=50000, superframe=60000, cfp_max=30000)))


def test_cp_min_floor_validated():
    with pytest.raises((ScenarioError, ValueError)):
        harness.run(parse_scenario(_pcf_text(cp_min=1000)))


def test_beacon_opens_each_superframe_after_pifs():
    r = harness.run(parse_scenario(_pcf_text()), trace=True)
    beacons = [(t, l) for t, l in _events(r.trace_lines, "tx_start")
               if "BEACON" in l]
    assert len(beacons) >= 4
    # First boundary at t=0 with an idle channel: beacon exactly at PIFS.
    assert beacons[0][0] == 30
    # Beacons recur once per superframe period.
    gaps = [b - a for (a, _), (b, _) in zip(beacons, beacons[1:])]
    assert all(abs(g - 60000) <= 5000 for g in gaps)


def _one_frame_at_a_time(trace):
    """Fail if a node starts a frame while its own is on the air."""
    sending = set()
    for line in trace:
        t, node, kind, _ = line.split("\t")
        if kind == "tx_start":
            assert node not in sending, "node %s sends twice at %s" % (node, t)
            sending.add(node)
        elif kind == "tx_end":
            sending.discard(node)


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_coordinator_with_dcf_traffic_sends_one_frame_at_a_time(seed):
    # The coordinator's node also sends DCF frames.  At these seeds a
    # beacon's PIFS ends while one is on the air: the beacon waits for the
    # frame's end and a new PIFS, where it used to go out at once.
    text = _pcf_text(extra_flows="2 = 0 1 backlogged 500")
    r = harness.run(parse_scenario(text.replace("seed = 1",
                                                "seed = %d" % seed)),
                    trace=True)
    _one_frame_at_a_time(r.trace_lines)
    beacons = [t for t, l in _events(r.trace_lines, "tx_start")
               if "BEACON" in l]
    assert len(beacons) == 5  # one per 60 ms superframe
    assert r.metrics.flows[2].delivered_packets > 0


def test_beacon_due_during_the_coordinator_s_own_frame_waits_for_its_end():
    # Node 0 coordinates and acknowledges node 2's DATA.  Its beacon's PIFS
    # ends while its own ACK is on the air (240,244 us, inside the ACK of
    # 240,224-240,528): the beacon waits for the ACK's end and a new PIFS.
    text = _pcf_text(extra_flows="2 = 2 0 backlogged 500")
    r = harness.run(parse_scenario(text), trace=True)
    _one_frame_at_a_time(r.trace_lines)
    pifs = MacParams().pifs_us
    own, held = None, []  # node 0's frame on the air: its start
    lines = [line.split("\t") for line in r.trace_lines]
    for i, (t, node, kind, detail) in enumerate(lines):
        if node != "0":
            continue
        if kind == "tx_start":
            own = detail
        elif kind == "tx_end":
            own = None
        elif kind == "beacon_pifs" and own is not None:
            end = next(int(t2) for t2, n2, k2, _ in lines[i:]
                       if n2 == "0" and k2 == "tx_end")
            beacon = next((int(t2), d2) for t2, n2, k2, d2 in lines[i:]
                          if n2 == "0" and k2 == "tx_start")
            held.append((int(t), own.split()[1], beacon[0] - end,
                         beacon[1].split()[1]))
    assert held == [(240_244, "ACK", pifs, BEACON)]


def test_beacon_duration_ends_at_the_cfp_s_latest_end_or_is_zero():
    # Node 2's 2,304-byte frames at 1 Mbps outlast a 1,000 us CFP: a
    # beacon that waits one out starts after its CFP's latest end and
    # silences no one.
    text = _pcf_text(extra_flows="2 = 2 1 backlogged 2304", cfp_max=1000,
                     duration=140_000).replace(
        "variant = dcf+pcf", "variant = dcf+pcf\nnode.2.data_rate = 1")
    r = harness.run(parse_scenario(text), trace=True)
    durations = []
    for t, line in _events(r.trace_lines, "tx_start"):
        if " BEACON " in line:
            cfp_end = t // 60_000 * 60_000 + 1000
            assert line.endswith(" dur=%d" % max(0, cfp_end - t - BEACON_AIR))
            durations.append(int(line.rsplit("=", 1)[1]))
    assert 0 in durations and max(durations) > 0


@pytest.mark.parametrize("slack", [-1, 0])
def test_station_is_polled_only_if_its_worst_response_fits(slack):
    # Node 1's worst case after the poll that follows the beacon: the poll,
    # two SIFS, a PIFS and a 2,304-byte response at 11 Mbps, then the
    # CF-END.  A CFP that ends `slack` us after all that passes it over.
    p = MacParams()
    first_poll = p.pifs_us + BEACON_AIR + p.sifs_us
    worst = (POLL_AIR + 2 * p.sifs_us + p.pifs_us
             + airtime(MAX_MSDU_BYTES, 11) + CF_END_AIR)
    r = harness.run(parse_scenario(_pcf_text(
        pollable="1", cfp_max=first_poll + worst + slack, duration=10_000)),
        trace=True)
    first = [l.split("\t")[3].split()[1] for _, l in
             _events(r.trace_lines, "tx_start") if "\t0\t" in l][1]
    assert first == (CF_POLL if slack >= 0 else CF_END)


def test_coordinator_acts_when_its_carrier_goes_idle_not_at_each_frame_end():
    # Two frames overlap at the coordinator during a response: the end of
    # the first leaves the carrier busy, so the response is not over.
    _, medium, macs, _ = harness.build(parse_scenario(_pcf_text()))
    pc = medium.coordinator
    pc.state = pcf_mod._IN_RESPONSE
    macs[0].sense_count = 1
    pc.on_sense_exit()
    assert pc.state == pcf_mod._IN_RESPONSE


def test_poll_step_due_during_the_coordinator_s_own_poll_waits_for_its_end():
    # Node 2 coordinates and senses, but cannot decode, node 1.  Node 1's
    # ACK starts and ends while node 2's CF-Poll to node 0 (which is sending
    # and cannot hear it) is on the air, 128,492-128,844 us.  The ACK's end
    # reads as the end of a response and makes the next poll step due at
    # 128,823; it used to send CF-END over the poll.  Now the step waits
    # for the poll's end, and no silence timer is armed for the poll.
    s = parse_scenario(
        "[sim]\nduration_us = 130000\n[nodes]\n0 = 0.0 0.0\n1 = 0.0 1.2\n"
        "2 = 13.2 5.8\n[links]\nhear_range = 13\nsense_range = 14\n"
        "[mac]\nvariant = dcf+plus+ica+2way+edcf+pcf\n"
        "[flows]\n1 = 0 1 cbr 50 50000\n[edcf]\ncat0 = 50 2.0 16 256\n"
        "[pcf]\ncoordinator = 2\npollable = 0\nsuperframe_us = 12786\n"
        "cfp_max_us = 3254\ncp_min_us = 9532\n")
    r = harness.run(s, trace=True)
    _one_frame_at_a_time(r.trace_lines)
    assert [l for l in r.trace_lines if 128_800 <= int(l.split("\t")[0])
            and l.split("\t")[1] == "2"] == [
        "128823\t2\tcf_poll_gap\t", "128844\t2\ttx_end\t",
        "128854\t2\tcf_poll_gap\t", "128854\t2\tcf_end\tpolled=1",
        "128854\t2\ttx_start\t2->-1 CF_END len=20 rate=1 dur=0",
        "129206\t2\ttx_end\t"]


def test_cf_response_that_empties_the_queue_leaves_no_access_to_take():
    # The response's end arms node 1's access timer while its one packet is
    # still queued; the packet then leaves with the response, and the timer
    # fires on an empty queue.  It used to start an exchange and crash.
    s = parse_scenario("[sim]\nduration_us = 20000\n[nodes]\n0 = 0 0\n"
                       "1 = 5 0\n[links]\nhear_range = 50\n"
                       "base_fer_high = 0\n[flows]\n1 = 1 0 cbr 100 800\n")
    sim, medium, macs, recorder = harness.build(s, trace=True)
    poll = Frame(CF_POLL, 0, 1, payload_bytes=CF_POLL_BYTES)
    sim.schedule(10, "test_poll", 0, lambda: macs[1].on_frame(poll))
    sim.run_until(s.duration_us)
    assert _events(sim.trace_lines, "access_fire")
    assert [l for _, l in _events(sim.trace_lines, "tx_start")] == [
        "20\t1\ttx_start\t1->0 DATA_CF_ACK len=100 rate=11 dur=0"]
    flow = recorder.finalize(s.duration_us, medium.stats).flows[1]
    assert flow.generated_packets == flow.delivered_packets == 1


def test_polls_round_robin_and_cf_end_closes_cfp():
    r = harness.run(parse_scenario(_pcf_text()), trace=True)
    polls = [(t, l) for t, l in _events(r.trace_lines, "tx_start")
             if "CF_POLL" in l]
    assert polls
    dsts = [l.split("0->")[1].split()[0] for _, l in polls]
    # Alternating across the pollable list, position carried over.
    assert set(dsts) == {"1", "2"}
    for a, b in zip(dsts, dsts[1:]):
        assert a != b
    cf_ends = [(t, l) for t, l in _events(r.trace_lines, "tx_start")
               if "CF_END" in l]
    assert len(cf_ends) >= 4


def test_polled_node_sends_data_without_rts():
    r = harness.run(parse_scenario(_pcf_text()), trace=True)
    beacons = [t for t, l in _events(r.trace_lines, "tx_start")
               if "BEACON" in l]
    cf_ends = [t for t, l in _events(r.trace_lines, "tx_start")
               if "CF_END" in l]
    # Inside the first CFP: only the coordinator and polled responders talk,
    # and nobody uses RTS/CTS.
    cfp = (beacons[0], cf_ends[0])
    for t, l in _events(r.trace_lines, "tx_start"):
        if cfp[0] <= t <= cfp[1]:
            assert "RTS" not in l and "CTS" not in l
    # The backlogged flow moves data via DATA_CF_ACK during CFP.
    assert any("DATA_CF_ACK" in l and cfp[0] <= t <= cfp[1]
               for t, l in _events(r.trace_lines, "tx_start"))


def test_empty_queue_answers_cf_ack():
    # Node 2 never has traffic, so its poll responses are bare CF_ACKs.
    r = harness.run(parse_scenario(_pcf_text()), trace=True)
    assert any("tx_start" in l and "2->0 CF_ACK" in l
               for l in r.trace_lines)


def test_silent_station_recovered_after_pifs():
    # Node 2 is pollable but out of the coordinator's range: its polls go
    # unanswered and the coordinator moves on after a PIFS timeout.
    text = _pcf_text(extra_nodes="", pollable="1 2").replace("2 = -5 0",
                                                             "2 = 100 0")
    text = text.replace("1 = 1 2 backlogged 500", "1 = 1 0 backlogged 500")
    r = harness.run(parse_scenario(text), trace=True)
    silent = _events(r.trace_lines, "poll_silent")
    assert silent
    # Progress still happens for the reachable node.
    assert r.metrics.flows[1].delivered_bits > 0


def test_contention_resumes_after_cf_end():
    r = harness.run(parse_scenario(_pcf_text()), trace=True)
    cf_ends = [t for t, l in _events(r.trace_lines, "tx_start")
               if "CF_END" in l]
    beacons = [t for t, l in _events(r.trace_lines, "tx_start")
               if "BEACON" in l]
    # DCF-style traffic (RTS) appears between a CF_END and the next beacon.
    cps = list(zip(cf_ends, beacons[1:]))
    rts = [t for t, l in _events(r.trace_lines, "tx_start") if "RTS" in l]
    assert any(any(a < t < b for t in rts) for a, b in cps)


def test_pcf_throughput_and_no_collisions():
    r = harness.run(parse_scenario(_pcf_text(duration=2_000_000)))
    m = r.metrics
    assert m.flows[1].delivered_bits > 0
    assert m.collision_events == 0
    assert m.flows[1].drops == 0


def _overruns(trace):
    """CF responses in `trace` that end after the CFP end announced by the
    beacon before them: its end plus its duration field."""
    cfp_end, late = None, []
    for t, line in _events(trace, "tx_start"):
        fields = line.split("\t")[3].split()  # src->dst kind len rate dur
        kind = fields[1]
        size, rate, dur = (f.split("=")[1] for f in fields[2:])
        if kind == "BEACON":
            cfp_end = t + BEACON_AIR + int(dur)
        elif kind == "DATA_CF_ACK" and t + airtime(int(size),
                                                     float(rate)) > cfp_end:
            late.append(line)
    return late


def _short_cfp_run(packet_bytes, mac_lines):
    """Traced pcf_infra run with a 6,000 us CFP and backlogged flows of
    `packet_bytes` from node 1 to 2 and back."""
    with open(os.path.join(SCENARIOS, "pcf_infra.txt")) as fh:
        text = fh.read()
    text = text.replace("cfp_max_us = 30000", "cfp_max_us = 6000")
    text = text.replace("[mac]\n", "[mac]\n" + mac_lines)
    text = text.replace("1 = 1 2 backlogged 500",
                        "1 = 1 2 backlogged %d\n2 = 2 1 backlogged %d"
                        % (packet_bytes, packet_bytes))
    return harness.run(parse_scenario(text), trace=True)


@pytest.mark.parametrize("packet_bytes,mac_lines,polled", [
    # Responses longer than the coordinator's frag_threshold.
    (2304, "", True),
    # A responder slower than [mac]'s rate: its largest response at 1 Mbps
    # never fits the 6,000 us CFP, so the coordinator polls only node 2.
    (1500, "node.1.data_rate = 1\n", False),
])
def test_cf_responses_end_within_the_announced_cfp(packet_bytes, mac_lines,
                                                   polled):
    # A polled station sends its whole head packet at its own rate, so the
    # coordinator budgets the largest packet at the station's rate.
    r = _short_cfp_run(packet_bytes, mac_lines)
    responses = [l for _, l in _events(r.trace_lines, "tx_start")
                 if "DATA_CF_ACK" in l]
    assert (len(responses) > 10) == polled
    assert _overruns(r.trace_lines) == []
    assert all(f.delivered_bits > 0 for f in r.metrics.flows.values())


def test_station_that_cannot_fit_is_passed_over():
    # Node 1 comes first in turn, but its largest response at 1 Mbps never
    # fits the CFP: the coordinator passes it over and polls node 2.
    r = _short_cfp_run(1500, "node.1.data_rate = 1\n")
    polls = [l.split("\t")[3].split()[0] for _, l in
             _events(r.trace_lines, "tx_start") if "CF_POLL" in l]
    assert polls and set(polls) == {"0->2"}


def test_overheard_cf_response_leaves_the_cfp_nav(monkeypatch):
    # Node 3 hears the beacon and node 1's responses to its polls.  The
    # beacon sets its NAV to the CFP's latest end, 30,000 us into each
    # superframe.  A response carries the beacon's exchange id (-1) and no
    # duration, and used to cut that NAV to the response's end (first at
    # 1,550 us, 10 times in 0.6 s), leaving node 3 free to contend inside
    # the CFP.  Only the CF-END clears it.
    text = _pcf_text(extra_nodes="3 = 0 5", pollable="1", duration=600_000,
                     extra_flows="2 = 3 2 backlogged 500")
    sim = harness.build(parse_scenario(text))[0]
    on_frame = MacNode.on_frame
    seen = []  # (frame kind, node 3's NAV end before it, after it)

    def watch(mac, frame):
        before = mac.nav_until
        on_frame(mac, frame)
        if mac.node_id == 3:
            seen.append((frame.kind, before, mac.nav_until))
            if frame.kind == BEACON:
                assert mac.nav_until == sim.now + frame.duration > sim.now

    monkeypatch.setattr(MacNode, "on_frame", watch)
    sim.run_until(600_000)
    cfp_nav, responses = None, 0
    for kind, before, after in seen:
        if kind == BEACON:
            cfp_nav = after
        elif kind == DATA_CF_ACK:
            responses += 1
            assert before == after == cfp_nav
    assert responses >= 10
