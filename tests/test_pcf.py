"""Point coordination: superframe structure, polling, silence recovery."""

import os

import pytest
from conftest import SCENARIOS

from macsim import harness
from macsim.dcf import MacParams
from macsim.pcf import BEACON_AIR, min_cp_us
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
