"""Acceptance suite: thirteen end-to-end criteria, one pass/fail line each.

Every criterion runs a pinned scenario (fixed seed, topology and knobs) and
prints `PASS criterion N: ...` or `FAIL criterion N: ...` before asserting.
Scenario runs are cached so the determinism criterion can re-run each one
and compare byte-for-byte without doubling the cost of the earlier tests.
"""

import random
import time

from scfq import scfq_oracle

from macsim import harness
from macsim.engine import RandomStream
from macsim.frames import ACK_AIR, CTS_AIR, RTS_AIR
from macsim.mac import Packet
from macsim.metrics import Recorder, format_csv
from macsim.phy import airtime, frame_error_prob
from macsim.rate import oar_burst_len
from macsim.scenario import parse_scenario
from macsim.dcf import draw_backoff


def report(num, ok, detail):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d: %s" % (num, detail)


# -- pinned scenarios -------------------------------------------------------

def _cell(n, size, seed, duration, mac_extra=(), link_extra=(), sim_extra=()):
    lines = ["[sim]", "seed = %d" % seed, "duration_us = %d" % duration]
    lines += list(sim_extra)
    lines += ["[nodes]", "0 = 0 0"]
    lines += ["%d = %d 0" % (i, i) for i in range(1, n + 1)]
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0"]
    lines += list(link_extra)
    lines += ["[mac]", "rts_threshold = 500"] + list(mac_extra)
    lines += ["[flows]"]
    lines += ["%d = %d 0 backlogged %d" % (i, i, size) for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def _pairs(npairs, size, seed, duration, mac_extra=()):
    lines = ["[sim]", "seed = %d" % seed, "duration_us = %d" % duration,
             "[nodes]"]
    lines += ["%d = %d 0" % (i, i) for i in range(2 * npairs)]
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0",
              "[mac]", "rts_threshold = 500"] + list(mac_extra)
    lines += ["[flows]"]
    fid = 1
    for p in range(npairs):
        a, b = 2 * p, 2 * p + 1
        lines += ["%d = %d %d backlogged %d" % (fid, a, b, size),
                  "%d = %d %d backlogged %d" % (fid + 1, b, a, size)]
        fid += 2
    return "\n".join(lines) + "\n"


FADING_LINKS = (
    "initial_quality = HIGH",
    "dwell_us = 20000",
    "matrix = 0.5 0.5 0 0  0.25 0.5 0.25 0  0 0.25 0.5 0.25  0 0 0.5 0.5",
    "base_fer_bad = 0", "base_fer_low = 0", "base_fer_mid = 0",
)

ICA_STRING = """
[sim]
seed = 9
duration_us = 10000000
[nodes]
1 = 0 0
2 = 10 0
3 = 20 0
4 = 30 0
[links]
hear_range = 12
base_fer_high = 0
[mac]
rts_threshold = 500
ica_cts_timeout_us = 314
[flows]
1 = 2 1 backlogged 1500
2 = 3 4 backlogged 1500
"""

# Small fixed (min = max) contention window: same-slot collisions, not
# backoff drain, dominate the per-packet cost, which is the regime where
# reverse-direction piggybacking pays off more the more stations contend.
DCFPLUS_MAC = ("cw_min = 8", "cw_max = 8")

# name -> (scenario text, variant override or None); the determinism
# criterion re-runs everything registered here.
SCENARIOS = {
    "c1_dcf5": (_cell(5, 1500, seed=1, duration=10_000_000), None),
    "c2_rbar": (_cell(5, 1000, seed=3, duration=20_000_000,
                      link_extra=FADING_LINKS), "dcf+rbar"),
    "c2_arf": (_cell(5, 1000, seed=3, duration=20_000_000,
                     link_extra=FADING_LINKS), "dcf+arf"),
    "c3_oar": (_cell(3, 800, seed=5, duration=10_000_000), "dcf+oar"),
    "c3_rbar": (_cell(3, 800, seed=5, duration=10_000_000), "dcf+rbar"),
    "c4_2way": (_cell(3, 800, seed=5, duration=10_000_000), "dcf+2way"),
    "c5_dcf4": (_pairs(2, 1000, seed=4, duration=10_000_000,
                       mac_extra=DCFPLUS_MAC), "dcf"),
    "c5_plus4": (_pairs(2, 1000, seed=4, duration=10_000_000,
                        mac_extra=DCFPLUS_MAC), "dcf+plus"),
    "c5_dcf10": (_pairs(5, 1000, seed=4, duration=10_000_000,
                        mac_extra=DCFPLUS_MAC), "dcf"),
    "c5_plus10": (_pairs(5, 1000, seed=4, duration=10_000_000,
                         mac_extra=DCFPLUS_MAC), "dcf+plus"),
    "c6_dcf": (ICA_STRING, "dcf"),
    "c6_ica": (ICA_STRING, "dcf+ica"),
    "c8_dfs": (_cell(2, 1000, seed=4, duration=10_000_000,
                     mac_extra=("variant = dcf+dfs", "node.1.phi = 0.75",
                                "node.2.phi = 0.25")), None),
    "c9_est": (_cell(3, 1000, seed=2, duration=10_000_000,
                     mac_extra=("est_phi = 0.5",)), "dcf+est"),
    "c9_dcf": (_cell(3, 1000, seed=2, duration=10_000_000), "dcf"),
    "c10_dcf": (_cell(2, 1000, seed=1, duration=2_000_000), "dcf"),
    "c10_edcf": (_cell(2, 1000, seed=1, duration=2_000_000) +
                 "[edcf]\ncat0 = 50 2.0 16 256\n", "dcf+edcf"),
    "c11_single": (_cell(1, 1500, seed=1, duration=10_000_000), None),
}

_CACHE = {}


def run_cached(name):
    if name not in _CACHE:
        text, variant = SCENARIOS[name]
        _CACHE[name] = harness.run(parse_scenario(text), variant=variant,
                                   trace=True)
    return _CACHE[name]


# -- criteria ---------------------------------------------------------------

def test_criterion_1_dcf_collision_rarity():
    t0 = time.monotonic()
    m = run_cached("c1_dcf5").metrics
    wall = time.monotonic() - t0
    ok = m.collision_fraction < 0.05 and wall < 5.0
    report(1, ok, "5-node collision fraction %.4f < 0.05, runtime %.2fs < 5s"
           % (m.collision_fraction, wall))


def test_criterion_2_rbar_beats_arf():
    rbar = run_cached("c2_rbar").metrics.aggregate_throughput_bps
    arf = run_cached("c2_arf").metrics.aggregate_throughput_bps
    ratio = rbar / arf
    report(2, ratio >= 1.05,
           "RBAR/ARF throughput ratio %.3f >= 1.05 under Markov fading"
           % ratio)


def test_criterion_3_oar_beats_rbar():
    oar = run_cached("c3_oar").metrics.aggregate_throughput_bps
    rbar = run_cached("c3_rbar").metrics.aggregate_throughput_bps
    ratio = oar / rbar
    report(3, ratio >= 1.25, "OAR/RBAR throughput ratio %.3f >= 1.25" % ratio)


def test_criterion_4_oar_close_to_two_way():
    oar = run_cached("c3_oar").metrics.aggregate_throughput_bps
    two = run_cached("c4_2way").metrics.aggregate_throughput_bps
    rel = abs(oar - two) / two
    report(4, rel <= 0.15, "|OAR - 2way| / 2way = %.3f <= 0.15" % rel)


def test_criterion_5_dcfplus_gain_grows_with_n():
    gain4 = (run_cached("c5_plus4").metrics.aggregate_throughput_bps
             / run_cached("c5_dcf4").metrics.aggregate_throughput_bps)
    gain10 = (run_cached("c5_plus10").metrics.aggregate_throughput_bps
              / run_cached("c5_dcf10").metrics.aggregate_throughput_bps)
    ok = gain4 >= 1.03 and gain10 > gain4
    report(5, ok, "reverse-grant gain %.4f at n=4 (>= 1.03), %.4f at n=10 "
           "(growing)" % (gain4, gain10))


def test_criterion_6_ica_string_topology():
    base = run_cached("c6_dcf").metrics
    ica = run_cached("c6_ica").metrics
    ratio = ica.aggregate_throughput_bps / base.aggregate_throughput_bps
    ok = ratio >= 1.6 and ica.ack_collisions == 0
    report(6, ok, "exposed-node parallelism gain %.3f >= 1.6, primary-ACK "
           "collisions %d == 0" % (ratio, ica.ack_collisions))


def _dfs_order_instance(rnd, seed):
    """One randomized DFS run vs the centralized fair-queueing oracle."""
    nflows = rnd.randint(2, 5)
    flows = {}
    for f in range(nflows):
        phi = rnd.choice([0.5, 0.25, 0.2, 0.125, 0.1])
        sizes = [rnd.randint(50, 500) for _ in range(rnd.randint(1, 20))]
        flows[f] = (phi, [s * 8 for s in sizes])
    lines = ["[sim]", "seed = %d" % seed, "duration_us = 400000000",
             "genie_tiebreak = 1",
             "[nodes]", "0 = 0 0"]
    lines += ["%d = %d 0" % (f + 1, f + 1) for f in flows]
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0",
              "[mac]", "variant = dcf+dfs", "rts_threshold = 100000",
              "dfs_scaling = 1", "dfs_random = 0"]
    lines += ["node.%d.phi = %s" % (f + 1, flows[f][0]) for f in flows]
    sim, _, macs, _ = harness.build(
        parse_scenario("\n".join(lines) + "\n"), trace=True)
    # Packets are injected outside any [flows] entry.
    recorder = Recorder(sim, list(flows))
    for mac in macs.values():
        mac.recorder = recorder
    pid = 0
    for f, (phi, lengths) in sorted(flows.items()):
        for bits in lengths:
            macs[f + 1].enqueue(Packet(pid, f, f + 1, 0, bits // 8, 0), 0)
            pid += 1
    sim.run_until(400_000_000)
    got = []
    for line in sim.trace_lines:
        parts = line.split("\t")
        if parts[2] == "tx_start" and " DATA " in parts[3]:
            got.append(int(parts[1]) - 1)
    want = scfq_oracle(flows)
    return got, want


def test_criterion_7_dfs_matches_scfq_oracle():
    rnd = random.Random(42)
    mismatches = 0
    for i in range(50):
        got, want = _dfs_order_instance(rnd, seed=1000 + i)
        if got != want:
            mismatches += 1
    report(7, mismatches == 0,
           "DFS transmission order == fair-queueing oracle on 50/50 "
           "randomized instances (%d mismatches)" % mismatches)


def test_criterion_8_dfs_weighted_throughput():
    m = run_cached("c8_dfs").metrics
    ratio = m.throughput_bps(1) / m.throughput_bps(2)
    ok = abs(ratio - 3.0) <= 0.3
    report(8, ok, "phi 0.75/0.25 throughput ratio %.3f within 3.0 +/- 10%%"
           % ratio)


def test_criterion_9_estimation_backoff_fairness():
    est = run_cached("c9_est").metrics.fairness_mean
    dcf = run_cached("c9_dcf").metrics.fairness_mean
    report(9, est >= dcf, "windowed worst-pair fairness: estimation %.4f >= "
           "plain contention %.4f" % (est, dcf))


def test_criterion_10_edcf_legacy_equivalence():
    a = run_cached("c10_dcf")
    b = run_cached("c10_edcf")
    ok = a.trace_lines == b.trace_lines
    report(10, ok, "single category (AIFS=DIFS, PF=2) trace identical to "
           "plain DCF: %d == %d lines, equal %s"
           % (len(a.trace_lines), len(b.trace_lines), ok))


def test_criterion_11_single_sender_closed_form():
    m = run_cached("c11_single").metrics
    # One cycle: DIFS + mean backoff (7.5 slots) + RTS + CTS + DATA + ACK
    # + 3 SIFS, everything else pipelined back to back.
    cycle = (50 + 150 + RTS_AIR + CTS_AIR + airtime(1500, 11) + ACK_AIR
             + 3 * 10)
    oracle = 1500 * 8 / cycle * 1e6
    got = m.aggregate_throughput_bps
    rel = abs(got - oracle) / oracle
    report(11, rel < 0.02, "single-sender throughput %.0f bps within 2%% of "
           "cycle-time oracle %.0f bps (off by %.3f%%)"
           % (got, oracle, rel * 100))


def _nav_after(nav_until, heard_duration, now=100):
    """NAV of node 1 in a built two-node cell after it holds `nav_until` and
    then hears a reservation of `heard_duration` at `now`."""
    sim, _, macs, _ = harness.build(parse_scenario(
        "[sim]\nduration_us = 1000\n[nodes]\n0 = 0 0\n1 = 1 0\n"
        "[links]\nhear_range = 50\n"))
    sim.run_until(now)
    mac = macs[1]
    if nav_until:
        mac.set_nav(nav_until)
    mac.set_nav(now + heard_duration)
    return mac.nav_until


def test_criterion_12_frame_timing_unit_examples():
    checks = [
        airtime(0, 11) == 192,
        airtime(1500, 11) == 1283,
        airtime(1500, 1) == 12192,
        frame_error_prob(300, 0.01) == 0.01,
        abs(frame_error_prob(600, 0.01) - 0.02) < 1e-12,
        abs(frame_error_prob(1200, 0.01) - 0.08) < 1e-12,
        oar_burst_len(11) == 5,
        oar_burst_len(2) == 1,
        oar_burst_len(5.5) == 2,
        all(0 <= draw_backoff(16, RandomStream(1, n)) <= 15
            for n in range(100)),
        _nav_after(0, 500) == 600,
        _nav_after(1000, 200) == 1000,
        _nav_after(600, 0) == 600,
    ]
    report(12, all(checks), "airtime / error-doubling / burst-length / "
           "backoff-bound / reservation-merge examples all exact (%d/%d)"
           % (sum(checks), len(checks)))


def test_criterion_13_determinism():
    stale = []
    for name in SCENARIOS:
        first = run_cached(name)
        text, variant = SCENARIOS[name]
        second = harness.run(parse_scenario(text), variant=variant, trace=True)
        same_csv = (format_csv({"x": first.metrics})
                    == format_csv({"x": second.metrics}))
        same_trace = first.trace_lines == second.trace_lines
        if not (same_csv and same_trace):
            stale.append(name)
    report(13, not stale, "all %d pinned scenarios byte-identical on re-run "
           "(CSV and trace)%s" % (len(SCENARIOS),
                                  "" if not stale else "; differ: %s" % stale))
