"""Recorder bookkeeping and CSV emission."""

import copy
import sys

import pytest

from macsim.engine import Simulator
from macsim.mac import Packet
from macsim.medium import MediumStats
from macsim.metrics import (CSV_HEADER, FlowMetrics, Metrics, Recorder,
                            format_csv)


def _recorder(flow_ids=(1, 2), window_us=100):
    sim = Simulator()
    return sim, Recorder(sim, list(flow_ids), window_us=window_us)


def _delivered(pkt):
    """`pkt` as its destination's MAC hands it over: every byte received."""
    pkt.received = pkt.size
    return pkt


def _deliver(sim, rec, pid, fid, size, created, at):
    pkt = Packet(pid, fid, 1, 0, size, created)
    rec.on_generated(pkt)
    sim.run_until(at)
    rec.on_delivered(_delivered(pkt))


def test_delivery_and_delay_accounting():
    sim, rec = _recorder()
    _deliver(sim, rec, 0, 1, 100, created=0, at=250)
    m = rec.finalize(1000, MediumStats())
    assert m.flows[1].delivered_bits == 800
    assert m.flows[1].mean_delay_us == 250
    assert m.throughput_bps(1) == pytest.approx(800 * 1e6 / 1000)


def test_drop_without_delivery_counts():
    sim, rec = _recorder()
    pkt = Packet(0, 1, 1, 0, 100, 0)
    rec.on_generated(pkt)
    rec.on_drop(pkt)
    m = rec.finalize(1000, MediumStats())
    assert m.flows[1].drops == 1
    assert m.flows[1].delivered_bits == 0


def test_p95_delay_order_statistic():
    sim, rec = _recorder(flow_ids=(1,))
    pkts = [Packet(i, 1, 1, 0, 10, 0) for i in range(100)]
    for pkt in pkts:
        rec.on_generated(pkt)
    for i, pkt in enumerate(pkts):
        sim.run_until(i + 1)
        rec.on_delivered(_delivered(pkt))
    m = rec.finalize(1000, MediumStats())
    assert m.flows[1].p95_delay_us == 95.0


def test_finalize_twice_returns_equal_metrics_and_one_cf_drop():
    # The Metrics holds the Recorder's own records, so a second call must
    # not change the first result: the lost CF response drops once.
    sim, rec = _recorder()
    _deliver(sim, rec, 0, 1, 100, created=0, at=250)
    lost = Packet(1, 2, 1, 0, 100, 0)
    rec.on_generated(lost)
    rec.on_cf_sent(lost)
    first = rec.finalize(1000, MediumStats())
    kept = copy.deepcopy(first)
    second = rec.finalize(1000, MediumStats())
    assert first.flows[2].drops == 1
    assert second == first == kept


def test_fairness_series_skips_empty_windows():
    sim, rec = _recorder(window_us=100)
    _deliver(sim, rec, 0, 1, 10, created=0, at=50)
    _deliver(sim, rec, 1, 2, 10, created=400, at=450)
    m = rec.finalize(1000, MediumStats())
    windows = [k for k, _ in m.fairness_series]
    assert 1 not in windows and 2 not in windows  # nothing delivered there
    # Each occupied window saw only one of the two flows: worst-pair index 0.
    assert all(v == 0.0 for _, v in m.fairness_series)


def test_fairness_series_equal_split_is_one():
    sim, rec = _recorder(window_us=100)
    _deliver(sim, rec, 0, 1, 10, created=0, at=10)
    _deliver(sim, rec, 1, 2, 10, created=0, at=10)
    m = rec.finalize(200, MediumStats())
    assert m.fairness_series == [(0, 1.0)]
    assert m.fairness_mean == 1.0


def test_fairness_series_counts_late_deliveries_in_the_last_window():
    # 250 us is two whole 100 us windows; a delivery at 230 us belongs to
    # the cut-off third one and counts in the second.
    sim, rec = _recorder(window_us=100)
    _deliver(sim, rec, 0, 1, 10, created=0, at=150)
    _deliver(sim, rec, 1, 2, 10, created=0, at=230)
    m = rec.finalize(250, MediumStats())
    assert m.fairness_series == [(1, 1.0)]


def _calls(fn):
    """fn's result and the number of Python and builtin calls it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def test_fairness_series_work_tracks_occupied_windows_not_run_length():
    # 1 us windows over 0.1 s: 100,000 windows, three of them occupied
    # (the late delivery counts in the last whole window).
    sim, rec = _recorder(window_us=1)
    _deliver(sim, rec, 0, 1, 10, created=0, at=3)
    _deliver(sim, rec, 1, 2, 10, created=0, at=40_000)
    _deliver(sim, rec, 2, 1, 10, created=0, at=99_999)
    _deliver(sim, rec, 3, 2, 10, created=0, at=150_000)
    m, calls = _calls(lambda: rec.finalize(100_000, MediumStats()))
    assert m.fairness_series == [(3, 0.0), (40_000, 0.0), (99_999, 1.0)]
    assert calls < 500


def test_zero_flows_metrics_all_zero():
    sim, rec = _recorder(flow_ids=())
    m = rec.finalize(1000, MediumStats())
    assert m.aggregate_delivered_bits == 0
    assert m.aggregate_throughput_bps == 0.0
    assert m.collision_events == 0 and m.fairness_series == []


def test_csv_shape_one_variant_one_flow():
    sim, rec = _recorder(flow_ids=(1,))
    _deliver(sim, rec, 0, 1, 100, created=0, at=10)
    text = format_csv({"dcf": rec.finalize(1000, MediumStats())})
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + flow row + summary row
    assert lines[1].startswith("dcf,1,")
    assert lines[2].startswith("dcf,all,")


def test_csv_round_trip_values():
    sim, rec = _recorder()
    _deliver(sim, rec, 0, 1, 100, created=0, at=10)
    _deliver(sim, rec, 1, 2, 50, created=0, at=20)
    m = rec.finalize(1000, MediumStats())
    rows = [line.split(",") for line in
            format_csv({"dcf": m}).strip().split("\n")[1:]]
    by_flow = {row[1]: row for row in rows}
    assert int(by_flow["1"][3]) == 800
    assert int(by_flow["2"][3]) == 400
    assert float(by_flow["all"][4]) == pytest.approx(
        m.aggregate_throughput_bps, abs=1e-3)


def test_csv_deterministic_for_same_metrics():
    sim, rec = _recorder()
    _deliver(sim, rec, 0, 1, 100, created=0, at=10)
    m = rec.finalize(1000, MediumStats())
    assert format_csv({"dcf": m}) == format_csv({"dcf": m})


def test_refill_hook_fires_on_sender_done():
    sim, rec = _recorder(flow_ids=(1,))
    hits = []
    rec.refill[1] = lambda: hits.append(sim.now)
    rec.on_sender_done(Packet(0, 1, 1, 0, 100, 0))
    assert hits == [0]


def test_result_records_are_slotted():
    # A kept result holds its Metrics and one FlowMetrics per flow; a
    # per-instance dict would add to every one.
    m = Metrics(flows={1: FlowMetrics()})
    for record in (m, m.flows[1]):
        assert not hasattr(record, "__dict__")
