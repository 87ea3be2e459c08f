"""Radio medium model: airtime, FER, capture, link quality."""

import math

import pytest
from conftest import dense_cell
from setup_sweep import build_peak

from macsim import phy
from macsim.engine import RandomStream
from macsim.phy import (BAD, HIGH, LOW, MID, MIN_DISTANCE_M,
                        LinkQualityProcess, Topology, airtime,
                        frame_error_prob, largest_payload, resolve_capture,
                        validate_matrix)
from macsim.scenario import parse_scenario


# -- airtime ----------------------------------------------------------------

def test_airtime_header_only():
    assert airtime(0, 11) == 192


def test_airtime_1500_at_11():
    assert airtime(1500, 11) == 192 + 1091 == 1283


def test_airtime_1500_at_1():
    assert airtime(1500, 1) == 192 + 12000 == 12192


def test_airtime_exact_ceilings():
    # 5.5 Mbps = 16/11 us per byte; 11 bytes take exactly 16 us.
    assert airtime(11, 5.5) == 192 + 16
    assert airtime(1, 5.5) == 192 + 2  # ceil(8/5.5)
    assert airtime(1000, 11) == 192 + 728  # ceil(8000/11)


def test_airtime_monotone_in_size_and_rate():
    for rate in phy.RATES:
        prev = -1
        for size in range(0, 3000, 37):
            a = airtime(size, rate)
            assert a >= prev
            prev = a
    for size in (40, 500, 1500):
        times = [airtime(size, r) for r in phy.RATES]
        assert times == sorted(times, reverse=True)


@pytest.mark.parametrize("rate", phy.RATES)
def test_largest_payload_matches_airtime_scan(rate):
    # Budgets from below the PLCP header to past a 2,304-byte MSDU at 1 Mbps.
    size = 0
    for budget in range(-50, 20_001):
        while airtime(size + 1, rate) <= budget:
            size += 1
        want = size if airtime(size, rate) <= budget else 0
        assert largest_payload(budget, rate) == want, budget


# -- frame error probability ------------------------------------------------

def test_fer_identity_at_base_size():
    assert frame_error_prob(300, 0.01) == pytest.approx(0.01)


def test_fer_doubles_per_300_bytes():
    assert frame_error_prob(600, 0.01) == pytest.approx(0.02)
    assert frame_error_prob(1200, 0.01) == pytest.approx(0.08)


def test_fer_clamped_to_one():
    assert frame_error_prob(30000, 0.5) == 1.0


def test_fer_fractional_exponent():
    assert frame_error_prob(450, 0.01) == pytest.approx(0.01 * 2 ** 0.5)


# -- topology ---------------------------------------------------------------

def test_topology_symmetry_and_ranges():
    topo = Topology({0: (0, 0), 1: (8, 0), 2: (20, 0)}, hear_range=10,
                    sense_range=15)
    assert topo.can_hear(0, 1) and topo.can_hear(1, 0)
    assert not topo.can_hear(0, 2)
    assert topo.can_sense(1, 2)  # 12 m: sensed but not decodable
    assert not topo.can_hear(1, 2)


def test_received_power_inverse_square():
    topo = Topology({0: (0, 0), 1: (2, 0), 2: (4, 0)}, hear_range=10,
                    sense_range=10)
    assert topo.received_power(1, 0) == pytest.approx(0.25)
    assert topo.received_power(2, 0) == pytest.approx(1 / 16)


def test_received_power_clamped_below_min_distance():
    # At distance 0, and where d * d would underflow, the power is that at
    # MIN_DISTANCE_M; at MIN_DISTANCE_M and beyond the clamp changes nothing.
    topo = Topology({0: (0, 0), 1: (0, 0), 2: (1e-320, 0),
                     3: (MIN_DISTANCE_M, 0), 4: (0.02, 0)},
                    hear_range=10, sense_range=10)
    cap = 1.0 / (MIN_DISTANCE_M * MIN_DISTANCE_M)
    assert topo.received_power(1, 0) == topo.received_power(2, 0) == cap
    assert topo.received_power(3, 0) == cap
    assert topo.received_power(4, 0) == 1.0 / (0.02 * 0.02)


# -- capture ----------------------------------------------------------------

# `resolve_capture` takes the rivals' powers already summed; the medium
# folds them left to right (see test_medium's capture cases).

def test_capture_single_frame_received():
    assert resolve_capture(1.0, 0.0, 10.0) is True


def test_capture_equal_power_collides():
    assert resolve_capture(1.0, 1.0, 10.0) is False


def test_capture_near_far_stronger_first_wins():
    # Start order and strictly stronger rivals are the medium's tests; see
    # test_medium's capture cases.
    assert resolve_capture(1.0, 0.05, 10.0) is True
    assert resolve_capture(1.0, 0.1, 10.0) is True  # exactly the ratio
    assert resolve_capture(1.0, 0.05 + 0.06, 10.0) is False  # against the sum


def test_capture_tie_captures_below_unit_ratio():
    # With a ratio below 1 an equal-power rival does not stop capture.
    assert resolve_capture(1.0, 0.5 + 1.0, 0.5) is True
    assert resolve_capture(1.0, 0.5 + 1.0, 1.0) is False


def test_capture_folds_powers_left_to_right():
    # 1.0 + 1e-16 + 1e-16 is exactly 1.0 folded left to right, so the frame
    # meets the ratio of 1; a compensated sum gives 1.0000000000000002 and
    # would not capture.
    assert resolve_capture(1.0, 1.0 + 1e-16 + 1e-16, 1.0) is True
    assert resolve_capture(1.0, math.fsum([1.0, 1e-16, 1e-16]), 1.0) is False


# -- link quality process ---------------------------------------------------

def test_validate_matrix_rejects_bad_rows():
    bad = [[0.5, 0.5, 0.1, 0]] + [[0, 0, 0, 1]] * 3
    with pytest.raises(ValueError):
        validate_matrix(bad)


def test_identity_matrix_leaves_state_unchanged():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    q = LinkQualityProcess([0, 1], HIGH, ident, dwell_us=100)
    stream = RandomStream(3, 0)
    for _ in range(50):
        q.step(stream)
    assert q.state(0, 1) == HIGH and q.state(1, 0) == HIGH


def test_absorbing_bad_state_is_forever():
    # From every state, drift one step toward BAD; BAD itself absorbs.
    m = [[1, 0, 0, 0],
         [1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 1, 0]]
    q = LinkQualityProcess([0, 1], HIGH, m, dwell_us=100)
    stream = RandomStream(3, 0)
    for _ in range(10):
        q.step(stream)
    assert q.state(0, 1) == BAD
    q.step(stream)
    assert q.state(0, 1) == BAD


def test_two_state_symmetric_occupancy():
    m = [[0.5, 0.5, 0, 0],
         [0.5, 0.5, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 1]]
    q = LinkQualityProcess([0, 1], BAD, m, dwell_us=1)
    stream = RandomStream(77, 0)
    hits = 0
    n = 10_000
    for _ in range(n):
        q.step(stream)
        if q.state(0, 1) == BAD:
            hits += 1
    assert abs(hits / n - 0.5) < 0.02


def test_quality_rate_map_monotone():
    rates = [phy.MAX_RATE_FOR_QUALITY[s] for s in (BAD, LOW, MID, HIGH)]
    assert rates == [1, 2, 5.5, 11]


_FADE = [[0.4, 0.3, 0.2, 0.1],
         [0.1, 0.4, 0.3, 0.2],
         [0.2, 0.1, 0.4, 0.3],
         [0.3, 0.2, 0.1, 0.4]]


def test_static_links_share_one_state():
    # Links are static without a matrix, and with one at a dwell of 0.
    nodes = range(1024)
    for matrix in (None, _FADE):
        q = LinkQualityProcess(nodes, MID, matrix)
        assert q.states == {}
        assert not q.fading
        assert all(q.state(a, b) == MID
                   for a in nodes for b in nodes if a != b)
        stream = RandomStream(3, 0)
        q.step(stream)  # static: nothing moves, nothing is drawn
        assert q.states == {}
        assert stream.next_u64() == RandomStream(3, 0).next_u64()


def test_fading_links_step_in_sorted_order():
    nodes = [3, 0, 12, 2, 1]  # not sorted: insertion order is not the order
    q = LinkQualityProcess(nodes, HIGH, _FADE, dwell_us=100)
    assert q.fading
    assert len(q.states) == len(nodes) * (len(nodes) - 1)
    assert all(q.state(a, b) == HIGH for a in nodes for b in nodes if a != b)
    # Reference: walk sorted(states) on every step, one draw per link.
    want = dict(q.states)
    stream, ref = RandomStream(5, 0), RandomStream(5, 0)
    for _ in range(20):
        q.step(stream)
        for link in sorted(want):
            u, acc, nxt = ref.uniform(), 0.0, 3
            for j, p in enumerate(_FADE[want[link]]):
                acc += p
                if u < acc:
                    nxt = j
                    break
            want[link] = nxt
        assert q.states == want
    assert len(set(want.values())) > 1


def test_static_1024_node_build_peaks_under_10_mb():
    # A quadratic set-up stored one link state per node pair: about 100 MB
    # here.  A tracemalloc peak, unlike wall time, is deterministic.  A
    # matrix with the default dwell of 0 leaves the links static.
    matrix = "matrix = " + " ".join(str(p) for row in _FADE for p in row)
    cell = dense_cell(32)
    for text in (cell, cell.replace("[links]\n", "[links]\n%s\n" % matrix)):
        peak, (_, medium, macs, _) = build_peak(parse_scenario(text))
        assert len(macs) == 1024
        assert medium.quality.states == {}
        assert peak < 10 * 2**20
