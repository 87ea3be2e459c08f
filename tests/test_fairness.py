"""Fairness schemes: MILD, fairness index, estimation backoff, SCFQ/DFS."""

import math
from types import SimpleNamespace

import pytest
from scfq import ScfqTags, scfq_oracle

from macsim.dcf import draw_backoff
from macsim.engine import RandomStream
from macsim.fairness import (MILD_FACTOR, Dfs, Est, Mild, dfs_backoff,
                             estimation_backoff_update, fairness_index,
                             mild_update)
from macsim.frames import DATA, Frame
from macsim.mac import AccessCategory, Packet


# -- MILD -------------------------------------------------------------------

def test_mild_multiplicative_increase():
    assert mild_update(16, True, 1.5, 16, 256) == 24


def test_mild_linear_decrease():
    assert mild_update(200, False, MILD_FACTOR, 16, 256) == 199


def test_mild_clamps_to_bounds():
    assert mild_update(16, False, MILD_FACTOR, 16, 256) == 16
    assert mild_update(250, True, 1.5, 16, 256) == 256


def test_mild_overflowing_factor_clamps_to_cw_max():
    assert mild_update(16, True, 1e308, 16, 256) == 256


def test_share_cw_copy_semantics():
    # A heard window replaces the local one outright: copy, not max.  Own
    # frames and frames that advertise nothing leave it alone.
    mac = SimpleNamespace(node_id=0, cats=[AccessCategory(0, 50, 2.0, 16, 256)])
    seen = []
    for src, adv in ((1, 64), (2, 16), (0, 200), (3, 0), (1, 32)):
        Mild().on_hear(mac, Frame(DATA, src, 0, adv_cw=adv))
        seen.append(mac.cats[0].cw)
    assert seen == [64, 16, 16, 16, 32]


# -- fairness index ---------------------------------------------------------

def test_fairness_index_perfect_split():
    assert fairness_index([0.5, 0.5], [5, 5]) == pytest.approx(1.0)


def test_fairness_index_three_to_one():
    assert fairness_index([0.5, 0.5], [3, 1]) == pytest.approx(1 / 3)


def test_fairness_index_weighted():
    got = fairness_index([0.67, 0.33], [2, 1])
    assert got == pytest.approx((2 / 0.67) / (1 / 0.33), rel=1e-9)
    assert 0.98 < got < 0.99


def test_fairness_index_scale_invariant():
    a = fairness_index([0.3, 0.3, 0.4], [5, 7, 2])
    b = fairness_index([0.3, 0.3, 0.4], [50, 70, 20])
    assert a == pytest.approx(b)


def test_fairness_index_best_pair_reading():
    # The index reads the worst pair, (6, 2), not the best pair, which would
    # see the two equal entries and report 1.
    assert fairness_index([0.5, 0.5, 0.5], [3, 3, 1]) == pytest.approx(1 / 3)


# -- estimation-based backoff -----------------------------------------------

def test_estimation_doubles_when_over_share():
    assert estimation_backoff_update(32, 2000, 1000, 0.5, 16, 256) == 64


def test_estimation_halves_when_under_share():
    assert estimation_backoff_update(64, 1000, 2000, 0.5, 16, 256) == 32


def test_estimation_holds_on_tie():
    assert estimation_backoff_update(64, 1500, 1500, 0.5, 16, 256) == 64


def test_estimation_two_own_streams_share():
    # phi = 0.67 weights own traffic against a third of the remainder:
    # 2000/0.67 < 1000/0.33 counts as under-share despite the 2:1 raw split.
    assert estimation_backoff_update(32, 2000, 1000, 0.67, 16, 256) == 16
    assert estimation_backoff_update(32, 2100, 1000, 0.67, 16, 256) == 64


def test_estimation_clamps_to_bounds():
    assert estimation_backoff_update(256, 9, 1, 0.5, 16, 256) == 256
    assert estimation_backoff_update(16, 1, 9, 0.5, 16, 256) == 16


def test_traffic_estimate_sliding_window():
    est = Est(window_us=100)
    est.note_own(0, 1000)
    est.note_others(50, 500)
    assert est.w_self(60) == 1000
    assert est.w_others(60) == 500
    # Own bits fall out of the window; snooped bits remain.
    assert est.w_self(120) == 0
    assert est.w_others(120) == 500


# -- SCFQ tags and oracle ---------------------------------------------------

def test_scfq_first_packet_tags():
    tags = ScfqTags({1: 0.5})
    assert tags.assign(1, 1000, 0.0) == (0.0, 2000.0)


def test_scfq_back_to_back_starts_at_previous_finish():
    tags = ScfqTags({1: 0.5})
    tags.assign(1, 1000, 0.0)
    s, f = tags.assign(1, 1000, 0.0)
    assert s == 2000.0 and f == 4000.0


def test_scfq_idle_flow_restarts_at_virtual_clock():
    tags = ScfqTags({1: 0.5})
    tags.assign(1, 1000, 0.0)  # F = 2000
    s, _ = tags.assign(1, 500, 5000.0)
    assert s == 5000.0


def test_scfq_oracle_equal_flows_alternate():
    order = scfq_oracle({0: (0.5, [1000] * 4), 1: (0.5, [1000] * 4)})
    assert order == [0, 1, 0, 1, 0, 1, 0, 1]


def test_scfq_oracle_weighted_service_ratio():
    order = scfq_oracle({0: (0.75, [1000] * 100), 1: (0.25, [1000] * 100)})
    first = order[:80]
    ratio = first.count(0) / first.count(1)
    assert abs(ratio - 3.0) < 0.2


def test_scfq_oracle_single_flow_preserves_order():
    assert scfq_oracle({3: (1.0, [10, 20, 30])}) == [3, 3, 3]


# -- DFS backoff ------------------------------------------------------------

def test_dfs_zero_length_packet():
    assert dfs_backoff(0, 0.5, 1.0) == 0


def test_dfs_eq4_without_randomization():
    assert dfs_backoff(1000, 0.5, 1.0) == 2000


def test_dfs_compression_value():
    assert dfs_backoff(1000, 0.01, 1.0, compress_threshold=1000) == \
        1000 + math.floor(1000 * math.log2(100)) == 7643


def test_dfs_linear_in_packet_size():
    assert dfs_backoff(2000, 0.5, 1.0) == 2 * dfs_backoff(1000, 0.5, 1.0)


def test_dfs_randomization_bounds():
    base = dfs_backoff(1000, 0.5, 1.0)
    s = RandomStream(8, 0)
    for _ in range(200):
        b = dfs_backoff(1000, 0.5, 1.0, stream=s)
        assert base * 0.5 - 1 <= b <= base * 1.5


def test_dfs_retry_draws_from_the_dcf_window():
    # A first attempt backs off by length over share: 12,000 slots here.  A
    # retry draws from the category's window, as binary exponential backoff
    # does.
    cat = AccessCategory(0, 50, 2.0, 16, 256)
    cat.queue.append(Packet(0, 0, 1, 0, 1500, 0))
    cat.cw = 64
    dfs = Dfs(phi=1.0, scaling=1.0, randomize=False)
    assert dfs.draw(cat, RandomStream(4, 1)) == 12000
    cat.retry_count = 1
    stream, ref = RandomStream(4, 1), RandomStream(4, 1)
    draws = [dfs.draw(cat, stream) for _ in range(50)]
    assert draws == [draw_backoff(64, ref) for _ in range(50)]
    assert max(draws) < 64


def test_dfs_compression_continuous_and_monotone():
    thr = 500
    # Continuity at the threshold: compressing B=thr leaves it unchanged.
    assert dfs_backoff(thr, 1.0, 1.0, compress_threshold=thr) == thr
    prev = -1
    for bits in range(1, 4000, 13):
        b = dfs_backoff(bits, 1.0, 1.0, compress_threshold=thr)
        assert b >= prev
        prev = b


def test_dfs_overflowing_quotient_gives_a_finite_backoff():
    stream = RandomStream(1, 0)
    for phi, scaling in ((1e-320, 1.0), (1.0, 1e308)):
        assert dfs_backoff(12000, phi, scaling) == int(1e300)
        assert dfs_backoff(12000, phi, scaling, stream, 1000) > 1000
