"""DCF extensions: reverse-grant ACK durations, EDCF categories, ICA planning."""

from hypothesis import given, settings, strategies as st

from macsim.ext import (dcfplus_ack_duration, edcf_expand_cw,
                        edcf_pick_winner, ica_plan_parallel,
                        ica_primary_data_end)
from macsim.frames import ACK_AIR, CTS_AIR
from macsim.mac import AccessCategory
from macsim.phy import RATES, airtime

SIFS = 10


# -- DCF+ -------------------------------------------------------------------

def test_dcfplus_duration_covers_cts_data_ack():
    got = dcfplus_ack_duration(40, 11, SIFS)
    assert got == 3 * SIFS + CTS_AIR + airtime(40, 11) + ACK_AIR


def test_dcfplus_duration_scales_with_reverse_size():
    small = dcfplus_ack_duration(40, 11, SIFS)
    large = dcfplus_ack_duration(1500, 11, SIFS)
    assert large - small == airtime(1500, 11) - airtime(40, 11)


# -- EDCF -------------------------------------------------------------------

def test_edcf_expand_by_persistence_factor():
    assert edcf_expand_cw(16, 1.5, 256) == 24
    assert edcf_expand_cw(16, 2.0, 256) == 32


def test_edcf_expand_caps_at_max():
    assert edcf_expand_cw(200, 2.0, 256) == 256


def test_edcf_virtual_collision_lowest_aifs_wins():
    hi = AccessCategory(1, 50, 2.0, 16, 256)
    lo = AccessCategory(0, 70, 2.0, 16, 256)
    assert edcf_pick_winner([lo, hi]) is hi


def test_edcf_virtual_collision_index_breaks_aifs_tie():
    a = AccessCategory(0, 50, 2.0, 16, 256)
    b = AccessCategory(1, 50, 2.0, 16, 256)
    assert edcf_pick_winner([b, a]) is a


# -- ICA --------------------------------------------------------------------

def test_ica_primary_data_end_arithmetic():
    # The overheard RTS duration runs through the primary ACK; the usable
    # window ends one SIFS + ACK airtime earlier.
    rts_end, duration = 1000, 3000
    assert ica_primary_data_end(rts_end + duration, SIFS) == \
        1000 + 3000 - SIFS - ACK_AIR


def test_ica_plan_single_fragment_budget():
    # 2000 us has room for a 1500-byte fragment and a trimmed second one,
    # but a window sends one frame: a full fragment, flush at the end.
    start, size = ica_plan_parallel(0, 2000, 3000, 1500, 11)
    assert size == 1500
    assert start + airtime(1500, 11) == 2000


def test_ica_plan_empty_when_nothing_fits():
    start, size = ica_plan_parallel(0, 150, 3000, 1500, 11)
    assert size == 0


def test_ica_plan_one_frame_ends_at_window():
    # A window that two fragments and an ACK turnaround would fill exactly
    # still gets one, started late so that it ends with the primary DATA.
    frag_air = airtime(1500, 11)
    window = 2 * frag_air + 2 * SIFS + ACK_AIR
    start, size = ica_plan_parallel(0, window, 3000, 1500, 11)
    assert size == 1500
    assert start == window - frag_air > 0


def test_ica_plan_trims_frame_to_window():
    # At 2 Mbps a byte takes 4 us: a window 3 us longer than 700 bytes fits
    # no 701st byte, and the frame starts 3 us in to end flush.
    window = airtime(700, 2) + 3
    start, size = ica_plan_parallel(0, window, 4000, 1500, 2)
    assert (start, size) == (3, 700)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.integers(0, 50_000), st.integers(-100, 30_000),
       st.integers(1, 2304), st.integers(1, 2346), st.sampled_from(RATES))
def test_ica_plan_never_overruns_window(budget_start, window, remaining,
                                        threshold, rate):
    window_end = budget_start + window
    start, size = ica_plan_parallel(budget_start, window_end, remaining,
                                    threshold, rate)
    cap = min(remaining, threshold)
    assert 0 <= size <= cap
    # Maximal: one more byte would overrun, unless a cap binds.
    assert size == cap or budget_start + airtime(size + 1, rate) > window_end
    if size:
        assert start + airtime(size, rate) == window_end
        assert start >= budget_start


def test_ica_plan_small_remainder_uses_it_all():
    start, size = ica_plan_parallel(0, 10_000, 400, 1500, 11)
    assert size == 400
    assert start + airtime(400, 11) == 10_000
