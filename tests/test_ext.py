"""DCF extensions: reverse-grant ACK durations, EDCF categories, ICA planning."""

from macsim.ext import (IcaState, dcfplus_ack_duration, edcf_expand_cw,
                        edcf_pick_winner, ica_plan_parallel,
                        ica_primary_data_end)
from macsim.frames import ACK_AIR, CTS_AIR
from macsim.mac import AccessCategory
from macsim.phy import airtime

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
    assert ica_primary_data_end(rts_end, duration, SIFS) == \
        1000 + 3000 - SIFS - ACK_AIR


def test_ica_state_clear_resets_everything():
    st = IcaState(rts_duration=500, rts_end=100, xid=7, window_end=900)
    st.clear()
    assert st == IcaState()


def test_ica_plan_single_fragment_budget():
    # 2000 us fits one full 1283-us fragment; the leftover 393 us after the
    # ACK turnaround is back-filled with a trimmed fragment.
    start, sizes = ica_plan_parallel(0, 2000, 3000, 1500, 11, SIFS)
    assert sizes[0] == 1500 and len(sizes) == 2
    total = sum(airtime(s, 11) for s in sizes) + 2 * SIFS + ACK_AIR
    assert start + total == 2000  # flush against the window end


def test_ica_plan_empty_when_nothing_fits():
    start, sizes = ica_plan_parallel(0, 150, 3000, 1500, 11, SIFS)
    assert sizes == []


def test_ica_plan_two_fragments_end_at_window():
    frag_air = airtime(1500, 11)
    turnaround = 2 * SIFS + ACK_AIR
    window = 2 * frag_air + turnaround
    start, sizes = ica_plan_parallel(0, window, 3000, 1500, 11, SIFS)
    assert sizes == [1500, 1500]
    assert start == 0
    end = start + sum(airtime(s, 11) for s in sizes) + turnaround
    assert end == window


def test_ica_plan_trims_final_fragment():
    window = airtime(1500, 11) + 2 * SIFS + ACK_AIR + airtime(700, 11)
    start, sizes = ica_plan_parallel(0, window, 4000, 1500, 11, SIFS)
    assert sizes[0] == 1500
    assert len(sizes) == 2 and sizes[1] < 1500  # trimmed to the leftover
    total = sum(airtime(s, 11) for s in sizes) + 2 * SIFS + ACK_AIR
    assert start + total <= window


def test_ica_plan_never_overruns_window():
    for window in range(200, 6000, 137):
        start, sizes = ica_plan_parallel(0, window, 5000, 1500, 11, SIFS)
        if not sizes:
            continue
        total = sum(airtime(s, 11) for s in sizes)
        total += (len(sizes) - 1) * (2 * SIFS + ACK_AIR)
        assert start + total <= window
        assert start >= 0


def test_ica_plan_small_remainder_uses_it_all():
    start, sizes = ica_plan_parallel(0, 10_000, 400, 1500, 11, SIFS)
    assert sizes == [400]
