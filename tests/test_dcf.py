"""DCF building blocks: contention window, backoff, NAV, fragmentation."""

import pytest

from macsim.dcf import MacParams, draw_backoff, fragment_plan, should_use_rts
from macsim.engine import RandomStream
from macsim.fairness import Beb
from macsim.frames import ACK_BYTES, CTS_BYTES, RSH_BYTES, RTS_BYTES, Frame, \
    frame_airtime
import macsim.frames as frames
from macsim.mac import AccessCategory


def _beb_cw(cw, outcomes):
    """The window after Beb sees each outcome in turn (True = acked)."""
    beb, cat = Beb(), AccessCategory(0, 50, 2.0, 16, 256)
    cat.cw = cw
    seen = []
    for acked in outcomes:
        if acked:
            beb.on_success(None, cat, 8000)
        else:
            beb.on_failure(None, cat)
        seen.append(cat.cw)
    return seen


def test_cw_doubles_on_failure():
    assert _beb_cw(16, [False]) == [32]


def test_cw_capped_at_max():
    assert _beb_cw(256, [False]) == [256]


def test_cw_resets_on_success():
    assert _beb_cw(128, [True]) == [16]


def test_cw_full_escalation_chain():
    assert _beb_cw(16, [False] * 6) == [32, 64, 128, 256, 256, 256]


def test_backoff_degenerate_window():
    assert draw_backoff(1, RandomStream(1, 0)) == 0


def test_backoff_bounds_and_mean():
    s = RandomStream(5, 0)
    draws = [draw_backoff(16, s) for _ in range(100_000)]
    assert all(0 <= d <= 15 for d in draws)
    assert abs(sum(draws) / len(draws) - 7.5) < 0.1


def test_backoff_golden_sequence():
    a = RandomStream(31, 4)
    b = RandomStream(31, 4)
    assert [draw_backoff(16, a) for _ in range(20)] == \
        [draw_backoff(16, b) for _ in range(20)]


def test_rts_threshold_boundary_inclusive():
    assert not should_use_rts(100, 500)
    assert should_use_rts(500, 500)
    assert should_use_rts(1500, 500)


def test_fragment_plan_even_split():
    assert fragment_plan(3000, 1500) == [1500, 1500]


def test_fragment_plan_no_fragmentation():
    assert fragment_plan(1000, 1500) == [1000]


def test_fragment_plan_remainder():
    assert fragment_plan(3001, 1500) == [1500, 1500, 1]


def test_interframe_space_ordering():
    p = MacParams()
    assert p.sifs_us < p.pifs_us < p.difs_us
    assert p.pifs_us == p.sifs_us + p.slot_us
    assert p.difs_us == p.sifs_us + 2 * p.slot_us


def test_control_frame_airtimes():
    # Control frames ride at 1 Mbps behind the 192 us preamble.
    assert frames.RTS_AIR == 192 + RTS_BYTES * 8 == 352
    assert frames.CTS_AIR == 192 + CTS_BYTES * 8 == 304
    assert frames.ACK_AIR == 192 + ACK_BYTES * 8 == 304


def test_rsh_prefix_adds_fixed_airtime():
    plain = Frame("DATA", 1, 2, 0, payload_bytes=500)
    with_rsh = Frame("DATA", 1, 2, 0, payload_bytes=500, rsh=1)
    assert frame_airtime(with_rsh, 11) - frame_airtime(plain, 11) == RSH_BYTES * 8


def test_frame_rejects_negative_duration():
    with pytest.raises(ValueError):
        Frame("DATA", 1, 2, -5, payload_bytes=100)
