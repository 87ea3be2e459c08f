"""DCF building blocks: contention window, backoff, NAV, fragmentation."""

from dcf_replay import replay
from hypothesis import given, settings, strategies as st

from macsim import harness
from macsim.dcf import MacParams, draw_backoff, fragment_plan, should_use_rts
from macsim.engine import RandomStream
from macsim.fairness import Beb
from macsim.frames import ACK_BYTES, CTS_BYTES, RSH_BYTES, RTS_BYTES, Frame, \
    frame_airtime
import macsim.frames as frames
from macsim.mac import AccessCategory
from macsim.scenario import parse_scenario


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
    assert set(draws) == set(range(16))
    assert abs(sum(draws) / len(draws) - 7.5) < 0.1


def test_backoff_golden_sequence():
    # Every recorded trace rests on these draws: next_u64() % cw.
    s = RandomStream(31, 4)
    assert [draw_backoff(16, s) for _ in range(20)] == \
        [3, 7, 5, 4, 1, 8, 9, 6, 11, 14, 0, 0, 5, 0, 10, 9, 11, 13, 2, 0]
    s = RandomStream(31, 4)
    assert [draw_backoff(cw, s) for cw in (1, 2, 7, 32, 1024, 1024)] == \
        [0, 1, 3, 4, 161, 264]


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


# -- exact schedule replay -----------------------------------------------------

def _simulated_schedule(starts, seed, duration_us, packet_bytes, rts, cw_min,
                        cw_max, retry_limit, slot_us, sifs_us):
    """The simulator's frame starts and drops per node, from its trace, on
    the cell `dcf_replay.replay` models: every node in range of every
    other, error-free links, and a capture ratio no frame can beat."""
    lines = ["[sim]", "seed = %d" % seed, "duration_us = %d" % duration_us,
             "capture_ratio = 1e300", "[nodes]", "0 = 0 0"]
    lines += ["%d = %d 0" % (i, i) for i in range(1, len(starts) + 1)]
    lines += ["[links]", "hear_range = 50", "base_fer_high = 0", "[mac]",
              "cw_min = %d" % cw_min, "cw_max = %d" % cw_max,
              "retry_limit = %d" % retry_limit, "slot_us = %d" % slot_us,
              "sifs_us = %d" % sifs_us,
              "rts_threshold = %d" % (0 if rts else 3000),
              "frag_threshold = 2304", "[flows]"]
    lines += ["%d = %d 0 backlogged %d start=%d" % (i, i, packet_bytes, start)
              for i, start in enumerate(starts, 1)]
    res = harness.run(parse_scenario("\n".join(lines) + "\n"), trace=True)
    sent = {i: [] for i in range(len(starts) + 1)}
    drops = {i: [] for i in range(1, len(starts) + 1)}
    for line in res.trace_lines:
        time, node, kind, detail = line.split("\t")
        if kind == "tx_start":
            sent[int(node)].append((int(time), detail.split()[1]))
        elif kind == "drop":
            drops[int(node)].append(int(time))
    return sent, drops


@st.composite
def _dcf_cells(draw):
    n = draw(st.integers(1, 20))
    cw_min = draw(st.integers(1, 64))
    return dict(
        starts=draw(st.lists(st.integers(0, 20_000), min_size=n, max_size=n)),
        seed=draw(st.integers(0, 2**32)), duration_us=100_000,
        packet_bytes=draw(st.integers(1, 2304)), rts=draw(st.booleans()),
        cw_min=cw_min, cw_max=draw(st.integers(cw_min, 1024)),
        retry_limit=draw(st.integers(0, 7)), slot_us=draw(st.integers(1, 50)),
        sifs_us=draw(st.integers(1, 30)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_dcf_cells())
def test_dcf_schedule_matches_the_exact_replay(cell):
    # No tolerance: every frame start, to the microsecond, and every drop.
    assert _simulated_schedule(**cell) == replay(**cell)
