"""Medium reach tables, capture cases in a built cell, trace-off runs, and
equivalence with a reference medium that resolves each hearer from its own
overlap set."""

from math import hypot
from operator import attrgetter
from types import SimpleNamespace

import pytest
from conftest import dense_cell, jittered_grid, shipped, small_scenarios
from hypothesis import given, settings, strategies as st

from macsim import harness, metrics, phy
from macsim.engine import Simulator
from macsim.mac import MacNode
from macsim.frames import (ACK, ACK_BYTES, CONTROL_KINDS, CONTROL_RATE, DATA,
                           DATA_CF_ACK, RTS, Frame, frame_airtime)
from macsim.medium import Medium
from macsim.scenario import parse_scenario


def _clean_rate(medium, sender, hearers):
    """Brute force: the highest rate at which a DATA frame of any size from
    `sender` has zero error rate at every hearer in the current link
    states, or 0; always 0 when the links fade."""
    q = medium.quality
    if q.dwell_us > 0 and q.matrix is not None:
        return 0
    return max((rate for rate in phy.RATES if all(
        medium._fer(SimpleNamespace(sender=sender, rate=rate, frame=Frame(
            DATA, sender, hearer, payload_bytes=size)), hearer) == 0.0
        for hearer in hearers for size in (0, 300, 2304))), default=0)


def _grid(initial_quality=phy.HIGH, base_fer=0.0):
    """The jittered grid with static links of one state and base error."""
    s = parse_scenario(jittered_grid(5, 7, 50_000))
    s.initial_quality = initial_quality
    s.base_fer[initial_quality] = base_fer
    return s


# Static grids at clean rates 11, 5.5 and 0, and fading links.
_CLEAN = {"grid": {11}, "grid_mid": {5.5}, "grid_lossy": {0},
          "fading_rate": {0}, "ica_string": {11}}


@pytest.mark.parametrize("name", ["ica_string", "grid", "grid_mid",
                                  "grid_lossy", "fading_rate"])
def test_reach_tables_match_topology(name):
    if name == "grid":
        s = _grid()
    elif name == "grid_mid":
        s = _grid(phy.MID)
    elif name == "grid_lossy":
        s = _grid(base_fer=phy.DEFAULT_BASE_FER[phy.HIGH])
    else:
        s = shipped(name, 200_000, "dcf+ica" if name == "ica_string" else None)
    sim, medium, macs, _ = harness.build(s)
    sim.run_until(s.duration_us)
    assert medium._reach_of, "the run built no reach table"
    topo = medium.topology
    sense_only = 0
    clean = set()
    for a in sorted(macs):
        sensing = [b for b in sorted(macs) if topo.can_sense(a, b)]
        hearing = [b for b in sensing if topo.can_hear(a, b)]
        table = medium.reach(a)
        assert table is medium.reach(a)
        assert table.hearers == [(b, macs[b], topo.received_power(a, b))
                                 for b in hearing]
        assert table.power == {b: p for b, _, p in table.hearers}
        # Every node in sense range, sense-only ones too, gets both edges.
        assert table.sensing == [macs[b] for b in sensing]
        # A sender with no hearers never needs the clean rate.
        if hearing:
            assert medium.clean_rate == _clean_rate(medium, a, hearing)
            clean.add(medium.clean_rate)
        sense_only += len(sensing) - len(hearing)
    if name.startswith("grid"):
        # The grid must exercise nodes that sense a sender but cannot hear it.
        assert sense_only > 0
        # Each cached link test is the direct rule, held alike by both
        # senders' tables; the grid has pairs on both sides of it.
        links = set()
        for a, table in medium._reach_of.items():
            for b, linked in table.links.items():
                other = medium._reach_of[b]
                assert linked == (b in table.power or not set(
                    table.power).isdisjoint(other.power))
                assert other.links[a] is linked
                links.add(linked)
        assert links == {False, True}
    assert clean == _CLEAN[name]


# -- cell-bucketed reach tables against the all-pairs build -------------------

class _Node:
    """A stand-in MacNode: the reach build reads only its id, and compares
    MacNodes by identity."""

    __slots__ = ("node_id",)

    def __init__(self, node_id):
        self.node_id = node_id


def _layout_medium(positions, hear, sense, coordinator=None):
    """A medium over `positions` (node id -> (x, y)) with a stand-in node
    per id and, if given, a stand-in coordinator at that node."""
    medium = Medium(Simulator(), phy.Topology(dict(positions), hear, sense),
                    phy.LinkQualityProcess(sorted(positions), phy.HIGH),
                    dict(phy.DEFAULT_BASE_FER), 10.0, False, 1, False)
    for nid in positions:
        medium.register(_Node(nid))
    if coordinator is not None:
        medium.coordinator = SimpleNamespace(mac=medium.macs[coordinator])
    return medium


def _all_pairs_reach(medium):
    """Every node's (hearers, power items, sensing, pcf) from the build that
    takes every node pair in id order and measures each once: the medium's
    build before nodes were put in cells."""
    topo = medium.topology
    positions = topo.positions
    sense, hear = topo.sense_range, topo.hear_range
    by_id = sorted(medium.macs.items())
    hearers = {nid: [] for nid, _ in by_id}
    sensing = {nid: [] for nid, _ in by_id}
    for i, (a, mac_a) in enumerate(by_id):
        ax, ay = positions[a]
        for b, mac_b in by_id[i + 1:]:
            bx, by = positions[b]
            d = hypot(ax - bx, ay - by)
            if d <= sense:
                sensing[a].append(mac_b)
                sensing[b].append(mac_a)
                if d <= hear:
                    p = phy.power_at(d)
                    hearers[a].append((b, mac_b, p))
                    hearers[b].append((a, mac_a, p))
    pc = medium.coordinator
    return {nid: (hearers[nid], [(b, p) for b, _, p in hearers[nid]],
                  sensing[nid], pc if pc and pc.mac in sensing[nid] else None)
            for nid, _ in by_id}


def _assert_reach_matches_all_pairs(positions, hear, sense, coordinator=None):
    medium = _layout_medium(positions, hear, sense, coordinator)
    expected = _all_pairs_reach(medium)
    medium.reach(next(iter(positions)))
    got = {nid: (r.hearers, list(r.power.items()), r.sensing, r.pcf)
           for nid, r in medium._reach_of.items()}
    assert got == expected
    return expected


_LAYOUTS = {
    # A measured distance of exactly sense_range, across a cell border;
    # the second pair's distance rounds down to sense_range from above it.
    "sense_range_across_a_border": ({0: (-1.0, 0.0), 1: (24.0, 0.0),
                                     2: (-1e-20, 50.0), 3: (25.0, 50.0)},
                                    25, 25),
    "negative_coordinates": ({i: (-10.0 * (i % 7) - 0.5, -10.0 * (i // 7))
                              for i in range(49)}, 15, 25),
    "co_located": ({0: (3.0, 3.0), 1: (3.0, 3.0), 2: (3.0, 3.0),
                    3: (90.0, 3.0), 4: (90.0, 3.0)}, 10, 10),
    # Only co-located nodes are in range, with cells of no width.
    "zero_ranges": ({0: (0.0, 0.0), 1: (0.0, 0.0), 2: (1e-9, 0.0),
                     3: (-5.0, 7.0), 4: (-5.0, 7.0)}, 0, 0),
    "one_cell": ({i: (i % 9 * 1.0, i // 9 * 1.0) for i in range(81)}, 50, 50),
    # Far from the origin the cell coordinates stop being whole numbers.
    "far_from_the_origin": ({0: (1e300, 0.0), 1: (1e300, 0.0),
                             2: (-1e300, 5.0), 3: (0.0, 1e17),
                             4: (0.0, 1e17 + 16)}, 10, 20),
}


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
def test_bucketed_reach_tables_match_all_pairs(name):
    positions, hear, sense = _LAYOUTS[name]
    tables = _assert_reach_matches_all_pairs(positions, hear, sense)
    # Each layout has pairs in sense range.
    assert any(sensing for _, _, sensing, _ in tables.values())


def test_bucketed_reach_tables_match_all_pairs_on_a_sparse_grid():
    s = parse_scenario(jittered_grid(20, 3, 1000))
    _assert_reach_matches_all_pairs(s.positions, s.hear_range, s.sense_range,
                                    coordinator=57)


@st.composite
def _layouts(draw):
    """Up to 40 nodes at multiples of 2.5 m, many pairs exactly a range
    apart, some at one point, with ranges of 0 to 25 m and sometimes a
    coordinator."""
    positions = {}
    for nid in draw(st.lists(st.integers(0, 500), min_size=1, max_size=40,
                             unique=True)):
        if positions and draw(st.booleans()):
            positions[nid] = draw(st.sampled_from(list(positions.values())))
        else:
            x, y = draw(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
            positions[nid] = (x * 2.5, y * 2.5)
    hear = draw(st.sampled_from([0, 2.5, 5, 10, 25]))
    sense = hear + draw(st.sampled_from([0, 2.5, 10]))
    coordinator = draw(st.none() | st.sampled_from(sorted(positions)))
    return positions, hear, sense, coordinator


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_layouts())
def test_bucketed_reach_tables_match_all_pairs_on_random_layouts(layout):
    _assert_reach_matches_all_pairs(*layout)


# -- capture cases the resolution pass decides -------------------------------

def _cell(positions, capture_ratio=10, hear_range=50, link_lines=()):
    """A traced cell with the given node positions and no traffic."""
    lines = ["[sim]", "seed = 1", "duration_us = 100000",
             "capture_ratio = %s" % capture_ratio, "[nodes]"]
    lines += ["%d = %s %s" % (i, x, y) for i, (x, y) in enumerate(positions)]
    lines += ["[links]", "hear_range = %s" % hear_range,
              "sense_range = %s" % hear_range, *link_lines,
              "[mac]", "variant = dcf", "[flows]"]
    return harness.build(parse_scenario("\n".join(lines) + "\n"), trace=True)


def _send(sim, medium, sends):
    """Put a frame on the air at each (start time, frame, rate) in `sends`."""
    for t, frame, rate in sends:
        sim.schedule(t, "test_send", frame.src,
                     lambda frame=frame, rate=rate: (
                         medium.transmit(frame.src, frame, rate)))


def _outcomes(sim):
    """{(hearer, sender, frame kind): outcome} from the rx trace lines."""
    got = {}
    for line in sim.trace_lines:
        _, node, kind, detail = line.split("\t")
        if kind == "rx":
            outcome, _, sender, frame_kind = detail.split(" ")
            got[int(node), int(sender), frame_kind] = outcome
    return got


def _receptions(positions, sends, capture_ratio=10, hear_range=50):
    """Send an RTS to node 0 from each (sender, start time) in `sends` and
    return node 0's outcome per sender, with the medium's stats."""
    sim, medium, _, _ = _cell(positions, capture_ratio, hear_range)
    _send(sim, medium, [(t, Frame(RTS, sender, 0, duration=1000), CONTROL_RATE)
                        for sender, t in sends])
    sim.run_until(2_000)
    got = {sender: outcome for (hearer, sender, kind), outcome
           in _outcomes(sim).items() if hearer == 0 and kind == RTS}
    return got, medium.stats


def test_capture_equal_power_same_start_collides_once():
    got, stats = _receptions([(0, 0), (-10, 0), (10, 0)], [(1, 0), (2, 0)])
    assert got == {1: phy.COLLIDED, 2: phy.COLLIDED}
    assert stats.collided_transmissions == 2
    assert stats.collision_events == 1
    assert stats.ack_collisions == 0


def test_only_a_collided_ack_counts_as_an_ack_collision():
    # An ACK and an RTS collide at node 0, the destination of both.
    sim, medium, _, _ = _cell([(0, 0), (-10, 0), (10, 0)])
    _send(sim, medium, [
        (0, Frame(ACK, 1, 0, payload_bytes=ACK_BYTES), CONTROL_RATE),
        (0, Frame(RTS, 2, 0, duration=1000), CONTROL_RATE)])
    sim.run_until(2_000)
    assert medium.stats.collided_transmissions == 2
    assert medium.stats.ack_collisions == 1


def test_capture_stronger_but_later_frame_collides():
    # Node 1 is 100 times stronger at node 0 but starts after node 2's
    # preamble: neither frame is received.
    got, stats = _receptions([(0, 0), (1, 0), (10, 0)], [(2, 0), (1, 50)])
    assert got == {1: phy.COLLIDED, 2: phy.COLLIDED}
    assert stats.collision_events == 1


@pytest.mark.parametrize("far,outcome,collided", [
    (10, phy.RECEIVED, 1),  # 100 times stronger: captured
    (2, phy.COLLIDED, 2),  # 4 times stronger: below the ratio of 10
])
def test_capture_needs_the_ratio(far, outcome, collided):
    got, stats = _receptions([(0, 0), (1, 0), (far, 0)], [(1, 0), (2, 0)])
    assert got == {1: outcome, 2: phy.COLLIDED}
    assert stats.collided_transmissions == collided
    assert stats.collision_events == 1


def test_capture_colocated_senders_collide():
    # Both senders sit on node 0: each frame arrives at the power clamped at
    # MIN_DISTANCE_M, neither is stronger, and neither beats the other by
    # the capture ratio, so they collide like any equal-power pair.
    positions = [(5, 5), (5, 5), (5, 5)]
    sim, medium, _, _ = _cell(positions)
    assert medium.reach(1).power[0] == medium.reach(2).power[0] == \
        phy.power_at(phy.MIN_DISTANCE_M)
    got, stats = _receptions(positions, [(1, 0), (2, 0)])
    assert got == {1: phy.COLLIDED, 2: phy.COLLIDED}
    assert stats.collision_events == 1
    # A later start does not help either frame.
    got, stats = _receptions(positions, [(1, 0), (2, 5)])
    assert got == {1: phy.COLLIDED, 2: phy.COLLIDED}
    assert stats.collision_events == 1


def _counting_capture(monkeypatch):
    """Count the medium's calls of the capture rule, which it makes through
    the `phy` module attribute (perfbench counts them there too)."""
    calls = []
    rule = phy.resolve_capture

    def counted(power, rest, ratio):
        calls.append((power, rest, ratio))
        return rule(power, rest, ratio)

    monkeypatch.setattr(phy, "resolve_capture", counted)
    return calls


# Node 0 hears node 1 at power 4, node 2 at 1 and nodes 3 and 4, 1e8 m away,
# at 1e-16 each.  Folded left to right, 1.0 + 1e-16 + 1e-16 is exactly 1.0,
# so node 1's frame meets the ratio of 4; in the other txid order the two
# small powers add up first and the sum exceeds 1.0 (as test_phy's fold).
@pytest.mark.parametrize("order,outcome,rest", [
    ((1, 2, 3, 4), phy.RECEIVED, 1.0),
    ((3, 4, 2, 1), phy.COLLIDED, 1.0000000000000002),
])
def test_capture_sums_rival_powers_left_to_right_in_txid_order(
        monkeypatch, order, outcome, rest):
    calls = _counting_capture(monkeypatch)
    positions = [(0, 0), (0.5, 0), (-1, 0), (0, 1e8), (0, -1e8)]
    got, _ = _receptions(positions, [(sender, 0) for sender in order],
                         capture_ratio=4, hear_range=3e8)
    assert got == {1: outcome, 2: phy.COLLIDED, 3: phy.COLLIDED,
                   4: phy.COLLIDED}
    # Every other node sends, so node 0 is the only hearer, and only node
    # 1's frame there has no rival that is stronger.
    assert calls == [(4.0, rest, 4.0)]


@pytest.mark.parametrize("early", [False, True])
def test_capture_weaker_frame_that_started_earlier_collides_anyway(
        monkeypatch, early):
    # At node 0, node 1's frame is a million times stronger than node 2's
    # and node 3's.  Node 3 starts with node 1, and on its own node 1
    # captures over it.  When node 2 started 50 us earlier, node 1's frame
    # collides without the capture rule being asked.
    calls = _counting_capture(monkeypatch)
    positions = [(0, 0), (1, 0), (0, 1000), (0, -1000)]
    sends = [(2, 0)] * early + [(1, 50), (3, 50)]
    got, stats = _receptions(positions, sends, hear_range=5000)
    if early:
        assert got == {1: phy.COLLIDED, 2: phy.COLLIDED, 3: phy.COLLIDED}
        assert (stats.collided_transmissions, stats.collision_events) == (3, 1)
        assert calls == []  # node 0 is the only node not sending
    else:
        assert got == {1: phy.RECEIVED, 3: phy.COLLIDED}
        assert calls[0] == (1.0, 1e-6, 10.0)  # node 0 asks first, by id


# -- what a frame's resolution looks at --------------------------------------

@pytest.mark.parametrize("rate,outcome", [(11, phy.ERRORED),
                                          (5.5, phy.RECEIVED)])
def test_static_error_free_link_still_caps_the_rate(rate, outcome):
    # A static MID link with no base error: 5.5 Mbps is error-free, but
    # 11 Mbps is above what MID sustains and always errors.  Node 0
    # overhears a frame for node 2, which is out of range.
    sim, medium, _, _ = _cell([(0, 0), (10, 0), (100, 0)], link_lines=(
        "initial_quality = MID", "base_fer_mid = 0"))
    assert medium.clean_rate == 5.5
    _send(sim, medium, [(0, Frame(DATA, 1, 2, payload_bytes=1000), rate)])
    sim.run_until(5_000)
    assert _outcomes(sim) == {(0, 1, DATA): outcome}


# Three nodes 10 m apart on a line; each hears only its neighbours.
_LINE = [(0, 0), (10, 0), (20, 0)]


@pytest.mark.parametrize("src,dst,outcome", [
    # B sends to C meanwhile; A's only hearer is B, which is busy sending.
    # No hearer of A hears B, so only half duplex puts B's frame in A's list.
    (1, 2, phy.NOT_HEARD),
    # C sends to B meanwhile: hidden terminals, equal power at B.
    (2, 1, phy.COLLIDED),
], ids=["half_duplex", "hidden_terminal"])
def test_frame_resolves_against_frames_reaching_its_hearers(src, dst, outcome):
    # A (node 0) sends to B (node 1) while a second frame is on the air.
    sim, medium, _, _ = _cell(_LINE, hear_range=15)
    _send(sim, medium, [
        (0, Frame(RTS, 0, 1, duration=1000), CONTROL_RATE),
        (0, Frame(RTS, src, dst, duration=1000), CONTROL_RATE)])
    sim.run_until(1_000)
    assert _outcomes(sim)[1, 0, RTS] == outcome


@pytest.mark.parametrize("reference", [False, True],
                         ids=["medium", "reference"])
def test_frame_that_ends_as_another_starts_does_not_overlap_it(reference):
    # Hidden terminals A and C each send B an ACK, C's at the instant A's
    # ends.  C's send is queued before A's end event, so A's frame is still
    # on the air when C's starts; the intervals are half-open all the same.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Medium", ReferenceMedium if reference else Medium)
        sim, medium, _, _ = _cell(_LINE, hear_range=15)
    air = frame_airtime(Frame(ACK, 0, 1), CONTROL_RATE)
    _send(sim, medium, [(0, Frame(ACK, 0, 1), CONTROL_RATE),
                        (air, Frame(ACK, 2, 1), CONTROL_RATE)])
    sim.run_until(2 * air + 1)
    got = _outcomes(sim)
    assert (got[1, 0, ACK], got[1, 2, ACK]) == (phy.RECEIVED, phy.RECEIVED)
    assert medium.stats.collision_events == 0


def test_frames_far_apart_leave_each_other_out():
    # Two pairs three hops apart: no hearer of one sender hears the other.
    sim, medium, _, _ = _cell([(0, 0), (10, 0), (40, 0), (50, 0)],
                              hear_range=15)
    _send(sim, medium, [
        (0, Frame(RTS, 0, 1, duration=1000), CONTROL_RATE),
        (0, Frame(RTS, 2, 3, duration=1000), CONTROL_RATE)])
    seen = []
    sim.schedule(100, "probe", "-", lambda: seen.extend(
        (tx.sender, tx.concurrent) for tx in medium.active.values()))
    sim.run_until(1_000)
    assert seen == [(0, []), (2, [])]
    got = _outcomes(sim)
    assert got[1, 0, RTS] == got[3, 2, RTS] == phy.RECEIVED


def test_sense_calls_reach_a_node_only_on_an_edge_and_the_coordinator_always(
        monkeypatch):
    # A MacNode's sense hooks are its plain edge handlers.
    assert vars(MacNode)["on_sense_enter"] is vars(MacNode)["_on_busy_edge"]
    assert vars(MacNode)["on_sense_exit"] is vars(MacNode)["_on_idle_edge"]
    # Node 0 sends twice.  Node 1's NAV covers the first frame only, and
    # node 2's both; node 2 carries the coordinator.  Then node 1 sends a
    # long frame of its own, and node 0 a third one inside it.  Node 3, out
    # of everyone's range, sends one frame, and node 2 one of its own.
    sim, medium, macs, _ = _cell([(0, 0), (5, 0), (10, 0), (100, 0)])
    calls = []
    for name in ("on_sense_enter", "on_sense_exit"):
        method = getattr(MacNode, name)
        monkeypatch.setattr(MacNode, name, lambda mac, name=name, method=method: (
            calls.append((sim.now, mac.node_id, name, mac.sense_count)),
            method(mac)))
    pcf = []

    def hook(name):
        return lambda: pcf.append(
            (sim.now, name, macs[2].sense_count, macs[2].self_tx))

    medium.coordinator = SimpleNamespace(
        mac=macs[2], on_sense_enter=hook("enter"), on_sense_exit=hook("exit"),
        on_tx_end=hook("tx_end"))
    assert not medium._reach_of  # no frame was sent yet
    macs[1].set_nav(5_000)
    macs[2].set_nav(12_000)
    # Node 1's edge handlers record each edge instead of acting on it; the
    # other nodes keep theirs.
    edges = []
    for name, edge in (("_on_busy_edge", "busy"), ("_on_idle_edge", "idle")):
        method = getattr(MacNode, name)
        monkeypatch.setattr(
            MacNode, name, lambda mac, edge=edge, method=method: (
                edges.append((sim.now, edge)) if mac is macs[1]
                else method(mac)))
    # Node 0's frames are for node 2, which its NAV or node 1's frame keeps
    # from answering, and the others' for no node; no frame sets a NAV.
    frame = Frame(RTS, 0, 2, duration=0, xid=7)
    end = frame_airtime(frame, CONTROL_RATE)
    own = Frame(DATA, 1, 9, payload_bytes=1000, xid=8)
    own_end = 15_000 + frame_airtime(own, 1)
    far = Frame(RTS, 3, 9, duration=0, xid=9)
    pc_own = Frame(DATA, 2, 9, payload_bytes=100, xid=10)
    pc_end = 50_000 + frame_airtime(pc_own, 1)
    _send(sim, medium, [(1_000, frame, CONTROL_RATE),
                        (10_000, frame, CONTROL_RATE),
                        (16_000, frame, CONTROL_RATE),
                        (40_000, far, CONTROL_RATE)])
    sim.schedule(15_000, "test_send", 1, lambda: macs[1]._transmit(own, 1))
    sim.schedule(50_000, "test_send", 2, lambda: macs[2]._transmit(pc_own, 1))
    sim.run_until(60_000)
    assert 16_000 + end < own_end < 40_000
    assert calls == [
        (10_000, 1, "on_sense_enter", 1), (10_000 + end, 1, "on_sense_exit", 0),
        # Node 1 is sending its own frame: neither edge reaches it, and
        # node 2 gets only the count's 0/1 crossings.
        (15_000, 0, "on_sense_enter", 1), (15_000, 2, "on_sense_enter", 1),
        (own_end, 0, "on_sense_exit", 0), (own_end, 2, "on_sense_exit", 0),
        (50_000, 0, "on_sense_enter", 1), (50_000, 1, "on_sense_enter", 1),
        (pc_end, 0, "on_sense_exit", 0), (pc_end, 1, "on_sense_exit", 0)]
    # The NAV's own expiry is node 1's idle edge at 5,000, and its own
    # frame's start and end are the others.
    assert edges == [(5_000, "idle"), (15_000, "busy"), (own_end, "idle")]
    # The coordinator gets every start and end its node senses, after the
    # counts moved, nothing of node 3's frame, and the end of its node's
    # own frame after the node's own end callback.
    assert pcf == [
        (1_000, "enter", 1, False), (1_000 + end, "exit", 0, False),
        (10_000, "enter", 1, False), (10_000 + end, "exit", 0, False),
        (15_000, "enter", 1, False), (16_000, "enter", 2, False),
        (16_000 + end, "exit", 1, False), (own_end, "exit", 0, False),
        (pc_end, "tx_end", 0, False)]
    assert medium.reach(3).pcf is None and medium.reach(2).pcf is None
    assert [mac.sense_count for mac in macs.values()] == [0, 0, 0, 0]


@pytest.mark.parametrize("name,duration_us,variant", [
    ("single_cell", 300_000, None),
    ("pcf_infra", 300_000, None),
    ("ica_string", 300_000, "dcf+ica"),
    ("fading_rate", 300_000, "dcf+oar"),
])
def test_untraced_run_builds_no_trace_strings(monkeypatch, name, duration_us,
                                              variant):
    traced = harness.run(shipped(name, duration_us, variant), trace=True)
    assert traced.trace_lines

    calls = []
    trace = Simulator.trace

    def recorded(self, *args):
        calls.append(args)
        trace(self, *args)

    monkeypatch.setattr(Simulator, "trace", recorded)
    s = shipped(name, duration_us, variant)
    sim, medium, _, recorder = harness.build(s)
    seen = []

    def probe():
        seen.append(sim.trace_lines)
        if sim.now + 10_000 <= s.duration_us:
            sim.schedule_in(10_000, "probe", "-", probe)

    sim.schedule(0, "probe", "-", probe)
    sim.run_until(s.duration_us)
    # Model events call `trace` unguarded, with a format and its values,
    # never a detail they formatted themselves: only `trace` formats, and
    # not while tracing is off.
    assert calls and all(len(args) != 3 or args[2] == "" for args in calls)
    assert len(seen) > 1 and all(lines is None for lines in seen)
    assert sim.trace_lines is None
    untraced = recorder.finalize(s.duration_us, medium.stats)
    assert (metrics.format_csv({s.variant: untraced})
            == metrics.format_csv({s.variant: traced.metrics}))


# -- reference medium --------------------------------------------------------

_TXID = attrgetter("txid")


class _RefTx:
    __slots__ = ("txid", "sender", "frame", "rate", "start", "end",
                 "overlaps", "self_busy")

    def __init__(self, txid, sender, frame, rate, start, end):
        self.txid = txid
        self.sender = sender
        self.frame = frame
        self.rate = rate
        self.start = start
        self.end = end
        # hearer id -> set of overlapping _RefTx audible at that hearer
        self.overlaps = {}
        # hearers that were mid-transmission at some point during our airtime
        self.self_busy = set()


def _reference_capture(candidates, powers, capture_ratio):
    """The general capture rule: the index captured out of >=2 overlapping
    transmissions, or None.

    `candidates` are (start_us, ...) records aligned with `powers`.  The
    strongest wins only if its power beats the sum of the rest by the capture
    ratio AND it started no later than every other overlapping transmission
    (preamble capture).  The rest is folded left to right.
    """
    strongest = powers.index(max(powers))  # first of equal maxima
    rest = 0.0
    for p in powers[:strongest] + powers[strongest + 1:]:
        rest += p
    if rest > 0 and powers[strongest] < capture_ratio * rest:
        return None
    s_start = candidates[strongest][0]
    if any(c[0] < s_start for c in candidates):
        return None
    return strongest


class _ReferenceStats:
    """The medium's counters, with collision episodes kept as a union-find
    over txids that never forgets one: `collision_events` counts its
    components at the end of the run."""

    def __init__(self):
        self.total_transmissions = 0
        self.collided_transmissions = 0
        self.ack_collisions = 0
        self.parent = {}  # txid -> txid of the same episode

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def record_collision(self, txid, overlap_ids):
        for t in (txid, *overlap_ids):
            self.parent.setdefault(t, t)
        for t in overlap_ids:
            a, b = self.find(txid), self.find(t)
            self.parent[max(a, b)] = min(a, b)

    @property
    def collision_events(self):
        return len({self.find(t) for t in self.parent})


def _reference_sense_enter(mac):
    """Carrier sense as each node kept it before the medium counted it: a
    bump and an edge test per node in range, and every start for a point
    coordinator, at its node's turn in the loop."""
    mac.sense_count += 1
    if (mac.sense_count == 1 and not mac.self_tx
            and mac.nav_until <= mac.sim.now):
        mac._on_busy_edge()
    pcf = mac.medium.coordinator
    if pcf is not None and pcf.mac is mac:
        pcf.on_sense_enter()


def _reference_sense_exit(mac):
    mac.sense_count -= 1
    if (mac.sense_count == 0 and not mac.self_tx
            and mac.nav_until <= mac.sim.now):
        mac._on_idle_edge()
    pcf = mac.medium.coordinator
    if pcf is not None and pcf.mac is mac:
        pcf.on_sense_exit()


class ReferenceMedium(Medium):
    """The medium as it was before concurrency lists: one overlap set per
    hearer per transmission, one `_resolve` call per hearer, the general
    capture rule over the whole overlapping group with powers read from the
    Topology, an error rate for every frame that errors can hit, a txid
    union-find for the collision episodes, a carrier-sense call to every
    node in range at each start and end, and the point coordinator's calls
    where its node's MacNode made them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = _ReferenceStats()
        self._ref_reach = {}  # sender id -> [(node id, MacNode, hears)]
        self.capture_questions = 0

    def _reach_list(self, sender_id):
        """(node id, MacNode, hears) for every node sensing `sender_id`."""
        reach = self._ref_reach.get(sender_id)
        if reach is None:
            topo = self.topology
            reach = self._ref_reach[sender_id] = [
                (other, self.macs[other], topo.can_hear(sender_id, other))
                for other in sorted(self.macs)
                if topo.can_sense(sender_id, other)]
        return reach

    def transmit(self, sender_id, frame, rate, on_end=None):
        sim = self.sim
        air = frame_airtime(frame, rate)
        tx = _RefTx(self._next_txid, sender_id, frame, rate, sim.now,
                    sim.now + air)
        self._next_txid += 1
        self.stats.total_transmissions += 1
        if sim.trace_lines is not None:
            sim.trace(sender_id, "tx_start", "%s->%s %s len=%d rate=%s dur=%d" % (
                sender_id, frame.dst, frame.kind, frame.payload_bytes, rate,
                frame.duration))

        # A frame that ends at this instant does not overlap, though its
        # end event may still be queued.
        active = [t2 for t2 in self.active.values() if t2.end != sim.now]
        for other, mac, hears in self._reach_list(sender_id):
            if hears:
                mine = tx.overlaps[other] = set()
                for t2 in active:
                    theirs = t2.overlaps.get(other)
                    if theirs is not None:
                        theirs.add(tx)
                        mine.add(t2)
                    if t2.sender == other:
                        tx.self_busy.add(other)
            _reference_sense_enter(mac)

        for t2 in active:
            if sender_id in t2.overlaps:
                t2.self_busy.add(sender_id)

        self.active[tx.txid] = tx
        sim.schedule(tx.end, "tx_end", sender_id, lambda: self._end(tx, on_end))
        return tx.end

    def _end(self, tx, on_end):
        del self.active[tx.txid]
        pcf = self.coordinator
        idle_edge = vars(MacNode)["_maybe_idle_edge"]
        if pcf is not None and pcf.mac.node_id == tx.sender:
            # The coordinator's hook ran inside its node's end callback,
            # between the idle-edge test and the callback's `after`.  The
            # class carries it for the callback's first call, which is the
            # coordinator node's own.
            def idle_edge_then_tx_end(mac):
                # Once: the callback's `after` may call it again.
                MacNode._maybe_idle_edge = idle_edge
                idle_edge(mac)
                pcf.on_tx_end()

            MacNode._maybe_idle_edge = idle_edge_then_tx_end
        try:
            if on_end is not None:
                on_end()
        finally:
            MacNode._maybe_idle_edge = idle_edge
        sim = self.sim
        for hearer in tx.overlaps:
            outcome = self._resolve(tx, hearer)
            if sim.trace_lines is not None:
                sim.trace(hearer, "rx", "%s from %s %s" % (
                    outcome, tx.sender, tx.frame.kind))
            if outcome == phy.RECEIVED:
                self.macs[hearer].on_frame(tx.frame)
            elif outcome == phy.COLLIDED and hearer == tx.frame.dst:
                self.stats.collided_transmissions += 1
                self.stats.record_collision(
                    tx.txid, [t.txid for t in tx.overlaps[hearer]])
                if tx.frame.kind == ACK:
                    self.stats.ack_collisions += 1
        for _, mac, _ in self._reach_list(tx.sender):
            _reference_sense_exit(mac)

    def _resolve(self, tx, hearer):
        if hearer in tx.self_busy:
            return phy.NOT_HEARD
        others = tx.overlaps[hearer]
        if others:
            group = [tx, *sorted(others, key=_TXID)]
            powers = [self.topology.received_power(t.sender, hearer)
                      for t in group]
            starts = [(t.start,) for t in group]
            # The hearers where the medium must ask `phy.resolve_capture`:
            # no rival started earlier or is stronger.
            if not any(st < tx.start or p > powers[0]
                       for (st,), p in zip(starts[1:], powers[1:])):
                self.capture_questions += 1
            winner = _reference_capture(starts, powers, self.capture_ratio)
            if winner != 0:
                return phy.COLLIDED
            return phy.RECEIVED
        fer = self._fer(tx, hearer)
        if fer > 0.0 and self.macs[hearer].rng.bernoulli(fer):
            return phy.ERRORED
        return phy.RECEIVED

    def _fer(self, tx, hearer):
        kind = tx.frame.kind
        if kind in CONTROL_KINDS and not self.control_fer:
            return 0.0
        q = self.quality.state(tx.sender, hearer)
        if kind in (DATA, DATA_CF_ACK) and tx.rate > phy.MAX_RATE_FOR_QUALITY[q]:
            return 1.0
        return phy.frame_error_prob(tx.frame.payload_bytes, self.base_fer[q])


def _output(text):
    """CSV text and trace lines of one traced run."""
    s = parse_scenario(text)
    result = harness.run(s, trace=True)
    return metrics.format_csv({s.variant: result.metrics}), result.trace_lines


def _matches_reference(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Medium", ReferenceMedium)
        want_csv, want_trace = _output(text)
    csv, trace = _output(text)
    assert csv == want_csv
    # Report the first differing line: a diff of whole traces is slow.
    first = next((i for i, (a, b) in enumerate(zip(trace, want_trace))
                  if a != b), min(len(trace), len(want_trace)))
    assert trace[first:first + 1] == want_trace[first:first + 1]
    assert len(trace) == len(want_trace)


@pytest.mark.parametrize("text", [dense_cell(3, 2, 300_000),
                                  jittered_grid(5, 7, 300_000)],
                         ids=["dense_cell", "jittered_grid"])
def test_capture_rule_asked_once_per_hearer_with_no_earlier_or_stronger_rival(
        monkeypatch, text):
    # perfbench's `phy.capture_resolutions` counts these calls.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Medium", ReferenceMedium)
        s = parse_scenario(text)
        sim, medium, _, _ = harness.build(s)
        sim.run_until(s.duration_us)
    calls = _counting_capture(monkeypatch)
    harness.run(parse_scenario(text))
    assert len(calls) == medium.capture_questions > 0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_scenarios())
def test_one_pass_resolution_matches_reference(text):
    _matches_reference(text)


# Every token brings in the point coordinator, which the medium calls on
# every carrier-sense start and end, not only on edges, and at the end of
# its node's own frames.
@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_scenarios(every_token=True))
def test_every_variant_token_matches_reference(text):
    _matches_reference(text)
