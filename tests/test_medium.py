"""Medium reach tables and trace-off runs."""

import pytest
from conftest import jittered_grid, shipped

from macsim import harness, metrics
from macsim.engine import Simulator
from macsim.scenario import parse_scenario


@pytest.mark.parametrize("name", ["ica_string", "grid"])
def test_reach_tables_match_topology(name):
    if name == "grid":
        s = parse_scenario(jittered_grid(5, 7, 50_000))
    else:
        s = shipped("ica_string", 200_000, "dcf+ica")
    sim, medium, macs, _ = harness.build(s)
    sim.run_until(s.duration_us)
    assert medium._reach_of, "the run built no reach table"
    topo = medium.topology
    sense_only = 0
    for a in sorted(macs):
        want = [(b, macs[b], topo.can_hear(a, b))
                for b in sorted(macs) if topo.can_sense(a, b)]
        assert medium.reach(a) == want
        assert medium.reach(a) is medium.reach(a)
        sense_only += sum(1 for _, _, hears in want if not hears)
        for b in sorted(macs):
            if b != a:
                assert medium.power(a, b) == topo.received_power(a, b)
    if name == "grid":
        # The grid must exercise nodes that sense a sender but cannot hear it.
        assert sense_only > 0


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
    monkeypatch.setattr(Simulator, "trace",
                        lambda self, *args: calls.append(args))
    s = shipped(name, duration_us, variant)
    sim, medium, _, recorder = harness.build(s)
    seen = []

    def probe():
        seen.append(sim.trace_lines)
        if sim.now + 10_000 <= s.duration_us:
            sim.schedule_in(10_000, "probe", "-", probe)

    sim.schedule(0, "probe", "-", probe)
    sim.run_until(s.duration_us)
    assert calls == []
    assert len(seen) > 1 and all(lines is None for lines in seen)
    assert sim.trace_lines is None
    untraced = recorder.finalize(s.duration_us, medium.stats)
    assert (metrics.format_csv({s.variant: untraced})
            == metrics.format_csv({s.variant: traced.metrics}))
