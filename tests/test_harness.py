"""Harness wiring and the command-line interface."""

import dataclasses
import os
import subprocess
import sys

import pytest

from conftest import SCENARIOS, cli_main, single_cell
from macsim import cli, engine, harness
from macsim.metrics import CSV_HEADER, format_csv
from macsim.scenario import ScenarioError, parse_scenario


def test_zero_flows_gives_all_zero_metrics():
    text = "[sim]\nduration_us = 1000\n[nodes]\n0 = 0 0\n1 = 5 0\n"
    m = harness.run(parse_scenario(text)).metrics
    assert m.aggregate_delivered_bits == 0
    assert m.total_transmissions == 0
    assert m.collision_fraction == 0.0


def test_same_seed_twice_identical_metrics_and_trace():
    text = single_cell(3, 800, seed=5, duration_us=300_000)
    a = harness.run(parse_scenario(text), trace=True)
    b = harness.run(parse_scenario(text), trace=True)
    assert a.trace_lines == b.trace_lines
    assert format_csv({"dcf": a.metrics}) == format_csv({"dcf": b.metrics})


def test_seed_changes_the_run():
    base = single_cell(3, 800, seed=5, duration_us=300_000)
    other = single_cell(3, 800, seed=6, duration_us=300_000)
    a = harness.run(parse_scenario(base), trace=True)
    b = harness.run(parse_scenario(other), trace=True)
    assert a.trace_lines != b.trace_lines


def test_compare_runs_are_isolated():
    text = single_cell(3, 800, seed=5, duration_us=300_000)
    solo = harness.run(parse_scenario(text), variant="dcf").metrics
    table = harness.compare(["dcf", "dcf+2way"], parse_scenario(text))
    assert set(table) == {"dcf", "dcf+2way"}
    # Running dcf alongside another variant must not perturb it.
    assert format_csv({"dcf": table["dcf"]}) == format_csv({"dcf": solo})


def test_compare_invalid_variant_rejected():
    s = parse_scenario(single_cell(1, 500, 1, 1000))
    for variants, message in [
            (["dcf+bogus"], "variant 'dcf+bogus': unknown token 'bogus'"),
            (["dcf", "dcf+warp"], "variant 'dcf+warp': unknown token 'warp'"),
            (["dcf+arf+rbar"],
             "variant 'dcf+arf+rbar': two tokens set rate_policy")]:
        with pytest.raises(ScenarioError) as err:
            harness.compare(variants, s)
        assert str(err.value) == message


def test_compare_builds_every_variant_before_running_any(monkeypatch):
    # dcf builds, edcf does not: the scenario has no [edcf] section.
    runs = []
    monkeypatch.setattr(engine.Simulator, "run_until",
                        lambda sim, until: runs.append(until))
    s = parse_scenario(single_cell(2, 500, 1, 100_000))
    with pytest.raises(ScenarioError) as err:
        harness.compare(["dcf", "dcf+edcf"], s)
    assert str(err.value) == "edcf variant needs an [edcf] section"
    assert runs == []


def test_nodes_without_overrides_share_one_frozen_settings_object():
    text = single_cell(4, 800, seed=1, duration_us=1000, variant="dcf+arf+dfs",
                       mac_lines=("node.2.data_rate = 2", "node.3.phi = 0.5"))
    _, _, macs, _ = harness.build(parse_scenario(text))
    plain = macs[0].params
    assert all(macs[n].params is plain for n in (1, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plain.rts_threshold = 0
    # An overridden node resolves its own settings.
    assert macs[2].params is not plain and macs[3].params is not plain
    assert (macs[2].fixed_rate, macs[2].rate_scheme.rate) == (2, 2)
    assert macs[1].fixed_rate == macs[3].fixed_rate == 11
    assert (macs[3].backoff_scheme.phi, macs[1].backoff_scheme.phi) == (0.5, 1.0)
    # What a node changes as it runs is its own.
    for get in (lambda m: m.cats, lambda m: m.cats[0], lambda m: m.rate_scheme,
                lambda m: m.backoff_scheme, lambda m: m.rng):
        assert len({id(get(m)) for m in macs.values()}) == len(macs)


def test_two_way_nodes_share_params_without_rts():
    s = parse_scenario(single_cell(2, 800, seed=1, duration_us=1000,
                                   variant="dcf+2way"))
    _, _, macs, _ = harness.build(s)
    assert macs[0].params is macs[1].params
    assert macs[0].params.rts_threshold > 800
    # A fixed rate and binary exponential backoff keep no state: one each.
    assert macs[0].rate_scheme is macs[1].rate_scheme
    assert macs[0].backoff_scheme is macs[1].backoff_scheme
    assert harness.build(s, variant="dcf")[2][0].params.rts_threshold == 500


# No scenario sets these keys: each must still reach the node's scheme.
@pytest.mark.parametrize("variant,key,scheme,field", [
    ("dcf+arf", "arf_timer_us", "rate_scheme", "timer_us"),
    ("dcf+oar", "oar_ref_bytes", "rate_scheme", "ref_bytes"),
    ("dcf+est", "est_window_us", "backoff_scheme", "window_us"),
])
def test_scheme_key_reaches_the_node_s_scheme(variant, key, scheme, field):
    s = parse_scenario(single_cell(2, 800, seed=1, duration_us=1000,
                                   variant=variant,
                                   mac_lines=["%s = 1234" % key]))
    _, _, macs, _ = harness.build(s)
    assert [getattr(getattr(m, scheme), field) for m in macs.values()] == [
        1234, 1234, 1234]


# Every node sets its own variant, and none runs pcf.
_ALL_NODES_SET_THEIR_OWN = """\
[sim]
duration_us = 1000
[nodes]
0 = 0 0
1 = 5 0
[mac]
variant = dcf+pcf
node.0.variant = dcf
node.1.variant = dcf
"""
_PCF = """\
[pcf]
coordinator = 0
pollable = 1
superframe_us = 60000
cfp_max_us = 30000
cp_min_us = 20000
"""


def test_mac_pcf_variant_starts_only_a_configured_coordinator():
    # The [mac] variant starts the coordinator [pcf] configures even when no
    # node runs it, and without [pcf] asks for none.
    medium = harness.build(parse_scenario(_ALL_NODES_SET_THEIR_OWN + _PCF))[1]
    assert medium.coordinator is not None
    medium = harness.build(parse_scenario(_ALL_NODES_SET_THEIR_OWN))[1]
    assert medium.coordinator is None


def test_metrics_hold_the_recorders_own_flow_records():
    r = harness.run(parse_scenario(single_cell(2, 500, 1, 100_000)))
    assert set(r.metrics.flows) == {1, 2}
    for fid, fm in r.metrics.flows.items():
        assert fm is r.recorder.flows[fid]
    assert fm.delivered_packets > 0


def test_cbr_flow_paces_arrivals():
    # 1 Mbps of 500-byte packets over 0.1 s = 25 packets.
    text = single_cell(1, 500, seed=1, duration_us=100_000,
                       flow_kind="cbr 500 1000000")
    m = harness.run(parse_scenario(text)).metrics
    assert m.flows[1].generated_packets == 25
    assert m.flows[1].delivered_packets == 25


def test_flow_start_stop_window():
    text = single_cell(1, 1500, seed=1, duration_us=200_000)
    text = text.replace("1 = 1 0 backlogged 1500",
                        "1 = 1 0 backlogged 1500 start=50000 stop=100000")
    r = harness.run(parse_scenario(text), trace=True)
    first_tx = min(int(l.split("\t")[0]) for l in r.trace_lines
                   if "tx_start" in l)
    assert first_tx >= 50000
    # Nothing is generated after the stop instant (the backlog drains).
    assert r.metrics.flows[1].generated_bits <= 1500 * 8 * 40


# -- CLI --------------------------------------------------------------------

def _cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "macsim.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scn.txt"
    p.write_text(single_cell(2, 800, seed=3, duration_us=200_000))
    return p


def test_cli_run_writes_csv(scenario_file, tmp_path):
    out = tmp_path / "out.csv"
    res = _cli(["run", str(scenario_file), "--out", str(out)])
    assert res.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # two flows + summary


def test_cli_run_stdout_and_trace(scenario_file, tmp_path):
    trace = tmp_path / "trace.txt"
    res = _cli(["run", str(scenario_file), "--trace", str(trace)])
    assert res.returncode == 0
    assert res.stdout.startswith(CSV_HEADER)
    first = trace.read_text().split("\n")[0].split("\t")
    assert len(first) == 4 and first[0].isdigit()


def test_cli_run_seed_override(scenario_file, tmp_path):
    out = tmp_path / "out.csv"
    assert cli_main(["run", str(scenario_file), "--seed", "99", "--out",
                     str(out)]) == (0, "")
    s = parse_scenario(scenario_file.read_text())
    assert s.seed != 99
    s.seed = 99
    assert out.read_text() == format_csv(
        {s.variant: harness.run(s).metrics})


def test_cli_compare(scenario_file, tmp_path):
    out = tmp_path / "out.csv"
    assert cli_main(["compare", str(scenario_file), "--variants",
                     "dcf, dcf+2way,", "--out", str(out)]) == (0, "")
    assert out.read_text() == format_csv(harness.compare(
        ["dcf", "dcf+2way"], parse_scenario(scenario_file.read_text())))


def test_cli_compare_bad_variant_named_without_a_line(scenario_file):
    res = _cli(["compare", str(scenario_file), "--variants", "dcf,dcf+warp"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("%s: variant 'dcf+warp': unknown token 'warp'\n"
                          % scenario_file)


def test_cli_validate_ok(scenario_file):
    res = _cli(["validate", str(scenario_file)])
    assert res.returncode == 0
    assert res.stdout.strip() == "ok"


def test_cli_usage_error_exit_1(scenario_file):
    code, err = cli_main([])
    assert code == 1
    assert err.endswith(
        "error: a command is required (run, compare, validate)\n")
    assert cli_main(["run"])[0] == 1
    code, err = cli_main(["compare", str(scenario_file), "--variants", " ,"])
    assert code == 1
    assert err.endswith(
        "error: --variants must name at least one variant\n")


def test_cli_scenario_error_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[sim]\nwat = 1\n")
    res = _cli(["validate", str(bad)])
    assert res.returncode == 2
    assert "line 2" in res.stderr


# (variant, [mac] lines, message): each parses, but harness.build rejects
# it, naming the line of the variant key that asked for the feature.
_VARIANT_ERRORS = [
    ("dcf+pcf", (), "line 11: pcf variant needs a [pcf] section"),
    ("dcf", ("node.1.variant = dcf+edcf",),
     "line 12: edcf variant needs an [edcf] section"),
    ("dcf", ("node.1.variant = dcf+pcf",),
     "line 12: pcf variant needs a [pcf] section"),
]


def test_cli_run_build_error_exit_2(tmp_path):
    # Parses, but harness.build rejects edcf without an [edcf] section.
    bad = tmp_path / "edcf.txt"
    bad.write_text(single_cell(1, 800, seed=1, duration_us=1000,
                               variant="dcf+edcf"))
    res = _cli(["run", str(bad)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "line 11: edcf variant needs an [edcf] section" in res.stderr
    for variant, mac_lines, message in _VARIANT_ERRORS:
        bad.write_text(single_cell(1, 800, seed=1, duration_us=1000,
                                   variant=variant, mac_lines=mac_lines))
        code, err = cli_main(["run", str(bad)])
        assert code == 2
        assert message in err


def test_cli_run_zero_metric_window_exit_2(tmp_path):
    bad = tmp_path / "window.txt"
    bad.write_text(single_cell(1, 800, seed=1, duration_us=1000,
                               sim_lines=["metric_window_us = 0"]))
    res = _cli(["run", str(bad)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "line 4: metric_window_us must be positive" in res.stderr


@pytest.mark.parametrize("old,new,message", [
    ("pollable = 1 2", "pollable = x", "line 21: expected int, got 'x'"),
    ("cp_min_us = 20000", "cp_min_us = 40000",
     "line 24: cfp_max_us 30000 + cp_min_us 40000 exceeds superframe_us 60000"),
    ("cp_min_us = 20000", "cp_min_us = 100",
     "line 24: cp_min_us 100 below the 7423 us needed for one full exchange"),
])
def test_cli_run_bad_pcf_exit_2(tmp_path, old, new, message):
    with open(os.path.join(SCENARIOS, "pcf_infra.txt")) as fh:
        text = fh.read()
    assert old in text
    bad = tmp_path / "pcf.txt"
    bad.write_text(text.replace(old, new))
    res = _cli(["run", str(bad)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert message in res.stderr


def test_cli_run_cp_floor_fits_the_slowest_node_exit_2(tmp_path):
    # Node 1 sends at 1 Mbps: its exchange, not one at [mac]'s rate, sets
    # the contention-period floor.
    with open(os.path.join(SCENARIOS, "pcf_infra.txt")) as fh:
        text = fh.read()
    bad = tmp_path / "pcf.txt"
    bad.write_text(text.replace("[mac]\n", "[mac]\nnode.1.data_rate = 1\n")
                   .replace("cp_min_us = 20000", "cp_min_us = 10000"))
    res = _cli(["run", str(bad)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert ("line 25: cp_min_us 10000 below the 18332 us needed for one "
            "full exchange") in res.stderr

def test_cli_validate_rejects_what_run_rejects_at_build(tmp_path):
    # The contention-period floor depends on the built coordinator's MAC
    # parameters, so only harness.build can check it.
    with open(os.path.join(SCENARIOS, "pcf_infra.txt")) as fh:
        text = fh.read()
    bad = tmp_path / "pcf.txt"
    bad.write_text(text.replace("cp_min_us = 20000", "cp_min_us = 100"))
    res = _cli(["validate", str(bad)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert ("line 24: cp_min_us 100 below the 7423 us needed for one full "
            "exchange") in res.stderr


def test_cli_run_zero_cw_min_exit_2(tmp_path):
    bad = tmp_path / "cw.txt"
    bad.write_text(single_cell(2, 800, seed=1, duration_us=100_000,
                               mac_lines=["cw_min = 0"]))
    res = _cli(["run", str(bad)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "line 13: cw_min must be >= 1" in res.stderr


def test_cli_missing_file_exit_2(tmp_path):
    path = tmp_path / "nope.txt"
    for command in (["validate"], ["run"], ["compare", "--variants=dcf"]):
        assert cli_main(command + [str(path)]) == (
            2, "error: [Errno 2] No such file or directory: '%s'\n" % path)


def test_cli_trace_file_is_the_in_memory_trace(tmp_path):
    # pcf_infra traces several blocks of the streaming sink.
    path = os.path.join(SCENARIOS, "pcf_infra.txt")
    with open(path) as fh:
        text = fh.read()
    trace = tmp_path / "pcf.trace"
    assert cli_main(["run", path, "--trace", str(trace)]) == (0, "")
    lines = harness.run(parse_scenario(text), trace=True).trace_lines
    assert len(lines) > 3 * cli._TraceFile.BLOCK
    assert trace.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_cli_empty_trace_is_one_newline(tmp_path):
    path = tmp_path / "idle.txt"
    path.write_text("[sim]\nduration_us = 1000\n[nodes]\n0 = 0 0\n1 = 5 0\n")
    trace = tmp_path / "idle.trace"
    assert cli_main(["run", str(path), "--trace", str(trace)]) == (0, "")
    assert harness.run(parse_scenario(path.read_text()),
                       trace=True).trace_lines == []
    assert trace.read_bytes() == b"\n"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_non_utf8_scenario_exit_2_naming_its_line(scenario_file, command):
    good = scenario_file.read_bytes()
    scenario_file.write_bytes(b"\xff\xfe" + good)
    assert cli_main([command, str(scenario_file)]) == (
        2, "%s: line 1: not UTF-8 text (byte 0xff)\n" % scenario_file)
    lines = good.split(b"\n")
    lines[4] += b" \xc3"  # a truncated two-byte sequence on line 5
    scenario_file.write_bytes(b"\n".join(lines))
    assert cli_main([command, str(scenario_file)]) == (
        2, "%s: line 5: not UTF-8 text (byte 0xc3)\n" % scenario_file)


def test_cli_drops_a_byte_order_mark(tmp_path):
    # Some editors start a UTF-8 file with one.
    with open(os.path.join(SCENARIOS, "single_cell.txt"), "rb") as fh:
        plain = fh.read().replace(b"duration_us = 10000000",
                                  b"duration_us = 500000")
    paths = {}
    for name, data in (("plain", plain), ("bom", b"\xef\xbb\xbf" + plain)):
        paths[name] = tmp_path / (name + ".txt")
        paths[name].write_bytes(data)
        assert cli_main(["validate", str(paths[name])]) == (0, "")
        assert cli_main(["run", str(paths[name]), "--out",
                         str(tmp_path / (name + ".csv"))]) == (0, "")
    csv = (tmp_path / "plain.csv").read_bytes()
    assert csv.startswith(CSV_HEADER.encode())
    assert (tmp_path / "bom.csv").read_bytes() == csv
    # Lines keep their numbers after the mark.
    lines = paths["bom"].read_bytes().split(b"\n")
    lines[4] += b" \xc3"
    paths["bom"].write_bytes(b"\n".join(lines))
    assert cli_main(["validate", str(paths["bom"])]) == (
        2, "%s: line 5: not UTF-8 text (byte 0xc3)\n" % paths["bom"])


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if the simulation starts."""
    def run_until(self, t_end):
        raise AssertionError("the run started")
    monkeypatch.setattr(engine.Simulator, "run_until", run_until)


@pytest.mark.parametrize("command, option", [
    (["run"], "--out"), (["run"], "--trace"),
    (["compare", "--variants=dcf"], "--out")],
    ids=["run-out", "run-trace", "compare-out"])
def test_cli_unwritable_output_exit_1_before_the_run(scenario_file, tmp_path,
                                                     no_run, command, option):
    bad = tmp_path / "missing" / "x.txt"
    code, err = cli_main(command + [str(scenario_file), option, str(bad)])
    assert code == 1
    assert err.startswith("error: %s: " % option) and err.count("\n") == 1
    assert str(bad) in err


def test_cli_output_check_leaves_no_file_and_truncates_none(scenario_file,
                                                            tmp_path):
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("kept\n")
    bad = tmp_path / "missing" / "t.txt"
    for out in (kept, new):
        assert cli_main(["run", str(scenario_file), "--out", str(out),
                         "--trace", str(bad)])[0] == 1
    assert kept.read_text() == "kept\n"
    assert not new.exists()


def test_cli_rejected_scenario_leaves_no_trace_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[sim]\nwat = 1\n")
    trace = tmp_path / "t.txt"
    assert cli_main(["run", str(bad), "--trace", str(trace)])[0] == 2
    assert not trace.exists()
