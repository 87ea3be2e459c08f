"""Scenario text parsing and validation."""

import os

import pytest
from conftest import SCENARIOS

from macsim import harness
from macsim.scenario import (BACKLOGGED, CBR, ScenarioError, parse_scenario,
                             variant_flags)

MINIMAL = """\
[sim]
duration_us = 1000
[nodes]
0 = 0 0
1 = 5 0
[flows]
1 = 1 0 backlogged 1500
"""


def test_minimal_scenario_parses():
    s = parse_scenario(MINIMAL)
    assert s.duration_us == 1000
    assert set(s.positions) == {0, 1}
    assert len(s.flows) == 1
    f = s.flows[0]
    assert (f.src, f.dst, f.kind, f.packet_bytes) == (1, 0, BACKLOGGED, 1500)


def test_comments_and_blank_lines_ignored():
    s = parse_scenario("# header\n\n" + MINIMAL + "# trailing\n")
    assert len(s.flows) == 1


def _expect_error(text, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def test_unknown_section_reports_line():
    _expect_error("[sim]\nduration_us = 1\n[bogus]\n", "line 3")


def test_unknown_key_reports_line():
    _expect_error("[sim]\nwat = 1\n", "line 2")


def test_content_before_section_rejected():
    _expect_error("duration_us = 5\n", "line 1")


def test_duplicate_node_rejected():
    _expect_error("[nodes]\n0 = 0 0\n0 = 1 1\n", "duplicate node id 0")


def test_flow_with_unknown_node_named():
    _expect_error(MINIMAL + "2 = 1 9 backlogged 100\n", "unknown node 9")


def test_flow_src_equals_dst_rejected():
    _expect_error(MINIMAL + "2 = 1 1 backlogged 100\n", "src == dst")


def test_cbr_flow_parses_with_rate():
    s = parse_scenario(MINIMAL + "2 = 0 1 cbr 500 1000000\n")
    f = s.flows[1]
    assert f.kind == CBR and f.rate_bps == 1000000


def test_cbr_flow_requires_rate():
    _expect_error(MINIMAL + "2 = 0 1 cbr 500\n", "cbr flow needs")


def test_flow_extras_start_stop_cat():
    s = parse_scenario(MINIMAL.replace(
        "1 = 1 0 backlogged 1500",
        "1 = 1 0 backlogged 1500 start=100 stop=900"))
    f = s.flows[0]
    assert f.start_us == 100 and f.stop_us == 900


def test_flow_unknown_extra_rejected():
    _expect_error(MINIMAL.replace("backlogged 1500",
                                  "backlogged 1500 jitter=5"),
                  "unknown flow option")


def test_bad_rate_rejected():
    _expect_error(MINIMAL + "[mac]\ndata_rate = 3\n", "rate must be one of")


def test_unknown_variant_token_rejected():
    _expect_error(MINIMAL + "[mac]\nvariant = dcf+warp\n", "'warp'")


def test_per_node_overrides():
    s = parse_scenario(MINIMAL + "[mac]\nnode.1.phi = 0.75\n"
                       "node.1.variant = dcf+dfs\n")
    assert s.node_overrides[1]["phi"] == 0.75
    assert s.node_overrides[1]["variant"] == "dcf+dfs"


def test_matrix_needs_sixteen_entries():
    _expect_error(MINIMAL + "[links]\nmatrix = 0.5 0.5\n", "16")


def test_matrix_rows_must_be_stochastic():
    bad = " ".join(["0.5 0.5 0.5 0"] + ["0 0 0 1"] * 3)
    _expect_error(MINIMAL + "[links]\nmatrix = %s\n" % bad, "sum to 1")


def test_pcf_section_requires_all_keys():
    _expect_error(MINIMAL + "[pcf]\ncoordinator = 0\n", "missing key")


def test_pcf_unknown_pollable_rejected():
    _expect_error(MINIMAL + "[pcf]\ncoordinator = 0\npollable = 1 7\n"
                  "superframe_us = 50000\ncfp_max_us = 30000\n"
                  "cp_min_us = 15000\n", "unknown node 7")


def test_edcf_categories_must_be_sequential():
    _expect_error(MINIMAL + "[edcf]\ncat1 = 50 2.0 16 256\n", "cat0")


def test_flow_undefined_category_rejected():
    _expect_error(MINIMAL.replace("backlogged 1500", "backlogged 1500 cat=2"),
                  "undefined category")


def test_duration_must_be_positive():
    _expect_error(MINIMAL.replace("duration_us = 1000", "duration_us = 0"),
                  "duration_us")


def test_duration_error_names_its_line():
    _expect_error(MINIMAL.replace("duration_us = 1000", "duration_us = 0"),
                  "line 2")


@pytest.mark.parametrize("window", ["0", "-5"])
def test_metric_window_must_be_positive(window):
    text = MINIMAL.replace("[nodes]", "metric_window_us = %s\n[nodes]" % window)
    _expect_error(text, "line 3: metric_window_us must be positive")


def _pcf_infra(old, new):
    """scenarios/pcf_infra.txt with one line replaced, and that line's number."""
    with open(os.path.join(SCENARIOS, "pcf_infra.txt")) as fh:
        lines = fh.read().split("\n")
    i = lines.index(old)
    lines[i] = new
    return "\n".join(lines), i + 1


def test_pcf_pollable_must_be_integers():
    text, line = _pcf_infra("pollable = 1 2", "pollable = 1 x")
    _expect_error(text, "line %d: expected int, got 'x'" % line)


def test_pcf_pollable_must_name_a_node():
    text, line = _pcf_infra("pollable = 1 2", "pollable =")
    _expect_error(text, "line %d: pollable needs at least one node id" % line)


def test_pcf_periods_must_fit_the_superframe():
    text, line = _pcf_infra("cp_min_us = 20000", "cp_min_us = 40000")
    _expect_error(text, "line %d: cfp_max_us 30000 + cp_min_us 40000 exceeds "
                  "superframe_us 60000" % line)


def test_pcf_contention_period_below_floor_names_its_line():
    # The floor comes from the coordinator's MAC parameters, so the scenario
    # parses and harness.build rejects it.
    text, line = _pcf_infra("cp_min_us = 20000", "cp_min_us = 100")
    s = parse_scenario(text)
    with pytest.raises(ScenarioError) as exc:
        harness.build(s)
    assert str(exc.value) == ("line %d: cp_min_us 100 below the 7423 us "
                              "needed for one full exchange" % line)


@pytest.mark.parametrize("key", ["cw_min", "cw_max"])
def test_contention_window_bounds_must_be_positive(key):
    _expect_error(MINIMAL + "[mac]\n%s = 0\n" % key,
                  "line 9: %s must be >= 1" % key)


@pytest.mark.parametrize("cat", ["50 2 0 8", "50 2 4 0"])
def test_edcf_contention_window_bounds_must_be_positive(cat):
    _expect_error(MINIMAL + "[edcf]\ncat0 = %s\n" % cat,
                  "line 9: category cw_min and cw_max must be >= 1")


def test_sense_range_defaults_to_hear_range():
    s = parse_scenario(MINIMAL + "[links]\nhear_range = 25\n")
    assert s.sense_range == 25


def test_variant_flags_decomposition():
    flags = variant_flags("dcf+oar+mild+ica+2way")
    assert flags["rate_policy"] == "oar"
    assert flags["cw_policy"] == "mild"
    assert flags["ica"] and flags["two_way"]
    assert not flags["dcfplus"] and not flags["edcf"] and not flags["pcf"]
    plain = variant_flags("dcf")
    assert plain["rate_policy"] == "fixed" and plain["cw_policy"] == "beb"
