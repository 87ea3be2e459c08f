"""Scenario text parsing and validation."""

import ast
import glob
import os
import re

import pytest
from conftest import SCENARIOS, cli_main
from hypothesis import given, settings, strategies as st

import macsim
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


@pytest.mark.parametrize("text,message", [
    ("[links]\nhear_range = 50\nhear_range = 0.5\n",
     "line 3: duplicate key 'hear_range' in [links] (first set on line 2)"),
    ("[sim]\nseed = 1\n[nodes]\n0 = 0 0\n[sim]\nseed = 2\n",
     "line 6: duplicate key 'seed' in [sim] (first set on line 2)"),
    ("[mac]\nnode.1.phi = 2\nrts_threshold = 0\nnode.1.phi = 3\n",
     "line 4: duplicate key 'node.1.phi' in [mac] (first set on line 2)"),
    ("[mac]\nnode.1.phi = 2\nnode.01.phi = 3\n",
     "line 3: duplicate key 'node.01.phi' in [mac] (first set on line 2)"),
    ("[pcf]\ncfp_max_us = 5\n[pcf]\ncfp_max_us = 6\n",
     "line 4: duplicate key 'cfp_max_us' in [pcf] (first set on line 2)"),
])
def test_duplicate_key_rejected_naming_both_lines(text, message):
    _expect_error(text, message)


def test_duplicate_flow_keeps_its_own_message():
    _expect_error(MINIMAL + "1 = 0 1 backlogged 100\n",
                  "line 8: duplicate flow id 1")


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
    # Neither the plain key nor another node's override repeats a key.
    s = parse_scenario(MINIMAL + "[mac]\nnode.1.phi = 0.75\n"
                       "node.1.variant = dcf+dfs\nvariant = dcf+arf\n"
                       "node.0.phi = 2\n")
    assert s.node_overrides[1]["phi"] == 0.75
    assert s.node_overrides[1]["variant"] == "dcf+dfs"
    assert s.variant == "dcf+arf" and s.node_overrides[0]["phi"] == 2


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


@pytest.mark.parametrize("pollable,message", [
    # The coordinator would poll itself and wait out a PIFS every CFP.
    ("0 1 2", "pollable names the coordinator"),
    ("1 2 1", "pollable names a node twice")])
def test_pcf_pollable_must_name_other_nodes_once(pollable, message):
    text, line = _pcf_infra("pollable = 1 2", "pollable = " + pollable)
    _expect_error(text, "line %d: %s" % (line, message))


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


# -- Out-of-range values, through the command line ---------------------------

# (line of single_cell.txt, what replaces it, message).  The last line of the
# replacement is the one the message must name.
_REJECTED = [
    ("rts_threshold = 500", "frag_threshold = 0", "frag_threshold must be >= 1"),
    ("rts_threshold = 500", "node.1.frag_threshold = 0",
     "frag_threshold must be >= 1"),
    ("rts_threshold = 500", "node.1.phi = 0", "phi must be positive"),
    ("rts_threshold = 500", "sifs_us = -5", "sifs_us must be >= 1"),
    ("base_fer_high = 0", "base_fer_high = 2", "base_fer_high must be in [0, 1]"),
    ("rts_threshold = 500", "mild_factor = 0", "mild_factor must be >= 1"),
    ("rts_threshold = 500", "est_phi = 0", "est_phi must be in (0, 1)"),
    ("rts_threshold = 500", "node.1.est_phi = -1", "est_phi must be in (0, 1)"),
    ("rts_threshold = 500", "dfs_scaling = 0", "dfs_scaling must be positive"),
    ("rts_threshold = 500", "dfs_compress = 0", "dfs_compress must be >= 1"),
    ("rts_threshold = 500", "ica_cts_timeout_us = -1",
     "ica_cts_timeout_us must be >= 1"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged 1500 start=-5",
     "start must be >= 0"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged 99999999999999999999",
     "bytes must be in [1, 2304], the 802.11 MSDU limit"),
    ("hear_range = 50", "hear_range = 50\nsense_range = 10",
     "sense_range 10 below hear_range 50"),
    ("rts_threshold = 500", "slot_us = 0", "slot_us must be >= 1"),
    ("rts_threshold = 500", "retry_limit = -1", "retry_limit must be >= 0"),
    ("rts_threshold = 500", "cw_min = 300\ncw_max = 256",
     "cw_min 300 above cw_max 256"),
    ("seed = 1", "capture_ratio = nan", "expected a finite float, got 'nan'"),
    ("seed = 1", "capture_ratio = -1", "capture_ratio must be > 1"),
    ("seed = 1", "capture_ratio = 1", "capture_ratio must be > 1, or an exact "
     "power tie would let one radio receive two overlapping frames"),
    ("hear_range = 50", "hear_range = inf", "expected a finite float, got 'inf'"),
    ("hear_range = 50", "hear_range = -5", "hear_range must be >= 0"),
    ("hear_range = 50", "dwell_us = -1", "dwell_us must be >= 0"),
    # The last value used to win: at 0.5 m every packet was lost, exit 0.
    ("base_fer_high = 0", "base_fer_high = 0\nhear_range = 0.5",
     "duplicate key 'hear_range' in [links] (first set on line 15)"),
    ("duration_us = 10000000", "duration_us = 10000000\n[sim]\nseed = 2",
     "duplicate key 'seed' in [sim] (first set on line 3)"),
    ("rts_threshold = 500", "variant = dcf+arf+rbar",
     "variant 'dcf+arf+rbar': two tokens set rate_policy"),
    ("rts_threshold = 500", "variant = dcf+mild+est",
     "variant 'dcf+mild+est': two tokens set cw_policy"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged 1500 start=5 stop=2",
     "flow 1 stop 2 not after start 5"),
    ("rts_threshold = 500", "node.9.phi = 2", "references unknown node 9"),
    ("[flows]\n1 = 1 0 backlogged 1500",
     "[edcf]\ncat0 = 50 2 16 256\ncat1 = 70 2 16 256\n"
     "[flows]\n1 = 1 0 backlogged 1500 cat=1",
     "flow 1 uses category 1, but node 1 does not run edcf"),
    # "cat00" used to parse as category 0 but left no "cat0" line to name.
    ("5 = 5 0 backlogged 1500",
     "5 = 5 0 backlogged 1500\n[edcf]\ncat00 = 50 2 16 256",
     "categories must be cat0, cat1, ... in order"),
    # The first of two start options used to win: the flow started at 100.
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged 1500 start=100 start=200",
     "duplicate flow option 'start'"),
    # Node and flow lines convert their fields directly; each bad field
    # still gets its own message.
    ("0 = 0 0", "0 = nan 0", "expected a finite float, got 'nan'"),
    ("0 = 0 0", "0 = 0 -inf", "expected a finite float, got '-inf'"),
    ("0 = 0 0", "0 = 0 0 0", "node line needs 'id = x y'"),
    ("0 = 0 0", "zero = 0 0", "expected int, got 'zero'"),
    ("1 = 1 0 backlogged 1500", "one = 1 0 backlogged 1500",
     "expected int, got 'one'"),
    ("1 = 1 0 backlogged 1500", "1 = 1 nil backlogged 1500",
     "expected int, got 'nil'"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged 15x",
     "expected int, got '15x'"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged",
     "flow needs 'src dst kind bytes [rate_bps]'"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 bursty 1500",
     "flow kind must be backlogged or cbr, got 'bursty'"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 backlogged 1500 9",
     "backlogged flow needs 'src dst backlogged bytes'"),
    ("1 = 1 0 backlogged 1500", "1 = 1 0 cbr 1500 0", "rate_bps must be >= 1"),
    ("seed = 1", "genie_tiebreak = maybe",
     "expected boolean 0/1, got 'maybe'"),
    ("5 = 5 0 backlogged 1500",
     "5 = 5 0 backlogged 1500\n[edcf]\ncat0 = 50 2 16",
     "category needs 'aifs_us pf cw_min cw_max'"),
    ("5 = 5 0 backlogged 1500",
     "5 = 5 0 backlogged 1500\n[edcf]\ncat0 = 50 2 300 256",
     "category cw_min 300 above cw_max 256"),
    # A virtual-collision loser's window grows by pf, so pf >= 1 keeps
    # every EDCF window at or above its cw_min, which is >= 1.
    ("5 = 5 0 backlogged 1500",
     "5 = 5 0 backlogged 1500\n[edcf]\ncat0 = 50 0.5 16 256",
     "category pf must be >= 1"),
    # The AIFS floor is DIFS under the node's MAC parameters, so
    # harness.build rejects it; `validate` builds too.
    ("rts_threshold = 500",
     "variant = dcf+edcf\n[edcf]\ncat0 = 50 2 16 256\ncat1 = 30 2 16 256",
     "category 1 AIFS 30 below DIFS 50"),
    ("hear_range = 50",
     "hear_range = 50\nmatrix = -0.5 1.5 0 0 0 1 0 0 0 0 1 0 0 0 0 1",
     "negative probability in row 0"),
]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("old,new,message", _REJECTED,
                         ids=[new.split("\n")[-1] for _, new, _ in _REJECTED])
def test_out_of_range_value_exits_2_naming_its_line(tmp_path, command, old,
                                                    new, message):
    with open(os.path.join(SCENARIOS, "single_cell.txt")) as fh:
        text = fh.read()
    assert old in text
    text = text.replace(old, new)
    line = text.split("\n").index(new.split("\n")[-1]) + 1
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, err = cli_main([command, str(path)])
    assert code == 2
    assert "line %d: %s" % (line, message) in err


# Tokens a one-field edit may write: numbers at and past every bound, words,
# variants, flow options and section headers.  No integer token exceeds
# 100 ms, so an edited duration_us keeps the run short.
_EDIT_TOKENS = ["0", "1", "-1", "2", "300", "1500", "0.5", "1.5", "1e9", "nan",
                "inf", "1e308", "1e-320", "x", "", "=", "#", "HIGH", "BAD",
                "dcf+arf+rbar", "dcf+oar+mild", "dcf+ica+2way", "dcf+edcf",
                "dcf+pcf", "dcf+dfs", "dcf+est+plus", "cbr", "backlogged",
                "start=5", "stop=2", "cat=1", "node.9.phi", "node.1.phi",
                "[sim]", "[edcf]", "[pcf]", "[bogus]"]
_SHIPPED = sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".txt"))


@st.composite
def _edited_scenarios(draw):
    """A shipped scenario cut to at most 100 ms, with one line, or one
    whitespace-separated field of a line, replaced by a token."""
    with open(os.path.join(SCENARIOS, draw(st.sampled_from(_SHIPPED)))) as fh:
        text = re.sub(r"duration_us = (\d+)",
                      lambda m: "duration_us = %d" % min(int(m[1]), 100_000),
                      fh.read())
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    token = draw(st.sampled_from(_EDIT_TOKENS))
    fields = lines[i].split()
    if fields and draw(st.booleans()):
        fields[draw(st.integers(0, len(fields) - 1))] = token
        lines[i] = " ".join(fields)
    else:
        lines[i] = token
    return "\n".join(lines)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_edited_scenarios())
def test_edited_scenario_is_run_or_rejected_never_crashes(tmp_path_factory,
                                                          text):
    path = tmp_path_factory.getbasetemp() / "edited.txt"
    path.write_text(text)
    validated, _ = cli_main(["validate", str(path)])
    ran, _ = cli_main(["run", str(path)])
    assert validated in (0, 2)
    assert ran == validated


# Byte-level damage to a shipped scenario: flipped bits, bytes that are not
# UTF-8 (a lone continuation byte, a truncated sequence, an overlong form, a
# surrogate, 0xff), a cut, and a NUL.
_NOT_UTF8 = [b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80",
             b"\xff"]


@st.composite
def _damaged_scenarios(draw):
    """A shipped scenario's bytes, damaged one to three times."""
    with open(os.path.join(SCENARIOS, draw(st.sampled_from(_SHIPPED))),
              "rb") as fh:
        data = bytearray(fh.read())
    for kind in draw(st.lists(st.sampled_from(["flip", "utf8", "cut", "nul"]),
                              min_size=1, max_size=3)):
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and data:
            data[min(at, len(data) - 1)] ^= 1 << draw(st.integers(0, 7))
        elif kind == "utf8":
            data[at:at] = draw(st.sampled_from(_NOT_UTF8))
        elif kind == "cut":
            del data[at:]
        elif kind == "nul":
            data[at:at] = b"\x00"
    return bytes(data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_damaged_scenarios())
def test_damaged_scenario_bytes_validate_or_exit_2(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged.txt"
    path.write_bytes(data)
    code, err = cli_main(["validate", str(path)])
    assert code in (0, 2), err


# -- Where input conditions are checked ---------------------------------------

def _raises(tree):
    """Each `raise` in `tree`, with the name of its innermost function."""
    todo = [(tree, None)]
    while todo:
        node, func = todo.pop()
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Raise):
            yield node, func
        todo.extend((child, func) for child in ast.iter_child_nodes(node))


def test_only_the_boundary_raises():
    # parse_scenario (or harness.build) rejects every bad input, naming its
    # line, so a helper the model calls takes what its callers guarantee.
    # Inside the model only phy.validate_matrix, which only the parser
    # calls, and the engine's clock guard raise.
    found = []
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(macsim.__file__), "*.py"))):
        name = os.path.basename(path)
        if name == "scenario.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node, func in sorted(_raises(tree), key=lambda r: r[0].lineno):
            if name == "phy.py" and func == "validate_matrix":
                continue
            if (name == "engine.py" and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "SchedulingError"):
                continue
            found.append("%s:%d in %s" % (name, node.lineno, func))
    assert not found, "\n".join(found)
