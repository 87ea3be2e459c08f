"""Golden digests: the sha256 of each run's CSV and trace output.

Criterion 13 only checks that two runs in one process agree; these digests
catch a refactor that changes behaviour deterministically.  Each case runs a
shipped scenario, with a shortened duration and optionally another variant,
the way `macsim run --trace` would, and compares the digests of its CSV and
trace files with the pinned ones.

A change that moves a digest on purpose re-pins it here and says why in
CHANGES.md.
"""

import hashlib
import os

import pytest
from conftest import SCENARIOS, ica_frag, jittered_grid, shipped, single_cell

from macsim import harness, metrics
from macsim.scenario import parse_scenario

# (scenario, variant override or None, duration_us) -> (csv, trace) sha256.
# "grid" is conftest.jittered_grid(5, seed=7): the only case whose sense
# range is wider than its hear range.  "dense" is conftest.single_cell with
# 30 backlogged senders and RTS/CTS: up to 6-way overlaps and hundreds of
# captured receptions, so it pins the medium's collision resolution.
# "edcf" is a six-sender cell where every sender runs two EDCF categories,
# each with its own access timer: it pins the freezing and resuming of
# several backoffs per node, and virtual collisions between them.  The
# mild and est cases pin the two backoff schemes no shipped scenario runs;
# oar+est is the only one whose estimator snoops CTS frames that carry a
# receiver-selected rate.  "plus" is a DCF+ cell with reverse traffic and
# lossy control frames, where all three reverse-grant timeouts fire;
# "2way_frag" fragments 1400-byte packets both ways; "ica_frag" is
# ica_string with a slow primary sender and a fragmenting exposed node, so
# each exposed window is long enough for several fragments but sends one,
# capped at the fragment threshold.  A "_genie" suffix runs a case with
# genie_tiebreak on; in the edcf cell every node has two categories whose
# timers can tie with another node's.
GOLDEN = {
    ("single_cell", None, 2_000_000): (
        "3a54a7c2cc95f9466a57f9e8ba13259a21a3ce6dd122b9c7e80699c6cdf44e2c",
        "175af84fcc14b5f57b25f13928fbfed59502f329a8dc4cfdb025beac4f382c63"),
    ("pcf_infra", None, 2_000_000): (
        "f83847caac47faa5ef1dc94396e6194f5957e34a2a2707af44b526033c7ba3c6",
        "3349227f9552ac7fac9eb00ef8565d5a29f3805fd67975e8685c77aecf4c1eae"),
    ("dfs_weighted", None, 2_000_000): (
        "9e475511975a250c9e585ef2e63cdaab8bbc995aed21acbb8b952ec9d4fc0785",
        "1d6edacb67178790eeae0f9b11ab921a45e92e93d43eeb609ab6684396d15b49"),
    ("fading_rate", "dcf+arf", 2_000_000): (
        "8e3d1867c77221c1b1d0c80bd15aa13dea60f08dfdc82f1a2c80a8028aee9490",
        "585441f765e1ef267d1d6bf55032f4dda2fd2036295ea59466936fb70d97b8e2"),
    ("fading_rate", "dcf+rbar", 2_000_000): (
        "88e29cf29a5f1c5f727a12bc9b368326c7337abf44216537b7afc0b8c59c88cb",
        "db9c63d4eb826aa335740ead51100cd9fbc65b10056285e2756e61b9e45fae72"),
    ("fading_rate", "dcf+oar", 2_000_000): (
        "d5ad9b7277954956ae674f9007665e031bca50c89f94992b1621f710896309e7",
        "3058e3580e8b072cb7e368b9f3e1ddb243bc8325b2fa6a1664972a0b528c4c12"),
    ("ica_string", "dcf", 2_000_000): (
        "349d114314357dc9f0f8b43eeed4f8e63337201f4871e4ff9ec26ab8e6419cde",
        "f17433a20bdfc3f0e822b51d3129a2af57c58d853478f3c1cf66bb2649e531bc"),
    ("ica_string", "dcf+ica", 2_000_000): (
        "fdb2589fd070863b600a5359b067c9ec25a78d4a63c90ec47e9735ca92e59de6",
        "84fda70bab107909083abff0dbc29520130e6ed4faf49bcc740e6b3b9d284d22"),
    ("grid", None, 300_000): (
        "0940183edcf1679bc4cf9f887912fa031105124fbc31eb7c2f3ea4586013d919",
        "cc395753bccdf8c717d97de460264453873f6c1f11abbf7faba372eeaac51939"),
    ("dense", None, 100_000): (
        "2867c81646a14afdd8712745c0b5d1515d1ee3ca479e0c559351d9f0d26f5fd1",
        "7e4ec2a512f8d9bdcc3d7c51b5c4f124ba843b36ec2a01834722e129e4303759"),
    ("edcf", None, 300_000): (
        "6da890fd4615f45a931c09bc4945ccbce0418f165b2500a93440c7af3f7809eb",
        "19135777622f217a5b878dc605fe0a49f4ed48a0d609f64d98d938956a0db825"),
    ("single_cell", "dcf+mild", 2_000_000): (
        "6e41c3f90123276af5940669d15d7d27d51b8326a8bd05840d3145435108887e",
        "5883eb19c0c6594a7440c1f6907e8097911ed6fa9e9f8abef6997c910dc4f710"),
    ("single_cell", "dcf+est", 2_000_000): (
        "27f1bd40896b0b8d3be71eba65fa3f8bc525663570ee2124f8e952adc05955b7",
        "753fb318c17e6911c789cfaa9f9aea22929ffe8ccf4587362f3b7c55ac6acf1d"),
    ("fading_rate", "dcf+arf+mild", 2_000_000): (
        "e81100b901d89381c6bee77ca356c2affc050856269ea3e346538d135bbf729d",
        "02105aa4173a21a681b14d12a4f692c5a27a82cf8d29bfdabde944137568776d"),
    ("fading_rate", "dcf+oar+est", 2_000_000): (
        "4c909c85aad7acf61be85a0b672b7a01a70aa57fd11a5c2b1b005807a13712a4",
        "4d53395f7524f1de0a9dfe9bd7236a7581b82228edde8ef4b46f7f87b22c577c"),
    ("plus", None, 400_000): (
        "c13f31573bc1c9497df23aec22307fb8b0164c5aeda9adf448d75b86177a6101",
        "090db5b8efcbb0d229558543596d0f71caa15641926c1f8f41b356d6bc8cf3f5"),
    ("2way_frag", None, 300_000): (
        "0bdf513e90be0f3d9623453c694c343ca0a8c9f702b5e47ad57ef371c374c9bc",
        "7e362baaeba34d5e3d79d4a4b9d6b486a6de3850e3d672aa0603d30260f4f804"),
    ("ica_frag", "dcf+ica", 1_000_000): (
        "40d4d1ba65919440b86a750eebb53238ca98c564216172e99311ee02d66aa706",
        "3d3cd6c904d7d8d339ef280dceb9be1656964b07a6b4974bc2d051f10ae1107c"),
    ("dfs_weighted_genie", None, 2_000_000): (
        "515d79c8998174f960937b8485c466e7b8a1a3feb6eb802b96bb3ac4ae011595",
        "dea530166bb5c6e7632db5e2dcfb8b0fcde12a4ab4d6dd0ec76792e54552d680"),
    ("edcf_genie", None, 300_000): (
        "8230c06c5e2144e688cf9160ecc23a7769aa5f95d89b2dd0c43beff94c51dfe4",
        "a09c8e83474e0c2b6094de1e7f70ca890785f15fde58b87a963ef6523f63d8fa"),
}

# Generated cases: not files under scenarios/.
GENERATED = {"grid", "dense", "edcf", "plus", "2way_frag", "ica_frag",
             "dfs_weighted_genie", "edcf_genie"}


def _with_reverse_flows(text, n_senders, packet_bytes):
    """single_cell text plus a backlogged flow from node 0 to each sender."""
    return text + "".join("%d = 0 %d backlogged %d\n"
                          % (n_senders + i, i, packet_bytes)
                          for i in range(1, n_senders + 1))


def run_digests(name, variant, duration_us):
    """(csv sha256, trace sha256) of one run, as `macsim run --trace` writes."""
    genie = name.endswith("_genie")
    name = name.removesuffix("_genie")
    if name == "grid":
        s = parse_scenario(jittered_grid(5, 7, duration_us))
    elif name == "dense":
        s = parse_scenario(single_cell(30, 1200, seed=3, duration_us=duration_us,
                                       mac_lines=["rts_threshold = 500"]))
    elif name == "edcf":
        text = single_cell(6, 600, seed=5, duration_us=duration_us,
                           variant="dcf+edcf", mac_lines=["rts_threshold = 800"],
                           flow_kind="backlogged 600 cat=0")
        text += "".join("%d = %d 0 backlogged 900 cat=1\n" % (6 + i, i)
                        for i in range(1, 7))
        text += "[edcf]\ncat0 = 50 2.0 8 64\ncat1 = 70 2.0 16 256\n"
        s = parse_scenario(text)
    elif name == "plus":
        s = parse_scenario(_with_reverse_flows(single_cell(
            4, 1000, seed=1, duration_us=duration_us, variant="dcf+plus",
            mac_lines=["rts_threshold = 2000"], sim_lines=["control_fer = 1"],
            link_lines=["base_fer_high = 0.05"]), 4, 300))
    elif name == "2way_frag":
        s = parse_scenario(_with_reverse_flows(single_cell(
            4, 1400, seed=2, duration_us=duration_us, variant="dcf+2way",
            mac_lines=["frag_threshold = 500"]), 4, 1400))
    elif name == "ica_frag":
        s = ica_frag(duration_us, variant)
    else:
        s = shipped(name, duration_us, variant)
    s.genie_tiebreak = s.genie_tiebreak or genie
    result = harness.run(s, trace=True)
    csv = metrics.format_csv({s.variant: result.metrics})
    trace = "\n".join(result.trace_lines) + "\n"
    return (hashlib.sha256(csv.encode()).hexdigest(),
            hashlib.sha256(trace.encode()).hexdigest())


def test_every_shipped_scenario_is_pinned():
    shipped = {f[:-4] for f in os.listdir(SCENARIOS) if f.endswith(".txt")}
    assert shipped == {name for name, _, _ in GOLDEN} - GENERATED


@pytest.mark.parametrize("case", sorted(GOLDEN, key=str),
                         ids=lambda c: "%s-%s" % (c[0], c[1] or "default"))
def test_golden_digest(case):
    assert run_digests(*case) == GOLDEN[case]
