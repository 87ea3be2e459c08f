"""Scenario file parsing and validation.

Flat, sectioned, line-oriented format: `[section]` headers and `key = value`
lines; `#` starts a comment.  Sections: [sim], [nodes], [links], [mac],
[edcf], [pcf], [flows].  Unknown sections and keys are rejected with
line-numbered errors.  See the README for the full grammar.
"""

from dataclasses import dataclass, field

from . import phy

BACKLOGGED = "backlogged"
CBR = "cbr"

# How many packets a backlogged source keeps queued at its node.
BACKLOG_DEPTH = 2

_VARIANT_TOKENS = {"dcf", "arf", "rbar", "oar", "mild", "est", "dfs",
                   "plus", "dcfplus", "ica", "edcf", "pcf", "2way"}

_SIM_KEYS = {"seed", "duration_us", "metric_window_us", "genie_tiebreak",
             "capture_ratio", "control_fer"}
_LINK_KEYS = {"hear_range", "sense_range", "initial_quality", "dwell_us",
              "matrix", "base_fer_bad", "base_fer_low", "base_fer_mid",
              "base_fer_high"}
_MAC_KEYS = {"variant", "data_rate", "slot_us", "sifs_us", "cw_min", "cw_max",
             "retry_limit", "rts_threshold", "frag_threshold", "mild_factor",
             "est_window_us", "est_phi", "dfs_scaling", "dfs_compress",
             "dfs_random", "arf_timer_us", "oar_ref_bytes",
             "ica_cts_timeout_us"}
_MAC_NODE_KEYS = {"variant", "phi", "data_rate", "rts_threshold",
                  "frag_threshold", "est_phi"}
_PCF_KEYS = {"coordinator", "pollable", "superframe_us", "cfp_max_us",
             "cp_min_us"}
_FLOW_KEYS = {"start", "stop", "cat"}


class ScenarioError(Exception):
    """Parse or validation failure, message prefixed with the line number."""


@dataclass
class Flow:
    fid: int
    src: int
    dst: int
    kind: str  # BACKLOGGED or CBR
    packet_bytes: int
    rate_bps: int = 0  # CBR only
    start_us: int = 0
    stop_us: int = -1  # -1 = scenario duration
    category: int = 0


@dataclass
class Scenario:
    seed: int = 1
    duration_us: int = 1_000_000
    metric_window_us: int = 100_000
    genie_tiebreak: bool = False
    capture_ratio: float = 10.0
    control_fer: bool = False
    positions: dict = field(default_factory=dict)  # node id -> (x, y)
    hear_range: float = 100.0
    sense_range: float = -1.0  # -1 = same as hear_range
    initial_quality: int = phy.HIGH
    dwell_us: int = 0
    matrix: list = None
    base_fer: dict = field(default_factory=lambda: dict(phy.DEFAULT_BASE_FER))
    variant: str = "dcf"
    mac: dict = field(default_factory=dict)  # [mac] scalar knobs
    node_overrides: dict = field(default_factory=dict)  # node id -> {key: value}
    edcf_cats: list = field(default_factory=list)  # (aifs, pf, cw_min, cw_max)
    pcf: dict = None
    flows: list = field(default_factory=list)
    key_lines: dict = field(default_factory=dict)  # (section, key) -> line

    def stop_of(self, flow):
        return self.duration_us if flow.stop_us < 0 else flow.stop_us


def _err(lineno, msg):
    raise ScenarioError("line %d: %s" % (lineno, msg))


def _parse_bool(value, lineno):
    if value in ("0", "false", "no"):
        return False
    if value in ("1", "true", "yes"):
        return True
    _err(lineno, "expected boolean 0/1, got %r" % value)


def _parse_num(value, lineno, kind=float):
    try:
        return kind(value)
    except ValueError:
        _err(lineno, "expected %s, got %r" % (kind.__name__, value))


def _parse_rate(value, lineno):
    r = _parse_num(value, lineno, float)
    if r not in phy.RATES:
        _err(lineno, "rate must be one of %s" % (phy.RATES,))
    return int(r) if r in (1, 2, 11) else r


def parse_scenario(text):
    s = Scenario()
    section = None
    seen_pcf = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("sim", "nodes", "links", "mac", "edcf", "pcf",
                               "flows"):
                _err(lineno, "unknown section [%s]" % section)
            if section == "pcf":
                s.pcf = seen_pcf
            continue
        if section is None:
            _err(lineno, "content before any [section] header")
        if "=" not in line:
            _err(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        s.key_lines[(section, key)] = lineno
        if section == "sim":
            _parse_sim(s, key, value, lineno)
        elif section == "nodes":
            _parse_node(s, key, value, lineno)
        elif section == "links":
            _parse_link(s, key, value, lineno)
        elif section == "mac":
            _parse_mac(s, key, value, lineno)
        elif section == "edcf":
            _parse_edcf(s, key, value, lineno)
        elif section == "pcf":
            _parse_pcf(seen_pcf, key, value, lineno)
        elif section == "flows":
            _parse_flow(s, key, value, lineno)
    _validate(s)
    return s


def _parse_sim(s, key, value, lineno):
    if key not in _SIM_KEYS:
        _err(lineno, "unknown [sim] key %r" % key)
    if key == "seed":
        s.seed = _parse_num(value, lineno, int)
    elif key == "duration_us":
        s.duration_us = _parse_num(value, lineno, int)
    elif key == "metric_window_us":
        s.metric_window_us = _parse_num(value, lineno, int)
    elif key == "genie_tiebreak":
        s.genie_tiebreak = _parse_bool(value, lineno)
    elif key == "capture_ratio":
        s.capture_ratio = _parse_num(value, lineno, float)
    elif key == "control_fer":
        s.control_fer = _parse_bool(value, lineno)


def _parse_node(s, key, value, lineno):
    nid = _parse_num(key, lineno, int)
    if nid in s.positions:
        _err(lineno, "duplicate node id %d" % nid)
    parts = value.split()
    if len(parts) != 2:
        _err(lineno, "node line needs 'id = x y'")
    s.positions[nid] = (_parse_num(parts[0], lineno, float),
                        _parse_num(parts[1], lineno, float))


def _parse_link(s, key, value, lineno):
    if key not in _LINK_KEYS:
        _err(lineno, "unknown [links] key %r" % key)
    if key == "hear_range":
        s.hear_range = _parse_num(value, lineno, float)
    elif key == "sense_range":
        s.sense_range = _parse_num(value, lineno, float)
    elif key == "initial_quality":
        if value not in phy.QUALITY_BY_NAME:
            _err(lineno, "quality must be one of %s" % (phy.QUALITY_NAMES,))
        s.initial_quality = phy.QUALITY_BY_NAME[value]
    elif key == "dwell_us":
        s.dwell_us = _parse_num(value, lineno, int)
    elif key == "matrix":
        vals = [_parse_num(v, lineno, float) for v in value.split()]
        if len(vals) != 16:
            _err(lineno, "matrix needs 16 probabilities (4x4, row-major)")
        s.matrix = [vals[i * 4:(i + 1) * 4] for i in range(4)]
        try:
            phy.validate_matrix(s.matrix)
        except ValueError as e:
            _err(lineno, str(e))
    else:  # base_fer_*
        q = phy.QUALITY_BY_NAME[key.rsplit("_", 1)[1].upper()]
        s.base_fer[q] = _parse_num(value, lineno, float)


def _parse_mac(s, key, value, lineno):
    if key.startswith("node."):
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in _MAC_NODE_KEYS:
            _err(lineno, "unknown per-node [mac] key %r" % key)
        nid = _parse_num(parts[1], lineno, int)
        ov = s.node_overrides.setdefault(nid, {})
        if parts[2] == "variant":
            ov["variant"] = _check_variant(value, lineno)
        elif parts[2] in ("phi", "est_phi"):
            ov[parts[2]] = _parse_num(value, lineno, float)
        elif parts[2] == "data_rate":
            ov["data_rate"] = _parse_rate(value, lineno)
        else:
            ov[parts[2]] = _parse_num(value, lineno, int)
        return
    if key not in _MAC_KEYS:
        _err(lineno, "unknown [mac] key %r" % key)
    if key == "variant":
        s.variant = _check_variant(value, lineno)
    elif key == "data_rate":
        s.mac["data_rate"] = _parse_rate(value, lineno)
    elif key in ("mild_factor", "est_phi", "dfs_scaling"):
        s.mac[key] = _parse_num(value, lineno, float)
    elif key == "dfs_random":
        s.mac[key] = _parse_bool(value, lineno)
    else:
        s.mac[key] = _parse_num(value, lineno, int)


def _check_variant(value, lineno):
    for tok in value.split("+"):
        if tok not in _VARIANT_TOKENS:
            _err(lineno, "unknown variant token %r" % tok)
    return value


def _parse_edcf(s, key, value, lineno):
    if not key.startswith("cat"):
        _err(lineno, "unknown [edcf] key %r" % key)
    idx = _parse_num(key[3:], lineno, int)
    if idx != len(s.edcf_cats):
        _err(lineno, "categories must be cat0, cat1, ... in order")
    parts = value.split()
    if len(parts) != 4:
        _err(lineno, "category needs 'aifs_us pf cw_min cw_max'")
    cat = (_parse_num(parts[0], lineno, int),
           _parse_num(parts[1], lineno, float),
           _parse_num(parts[2], lineno, int),
           _parse_num(parts[3], lineno, int))
    if min(cat[2:]) < 1:
        _err(lineno, "category cw_min and cw_max must be >= 1")
    s.edcf_cats.append(cat)


def _parse_pcf(pcf, key, value, lineno):
    if key not in _PCF_KEYS:
        _err(lineno, "unknown [pcf] key %r" % key)
    if key == "pollable":
        pcf["pollable"] = [_parse_num(v, lineno, int) for v in value.split()]
        if not pcf["pollable"]:
            _err(lineno, "pollable needs at least one node id")
    else:
        pcf[key] = _parse_num(value, lineno, int)


def _parse_flow(s, key, value, lineno):
    fid = _parse_num(key, lineno, int)
    if any(f.fid == fid for f in s.flows):
        _err(lineno, "duplicate flow id %d" % fid)
    tokens = value.split()
    extras = {}
    while tokens and "=" in tokens[-1]:
        k, _, v = tokens.pop().partition("=")
        if k not in _FLOW_KEYS:
            _err(lineno, "unknown flow option %r" % k)
        extras[k] = _parse_num(v, lineno, int)
    if len(tokens) < 4:
        _err(lineno, "flow needs 'src dst kind bytes [rate_bps]'")
    src = _parse_num(tokens[0], lineno, int)
    dst = _parse_num(tokens[1], lineno, int)
    kind = tokens[2]
    size = _parse_num(tokens[3], lineno, int)
    if kind == BACKLOGGED:
        if len(tokens) != 4:
            _err(lineno, "backlogged flow takes exactly 'src dst backlogged bytes'")
        flow = Flow(fid, src, dst, BACKLOGGED, size)
    elif kind == CBR:
        if len(tokens) != 5:
            _err(lineno, "cbr flow needs 'src dst cbr bytes rate_bps'")
        flow = Flow(fid, src, dst, CBR, size,
                    rate_bps=_parse_num(tokens[4], lineno, int))
    else:
        _err(lineno, "flow kind must be backlogged or cbr, got %r" % kind)
    flow.start_us = extras.get("start", 0)
    flow.stop_us = extras.get("stop", -1)
    flow.category = extras.get("cat", 0)
    s.flows.append(flow)


def _validate(s):
    if s.duration_us <= 0:
        _err(s.key_lines[("sim", "duration_us")], "duration_us must be positive")
    if s.metric_window_us <= 0:
        _err(s.key_lines[("sim", "metric_window_us")],
             "metric_window_us must be positive")
    for key in ("cw_min", "cw_max"):
        if s.mac.get(key, 1) < 1:
            _err(s.key_lines[("mac", key)], "%s must be >= 1" % key)
    if not s.positions:
        raise ScenarioError("no nodes defined")
    if s.sense_range < 0:
        s.sense_range = s.hear_range
    for f in s.flows:
        for nid in (f.src, f.dst):
            if nid not in s.positions:
                raise ScenarioError(
                    "flow %d references unknown node %d" % (f.fid, nid))
        if f.src == f.dst:
            raise ScenarioError("flow %d has src == dst" % f.fid)
        if f.packet_bytes <= 0:
            raise ScenarioError("flow %d has non-positive packet size" % f.fid)
        if f.kind == CBR and f.rate_bps <= 0:
            raise ScenarioError("flow %d has non-positive cbr rate" % f.fid)
        if f.category and f.category >= max(1, len(s.edcf_cats)):
            raise ScenarioError(
                "flow %d uses undefined category %d" % (f.fid, f.category))
    if s.pcf is not None:
        for k in ("coordinator", "pollable", "superframe_us", "cfp_max_us",
                  "cp_min_us"):
            if k not in s.pcf:
                raise ScenarioError("[pcf] missing key %r" % k)
        for nid in [s.pcf["coordinator"], *s.pcf["pollable"]]:
            if nid not in s.positions:
                raise ScenarioError("[pcf] references unknown node %d" % nid)
        if s.pcf["cfp_max_us"] + s.pcf["cp_min_us"] > s.pcf["superframe_us"]:
            _err(s.key_lines[("pcf", "cp_min_us")],
                 "cfp_max_us %d + cp_min_us %d exceeds superframe_us %d"
                 % (s.pcf["cfp_max_us"], s.pcf["cp_min_us"],
                    s.pcf["superframe_us"]))


def variant_flags(variant):
    """Decompose a variant string into MacNode keyword settings."""
    flags = {"rate_policy": "fixed", "cw_policy": "beb", "dcfplus": False,
             "ica": False, "edcf": False, "pcf": False, "two_way": False}
    for tok in variant.split("+"):
        if tok == "dcf":
            continue
        elif tok in ("arf", "rbar", "oar"):
            flags["rate_policy"] = tok
        elif tok in ("mild", "est", "dfs"):
            flags["cw_policy"] = tok
        elif tok in ("plus", "dcfplus"):
            flags["dcfplus"] = True
        elif tok == "ica":
            flags["ica"] = True
        elif tok == "edcf":
            flags["edcf"] = True
        elif tok == "pcf":
            flags["pcf"] = True
        elif tok == "2way":
            flags["two_way"] = True
        else:
            raise ScenarioError("unknown variant token %r" % tok)
    return flags
