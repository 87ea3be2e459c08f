"""Scenario file parsing and validation.

Flat, sectioned, line-oriented format: `[section]` headers and `key = value`
lines; `#` starts a comment.  Sections: [sim], [nodes], [links], [mac],
[edcf], [pcf], [flows].  Unknown sections and keys and out-of-range values
are rejected with line-numbered errors.  See the README for the full grammar.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import dcf, frames, phy

BACKLOGGED = "backlogged"
CBR = "cbr"

# How many packets a backlogged source keeps queued at its node.
BACKLOG_DEPTH = 2


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
    # (section, key), ("node", id[, key]) or ("flows", id) -> line
    key_lines: dict = field(default_factory=dict)

    def stop_of(self, flow):
        return self.duration_us if flow.stop_us < 0 else flow.stop_us


def _err(lineno, msg):
    raise ScenarioError(msg if lineno is None
                        else "line %d: %s" % (lineno, msg))


# Value parsers: text -> value, or ValueError with the reason.

def _int(value):
    try:
        return int(value)
    except ValueError:
        raise ValueError("expected int, got %r" % value)


def _float(value):
    try:
        v = float(value)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError("expected a finite float, got %r" % value)
    return v


def _bool(value):
    if value in ("0", "false", "no"):
        return False
    if value in ("1", "true", "yes"):
        return True
    raise ValueError("expected boolean 0/1, got %r" % value)


def _rate(value):
    r = _float(value)
    if r not in phy.RATES:
        raise ValueError("rate must be one of %s" % (phy.RATES,))
    return int(r) if r in (1, 2, 11) else r


def _quality(value):
    if value not in phy.QUALITY_BY_NAME:
        raise ValueError("quality must be one of %s" % (phy.QUALITY_NAMES,))
    return phy.QUALITY_BY_NAME[value]


def _matrix(value):
    vals = [_float(v) for v in value.split()]
    if len(vals) != 16:
        raise ValueError("matrix needs 16 probabilities (4x4, row-major)")
    matrix = [vals[i * 4:(i + 1) * 4] for i in range(4)]
    phy.validate_matrix(matrix)
    return matrix


def _variant(value):
    variant_flags(value)
    return value


def _pollable(value):
    ids = [_int(v) for v in value.split()]
    if not ids:
        raise ValueError("pollable needs at least one node id")
    if len(set(ids)) < len(ids):
        raise ValueError("pollable names a node twice")
    return ids


# Bounds: (what the error says a value must be, test).
_GT0 = ("positive", lambda v: v > 0)
_GE0 = (">= 0", lambda v: v >= 0)
_GE1 = (">= 1", lambda v: v >= 1)
_PROB = ("in [0, 1]", lambda v: 0 <= v <= 1)
_OPEN_PROB = ("in (0, 1)", lambda v: 0 < v < 1)
_CAPTURE = ("> 1, or an exact power tie would let one radio receive two "
            "overlapping frames", lambda v: v > 1)
_MSDU = ("in [1, %d], the 802.11 MSDU limit" % frames.MAX_MSDU_BYTES,
         lambda v: 1 <= v <= frames.MAX_MSDU_BYTES)

# Where a key may appear: in its section, as a [mac] `node.N.key`, or both.
_PLAIN, _NODE, _BOTH = 1, 2, 3

_Row = namedtuple("_Row", "parse bound where", defaults=(None, _PLAIN))

# section -> key -> row.  The [flows] rows are the `key=value` options after
# a flow's positional fields.
_KEYS = {
    "sim": {"seed": _Row(_int), "duration_us": _Row(_int, _GT0),
            "metric_window_us": _Row(_int, _GT0),
            "genie_tiebreak": _Row(_bool), "control_fer": _Row(_bool),
            "capture_ratio": _Row(_float, _CAPTURE)},
    "links": {"hear_range": _Row(_float, _GE0),
              "sense_range": _Row(_float, _GE0),
              "initial_quality": _Row(_quality), "matrix": _Row(_matrix),
              "dwell_us": _Row(_int, _GE0),
              "base_fer_bad": _Row(_float, _PROB),
              "base_fer_low": _Row(_float, _PROB),
              "base_fer_mid": _Row(_float, _PROB),
              "base_fer_high": _Row(_float, _PROB)},
    "mac": {"variant": _Row(_variant, None, _BOTH),
            "phi": _Row(_float, _GT0, _NODE),
            "data_rate": _Row(_rate, None, _BOTH),
            "slot_us": _Row(_int, _GE1), "sifs_us": _Row(_int, _GE1),
            "cw_min": _Row(_int, _GE1), "cw_max": _Row(_int, _GE1),
            "retry_limit": _Row(_int, _GE0),
            "rts_threshold": _Row(_int, _GE0, _BOTH),
            "frag_threshold": _Row(_int, _GE1, _BOTH),
            "mild_factor": _Row(_float, _GE1),
            "est_window_us": _Row(_int, _GE1),
            "est_phi": _Row(_float, _OPEN_PROB, _BOTH),
            "dfs_scaling": _Row(_float, _GT0),
            "dfs_compress": _Row(_int, _GE1), "dfs_random": _Row(_bool),
            "arf_timer_us": _Row(_int, _GE1),
            "oar_ref_bytes": _Row(_int, _GE1),
            "ica_cts_timeout_us": _Row(_int, _GE1)},
    "pcf": {"coordinator": _Row(_int), "pollable": _Row(_pollable),
            "superframe_us": _Row(_int, _GT0),
            "cfp_max_us": _Row(_int, _GT0), "cp_min_us": _Row(_int, _GT0)},
    "flows": {"start": _Row(_int, _GE0), "stop": _Row(_int),
              "cat": _Row(_int, _GE0)},
}


def _value(row, key, value):
    """Parse `value` with `row`'s parser and check it against `row`'s bound."""
    v = row[0](value)
    if row[1] is not None and not row[1][1](v):
        raise ValueError("%s must be %s" % (key, row[1][0]))
    return v


def parse_scenario(text):
    s = Scenario()
    section = parse = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            parse = _POSITIONAL.get(section, _parse_key)
            if section not in _KEYS and section not in _POSITIONAL:
                _err(lineno, "unknown section [%s]" % section)
            if section == "pcf" and s.pcf is None:
                s.pcf = {}
                s.key_lines[("pcf", None)] = lineno
            continue
        if section is None:
            _err(lineno, "content before any [section] header")
        key, eq, value = line.partition("=")
        if not eq:
            _err(lineno, "expected 'key = value'")
        try:
            parse(s, section, key.strip(), value, lineno)
        except (ValueError, ScenarioError) as e:
            _err(lineno, str(e))
    _validate(s)
    return s


# Each line parser takes (scenario, section, key, value text, line number).

def _parse_key(s, section, key, value, lineno):
    first = s.key_lines.setdefault((section, key), lineno)
    if first != lineno:
        raise ValueError("duplicate key %r in [%s] (first set on line %d)"
                         % (key, section, first))
    value = value.strip()
    if section == "mac" and key.startswith("node."):
        return _parse_override(s, key, value, lineno)
    row = _KEYS[section].get(key)
    if row is None or not row.where & _PLAIN:
        raise ValueError("unknown [%s] key %r" % (section, key))
    v = _value(row, key, value)
    if section == "mac" and key != "variant":
        s.mac[key] = v
    elif section == "pcf":
        s.pcf[key] = v
    elif key.startswith("base_fer_"):
        s.base_fer[phy.QUALITY_BY_NAME[key.rsplit("_", 1)[1].upper()]] = v
    else:
        setattr(s, key, v)


def _parse_override(s, key, value, lineno):
    parts = key.split(".")
    row = _KEYS["mac"].get(parts[-1])
    if len(parts) != 3 or row is None or not row.where & _NODE:
        raise ValueError("unknown per-node [mac] key %r" % key)
    nid = _int(parts[1])
    s.key_lines.setdefault(("node", nid), lineno)
    # Another spelling of the node id names the same override.
    first = s.key_lines.setdefault(("node", nid, parts[2]), lineno)
    if first != lineno:
        raise ValueError("duplicate key %r in [mac] (first set on line %d)"
                         % (key, first))
    s.node_overrides.setdefault(nid, {})[parts[2]] = _value(row, parts[2], value)


# The [nodes] and [flows] lines are most of a large scenario, so their
# fields are converted directly; a field that fails goes through its value
# parser, which raises the message.

def _parse_node(s, section, key, value, lineno):
    try:
        nid = int(key)
    except ValueError:
        nid = _int(key)
    positions = s.positions
    if nid in positions:
        raise ValueError("duplicate node id %d" % nid)
    parts = value.split()
    if len(parts) != 2:
        raise ValueError("node line needs 'id = x y'")
    x, y = parts
    try:
        pos = float(x), float(y)
    except ValueError:
        pos = None
    if pos is None or not (math.isfinite(pos[0]) and math.isfinite(pos[1])):
        pos = _float(x), _float(y)
    positions[nid] = pos


_PF = _Row(_float, _GE1)
_CW = _Row(_int, _GE1)


def _parse_edcf(s, section, key, value, lineno):
    if key != "cat%d" % len(s.edcf_cats):
        raise ValueError("categories must be cat0, cat1, ... in order")
    s.key_lines[("edcf", key)] = lineno
    parts = value.split()
    if len(parts) != 4:
        raise ValueError("category needs 'aifs_us pf cw_min cw_max'")
    pf = _value(_PF, "category pf", parts[1])
    cw_min, cw_max = (_value(_CW, "category cw_min and cw_max", p)
                      for p in parts[2:])
    if cw_min > cw_max:
        raise ValueError("category cw_min %d above cw_max %d" % (cw_min, cw_max))
    s.edcf_cats.append((_int(parts[0]), pf, cw_min, cw_max))


_FLOW_OPTIONS = _KEYS["flows"]
_BYTES = _Row(_int, _MSDU)
_RATE_BPS = _Row(_int, _GE1)


def _parse_flow(s, section, key, value, lineno):
    try:
        fid = int(key)
    except ValueError:
        fid = _int(key)
    at = ("flows", fid)
    if at in s.key_lines:
        raise ValueError("duplicate flow id %d" % fid)
    s.key_lines[at] = lineno
    tokens = value.split()
    opts = {}
    while tokens and "=" in tokens[-1]:
        k, _, v = tokens.pop().partition("=")
        if k not in _FLOW_OPTIONS:
            raise ValueError("unknown flow option %r" % k)
        if k in opts:
            raise ValueError("duplicate flow option %r" % k)
        opts[k] = _value(_FLOW_OPTIONS[k], k, v)
    if len(tokens) < 4:
        raise ValueError("flow needs 'src dst kind bytes [rate_bps]'")
    kind = tokens[2]
    if kind != BACKLOGGED and kind != CBR:
        raise ValueError("flow kind must be backlogged or cbr, got %r" % kind)
    if len(tokens) != 4 + (kind == CBR):
        raise ValueError("%s flow needs 'src dst %s bytes%s'"
                         % (kind, kind, " rate_bps" * (kind == CBR)))
    try:
        src, dst = int(tokens[0]), int(tokens[1])
    except ValueError:
        src, dst = _int(tokens[0]), _int(tokens[1])
    if src == dst:
        raise ValueError("flow %d has src == dst" % fid)
    start, stop = opts.get("start", 0), opts.get("stop", -1)
    if "stop" in opts and stop <= start:
        raise ValueError("flow %d stop %d not after start %d"
                         % (fid, stop, start))
    try:
        size = int(tokens[3])
    except ValueError:
        size = 0
    if not 1 <= size <= frames.MAX_MSDU_BYTES:
        size = _value(_BYTES, "bytes", tokens[3])
    rate = _value(_RATE_BPS, "rate_bps", tokens[4]) if kind == CBR else 0
    s.flows.append(Flow(fid, src, dst, kind, size, rate, start, stop,
                        opts.get("cat", 0)))


_POSITIONAL = {"nodes": _parse_node, "edcf": _parse_edcf, "flows": _parse_flow}


def _validate(s):
    """The checks that involve more than one key or line."""
    line = s.key_lines.get
    cw_min = s.mac.get("cw_min", dcf.CW_MIN)
    cw_max = s.mac.get("cw_max", dcf.CW_MAX)
    if cw_min > cw_max:
        _err(line(("mac", "cw_max")) or line(("mac", "cw_min")),
             "cw_min %d above cw_max %d" % (cw_min, cw_max))
    if not s.positions:
        raise ScenarioError("no nodes defined")
    if s.sense_range < 0:
        s.sense_range = s.hear_range
    elif s.sense_range < s.hear_range:
        _err(line(("links", "sense_range")), "sense_range %g below hear_range %g"
             % (s.sense_range, s.hear_range))
    # (key_lines key, node id) for every reference to a node; a flow's two
    # are listed only if one of them names no node.
    positions = s.positions
    refs = [(("node", nid), nid) for nid in s.node_overrides]
    refs += [(("flows", f.fid), nid) for f in s.flows
             if f.src not in positions or f.dst not in positions
             for nid in (f.src, f.dst)]
    if s.pcf is not None:
        for key in _KEYS["pcf"]:
            if key not in s.pcf:
                _err(line(("pcf", None)), "[pcf] missing key %r" % key)
        refs.append((("pcf", "coordinator"), s.pcf["coordinator"]))
        refs += [(("pcf", "pollable"), nid) for nid in s.pcf["pollable"]]
        if s.pcf["coordinator"] in s.pcf["pollable"]:
            _err(line(("pcf", "pollable")), "pollable names the coordinator")
    for at, nid in refs:
        if nid not in positions:
            _err(line(at), "references unknown node %d" % nid)
    for f in s.flows:
        if f.category and f.category >= max(1, len(s.edcf_cats)):
            _err(line(("flows", f.fid)), "flow %d uses undefined category %d"
                 % (f.fid, f.category))
    if s.pcf is not None and (s.pcf["cfp_max_us"] + s.pcf["cp_min_us"]
                              > s.pcf["superframe_us"]):
        _err(line(("pcf", "cp_min_us")),
             "cfp_max_us %d + cp_min_us %d exceeds superframe_us %d"
             % (s.pcf["cfp_max_us"], s.pcf["cp_min_us"],
                s.pcf["superframe_us"]))


# Variant token -> (flag, value).  A variant sets each flag once at most.
_TOKENS = {"plus": ("dcfplus", True), "dcfplus": ("dcfplus", True),
           "2way": ("two_way", True),
           **{t: (t, True) for t in ("dcf", "ica", "edcf", "pcf")},
           **{t: ("rate_policy", t) for t in ("arf", "rbar", "oar")},
           **{t: ("cw_policy", t) for t in ("mild", "est", "dfs")}}
_NO_FLAGS = {**{flag: False for flag, _ in _TOKENS.values()},
             "rate_policy": "fixed", "cw_policy": "beb"}


def variant_flags(variant):
    """Decompose a variant string into MacNode keyword settings."""
    flags = dict(_NO_FLAGS)
    for tok in variant.split("+"):
        if tok not in _TOKENS:
            raise ScenarioError("variant %r: unknown token %r" % (variant, tok))
        flag, value = _TOKENS[tok]
        if flags[flag] != _NO_FLAGS[flag]:
            raise ScenarioError("variant %r: two tokens set %s" % (variant, flag))
        flags[flag] = value
    return flags
