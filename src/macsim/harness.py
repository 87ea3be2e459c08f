"""Wire a Scenario into a live simulation: nodes, medium, traffic, metrics."""

from dataclasses import fields, replace
from functools import partial
from itertools import count

from . import fairness, rate, scenario as scn_mod
from .dcf import MacParams
from .engine import Simulator
from .frames import CTS_AIR
from .mac import AccessCategory, MacNode, Packet
from .medium import Medium
from .metrics import Recorder
from .pcf import PointCoordinator, min_cp_us
from .phy import LinkQualityProcess, Topology
from .scenario import BACKLOG_DEPTH, CBR, variant_flags

_NO_RTS = 1 << 30  # rts_threshold that 2-way mode can never reach
_PARAM_KEYS = [f.name for f in fields(MacParams)]  # [mac] keys MacParams takes


class RunResult:
    """Everything a test might want to poke at after a run."""

    def __init__(self, metrics, trace_lines, sim, medium, macs, recorder):
        self.metrics = metrics
        self.trace_lines = trace_lines
        self.sim = sim
        self.medium = medium
        self.macs = macs
        self.recorder = recorder


def _rate_scheme(name, mac, fixed_rate):
    """A maker of the node's rate scheme."""
    if name == "arf":
        return partial(rate.Arf, fixed_rate,
                       mac.get("arf_timer_us", rate.ARF_TIMER_US))
    if name == "rbar":
        return partial(rate.Rbar, fixed_rate)
    if name == "oar":
        return partial(rate.Oar, fixed_rate,
                       mac.get("oar_ref_bytes", rate.OAR_REF_BYTES))
    # A fixed rate keeps no state, so one instance serves every node.
    fixed = rate.FixedRate(fixed_rate)
    return lambda: fixed


def _backoff_scheme(name, s, mac):
    """A maker of the node's backoff scheme."""
    if name == "mild":
        return partial(fairness.Mild,
                       mac.get("mild_factor", fairness.MILD_FACTOR))
    if name == "est":
        return partial(fairness.Est, mac.get("est_phi", 0.5),
                       mac.get("est_window_us", fairness.EST_WINDOW_US))
    if name == "dfs":
        scaling = mac.get("dfs_scaling")
        if scaling is None:
            # By default a max-size packet at phi=1 maps to 16 slots, the
            # default cw_min.
            scaling = 16.0 / max((f.packet_bytes * 8 for f in s.flows),
                                 default=12000)
        return partial(fairness.Dfs, mac.get("phi", 1.0), scaling,
                       mac.get("dfs_random", True), mac.get("dfs_compress"))
    # Binary exponential backoff keeps no state either.
    beb = fairness.Beb()
    return lambda: beb


class _NodeSettings:
    """Every setting a node takes from `[mac]` and its `node.N.*` keys,
    resolved once: all nodes without such keys share one instance, and
    with it one frozen MacParams, and one fixed-rate or binary exponential
    backoff scheme, which keep no state.  `mac_node` builds what each node
    keeps for itself: its categories, random stream, MacNode, and any rate
    or backoff scheme that changes as it runs."""

    def __init__(self, s, nid, variant):
        own = s.node_overrides.get(nid, {})
        mac = {**s.mac, **own}  # [mac], then node.N.*
        # The line of the key that set the variant, for errors about it: a
        # `compare` override has none.
        self.line = None if variant else s.key_lines.get(
            ("node", nid, "variant") if "variant" in own
            else ("mac", "variant"))
        flags = variant_flags(variant or mac.get("variant", s.variant))
        params = MacParams(**{k: mac[k] for k in _PARAM_KEYS if k in mac})
        if flags["two_way"]:
            params = replace(params, rts_threshold=_NO_RTS)
        if flags["edcf"]:
            if not s.edcf_cats:
                scn_mod._err(self.line, "edcf variant needs an [edcf] section")
            cats = []
            for i, (aifs, pf, cw_min, cw_max) in enumerate(s.edcf_cats):
                if aifs < params.difs_us:
                    scn_mod._err(s.key_lines[("edcf", "cat%d" % i)],
                                 "category %d AIFS %d below DIFS %d"
                                 % (i, aifs, params.difs_us))
                cats.append((i, aifs, pf, cw_min, cw_max))
        else:  # plain DCF: one category at DIFS
            cats = [(0, params.difs_us, 2.0, params.cw_min, params.cw_max)]
        self.params = params
        self.cats = cats  # AccessCategory arguments, one tuple each
        self.pcf = flags["pcf"]
        self.dcfplus = flags["dcfplus"]
        self.ica_wait = None
        if flags["ica"]:
            self.ica_wait = mac.get("ica_cts_timeout_us",
                                    params.sifs_us + CTS_AIR + params.slot_us)
        self.fixed_rate = mac.get("data_rate", 11)
        self.rate = _rate_scheme(flags["rate_policy"], mac, self.fixed_rate)
        self.backoff = _backoff_scheme(flags["cw_policy"], s, mac)

    def mac_node(self, sim, medium, nid, seed, recorder):
        return MacNode(sim, medium, nid, self.params, seed, self.fixed_rate,
                       self.rate(), self.backoff(), self.dcfplus,
                       self.ica_wait, [AccessCategory(*c) for c in self.cats],
                       recorder)


class _Source:
    """One flow's packets, from its start event's call of `start`.

    A backlogged source (`interval` 0) makes BACKLOG_DEPTH packets at its
    start, then one each time its sender is done with one, until its stop.
    A CBR source makes one every `interval` us from its start until its
    stop.  Packet ids come from the build's one counter, in the order the
    packets are made."""

    __slots__ = ("sim", "recorder", "pids", "mac", "flow", "stop", "interval")

    def __init__(self, sim, recorder, pids, mac, flow, stop, interval):
        self.sim = sim
        self.recorder = recorder
        self.pids = pids
        self.mac = mac
        self.flow = flow
        self.stop = stop
        self.interval = interval

    def _make_packet(self):
        flow = self.flow
        pkt = Packet(next(self.pids), flow.fid, flow.src, flow.dst,
                     flow.packet_bytes, self.sim.now)
        self.recorder.on_generated(pkt)
        self.mac.enqueue(pkt, flow.category)

    def start(self):
        if self.interval:
            self.arrive()
        else:
            for _ in range(BACKLOG_DEPTH):
                self._make_packet()
            self.recorder.refill[self.flow.fid] = self.refill

    def refill(self):
        if self.sim.now < self.stop:
            self._make_packet()

    def arrive(self):
        if self.sim.now >= self.stop:
            return
        self._make_packet()
        self.sim.schedule_in(self.interval, "cbr_arrival", self.flow.src,
                             self.arrive)


def build(s, variant=None, trace=False):
    sim = Simulator()
    if trace:
        sim.enable_trace()
    node_ids = sorted(s.positions)
    topo = Topology(dict(s.positions), s.hear_range, s.sense_range)
    quality = LinkQualityProcess(node_ids, s.initial_quality, s.matrix,
                                 s.dwell_us)
    medium = Medium(sim, topo, quality, s.base_fer, s.capture_ratio,
                    s.control_fer, s.seed, s.genie_tiebreak)
    shares = {f.fid: s.node_overrides.get(f.src, {}).get("phi", 1.0)
              for f in s.flows}
    recorder = Recorder(sim, [f.fid for f in s.flows], shares,
                        s.metric_window_us)

    # Settings are resolved in node order, so the first node with a bad
    # variant or EDCF category raises, as it would if each node resolved
    # its own.
    macs = {}
    pcf_by = shared = None  # pcf_by: the first node settings that run pcf
    for nid in node_ids:
        if s.node_overrides.get(nid):
            settings = _NodeSettings(s, nid, variant)
        else:
            if shared is None:
                shared = _NodeSettings(s, None, variant)
            settings = shared
        macs[nid] = settings.mac_node(sim, medium, nid, s.seed, recorder)
        if pcf_by is None and settings.pcf:
            pcf_by = settings

    # A node's variant asks for a point coordinator; so does the [mac] one
    # while [pcf] configures it, as when every node sets its own.
    if pcf_by is not None or (s.pcf is not None
                              and variant_flags(variant or s.variant)["pcf"]):
        if s.pcf is None:
            scn_mod._err(pcf_by.line, "pcf variant needs a [pcf] section")
        pc_mac = macs[s.pcf["coordinator"]]
        # The CP must fit one worst-case exchange of any node: the largest
        # fragment at the node's data rate.  The floor depends on per-node
        # MAC settings, so it is checked here rather than in
        # scenario._validate.
        floor = max(min_cp_us(pc_mac.params, m.params.frag_threshold,
                              m.fixed_rate) for m in macs.values())
        if s.pcf["cp_min_us"] < floor:
            scn_mod._err(s.key_lines[("pcf", "cp_min_us")],
                         "cp_min_us %d below the %d us needed for one full "
                         "exchange" % (s.pcf["cp_min_us"], floor))
        pc = PointCoordinator(pc_mac, s.pcf["pollable"],
                              s.pcf["superframe_us"], s.pcf["cfp_max_us"])
        pc.start()

    pids = count()
    for flow in s.flows:
        mac = macs[flow.src]
        if flow.category >= len(mac.cats):
            scn_mod._err(s.key_lines[("flows", flow.fid)],
                         "flow %d uses category %d, but node %d does not run "
                         "edcf" % (flow.fid, flow.category, flow.src))
        interval = 0
        if flow.kind == CBR:
            interval = max(1, round(flow.packet_bytes * 8 * 1e6 / flow.rate_bps))
        source = _Source(sim, recorder, pids, mac, flow, s.stop_of(flow),
                         interval)
        sim.schedule(flow.start_us, "flow_start", flow.src, source.start)

    return sim, medium, macs, recorder


def run(s, variant=None, trace=False):
    return _run_built(s, *build(s, variant, trace))


def _run_built(s, sim, medium, macs, recorder):
    sim.run_until(s.duration_us)
    metrics = recorder.finalize(s.duration_us, medium.stats)
    return RunResult(metrics, sim.trace_lines, sim, medium, macs, recorder)


def compare(variants, s):
    """One isolated run per variant, same scenario and seed, built first."""
    built = {v: build(s, variant=v) for v in variants}
    return {v: _run_built(s, *b).metrics for v, b in built.items()}
