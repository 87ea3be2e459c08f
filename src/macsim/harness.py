"""Wire a Scenario into a live simulation: nodes, medium, traffic, metrics."""

from . import scenario as scn_mod
from .dcf import MacParams
from .engine import Simulator
from .mac import AccessCategory, MacNode, Packet
from .medium import Medium
from .metrics import Recorder
from .pcf import PointCoordinator, min_cp_us
from .phy import LinkQualityProcess, Topology
from .scenario import BACKLOG_DEPTH, BACKLOGGED, CBR, ScenarioError, variant_flags

_NO_RTS = 1 << 30  # rts_threshold that 2-way mode can never reach


class RunResult:
    """Everything a test might want to poke at after a run."""

    def __init__(self, metrics, trace_lines, sim, medium, macs, recorder):
        self.metrics = metrics
        self.trace_lines = trace_lines
        self.sim = sim
        self.medium = medium
        self.macs = macs
        self.recorder = recorder

    def queued_packets(self):
        return sum(mac.queued_packets() for mac in self.macs.values())


def _node_params(s, nid):
    ov = s.node_overrides.get(nid, {})
    kw = {}
    for key in ("slot_us", "sifs_us", "cw_min", "cw_max", "retry_limit",
                "rts_threshold", "frag_threshold"):
        if key in ov:
            kw[key] = ov[key]
        elif key in s.mac:
            kw[key] = s.mac[key]
    return MacParams(**kw)


def _dfs_scaling(s):
    if "dfs_scaling" in s.mac:
        return s.mac["dfs_scaling"]
    max_bits = max((f.packet_bytes * 8 for f in s.flows), default=12000)
    return 16.0 / max_bits  # max-size packet at phi=1 maps to cw_min slots


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

    macs = {}
    pcf_flags = None
    dfs_scaling = _dfs_scaling(s)
    for nid in node_ids:
        ov = s.node_overrides.get(nid, {})
        vname = variant or ov.get("variant", s.variant)
        flags = variant_flags(vname)
        params = _node_params(s, nid)
        if flags["two_way"]:
            params.rts_threshold = _NO_RTS
        cats = None
        if flags["edcf"]:
            if not s.edcf_cats:
                raise ScenarioError("edcf variant needs an [edcf] section")
            cats = []
            for i, (aifs, pf, cw_min, cw_max) in enumerate(s.edcf_cats):
                if aifs < params.difs_us:
                    raise ScenarioError(
                        "category %d AIFS %d below DIFS %d"
                        % (i, aifs, params.difs_us))
                cats.append(AccessCategory(i, aifs, pf, cw_min, cw_max))
        kw = dict(
            fixed_rate=ov.get("data_rate", s.mac.get("data_rate", 11)),
            rate_policy=flags["rate_policy"],
            cw_policy=flags["cw_policy"],
            dcfplus=flags["dcfplus"],
            ica=flags["ica"],
            categories=cats,
            dfs_phi=ov.get("phi", 1.0),
            dfs_scaling=dfs_scaling,
            est_phi=ov.get("est_phi", s.mac.get("est_phi", 0.5)),
        )
        for key, dst in (("mild_factor", "mild_factor"),
                         ("est_window_us", "est_window_us"),
                         ("dfs_compress", "dfs_compress"),
                         ("dfs_random", "dfs_random"),
                         ("arf_timer_us", "arf_timer_us"),
                         ("oar_ref_bytes", "oar_ref_bytes"),
                         ("ica_cts_timeout_us", "ica_cts_timeout_us")):
            if key in s.mac:
                kw[dst] = s.mac[key]
        macs[nid] = MacNode(sim, medium, nid, params=params, seed=s.seed,
                            recorder=recorder, **kw)
        if flags["pcf"]:
            pcf_flags = flags

    if pcf_flags is not None or (s.pcf is not None and
                                 "pcf" in (variant or s.variant).split("+")):
        if s.pcf is None:
            raise ScenarioError("pcf variant needs a [pcf] section")
        pc_mac = macs[s.pcf["coordinator"]]
        data_rate = s.mac.get("data_rate", 11)
        # The CP must fit one worst-case exchange.  The floor depends on the
        # coordinator's MAC parameters, so it is checked here rather than in
        # scenario._validate.
        floor = min_cp_us(pc_mac.params, pc_mac.params.frag_threshold, data_rate)
        if s.pcf["cp_min_us"] < floor:
            scn_mod._err(s.key_lines[("pcf", "cp_min_us")],
                         "cp_min_us %d below the %d us needed for one full "
                         "exchange" % (s.pcf["cp_min_us"], floor))
        pc = PointCoordinator(pc_mac, s.pcf["pollable"],
                              s.pcf["superframe_us"], s.pcf["cfp_max_us"],
                              s.pcf["cp_min_us"], data_rate=data_rate)
        pc.start()

    _pid = [0]

    def make_packet(flow):
        pkt = Packet(_pid[0], flow.fid, flow.src, flow.dst, flow.packet_bytes,
                     sim.now)
        _pid[0] += 1
        recorder.on_generated(pkt)
        macs[flow.src].enqueue(pkt, flow.category)
        return pkt

    for flow in s.flows:
        stop = s.stop_of(flow)
        if flow.kind == BACKLOGGED:
            def start_backlog(flow=flow, stop=stop):
                for _ in range(BACKLOG_DEPTH):
                    make_packet(flow)

                def refill(flow=flow, stop=stop):
                    if sim.now < stop:
                        make_packet(flow)

                recorder.refill[flow.fid] = refill

            sim.schedule(flow.start_us, "flow_start", flow.src, start_backlog)
        else:  # CBR
            interval = max(1, round(flow.packet_bytes * 8 * 1e6 / flow.rate_bps))

            def arrive(flow=flow, stop=stop, interval=interval):
                if sim.now >= stop:
                    return
                make_packet(flow)
                sim.schedule_in(interval, "cbr_arrival", flow.src,
                                lambda: arrive())

            sim.schedule(flow.start_us, "flow_start", flow.src, arrive)

    return sim, medium, macs, recorder


def run(s, variant=None, trace=False):
    sim, medium, macs, recorder = build(s, variant, trace)
    sim.run_until(s.duration_us)
    metrics = recorder.finalize(s.duration_us, medium.stats)
    return RunResult(metrics, sim.trace_lines, sim, medium, macs, recorder)


def run_scenario(s, variant=None, trace=False):
    return run(s, variant, trace).metrics


def compare(variants, s):
    """One isolated run per variant, same scenario and seed."""
    if not variants:
        raise ScenarioError("compare needs at least one variant")
    table = {}
    for v in variants:
        scn_mod._check_variant(v, 0)
        table[v] = run_scenario(s, variant=v)
    return table
