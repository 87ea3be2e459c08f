"""Per-layer timing from outside the program: spans around each layer's
entry points, patched in from here and restored afterwards.

Every wrapped call pushes a span on an in-memory stack.  When it returns,
its duration goes to its function's inclusive total, and its duration minus
the time of its child spans goes to its layer's self time.  Code that is not
wrapped counts towards the nearest wrapped caller.  Time outside every span
is `other`, so the self times of all layers plus `other` sum to the wall
time of the traced operation.

Scheduled callbacks are entry points too: `Simulator.schedule` wraps each
callback in a span of the layer whose file defined it, so the engine's
self time is the event loop alone, not the handlers it dispatches.
"""

import functools
import inspect
import os
import time
import tracemalloc

# Layers are the program's modules.  `harness.traffic` is the traffic
# sources harness.build installs (flow starts, CBR arrivals); `engine.trace`
# is trace formatting and writing.
LAYERS = ("scenario", "harness", "harness.traffic", "engine", "engine.trace",
          "medium", "phy", "frames", "mac", "dcf", "rate", "fairness", "ext",
          "pcf", "metrics", "other")

# Layer of a scheduled callback, by the file that defined it.
_CALLBACK_LAYER = {"mac.py": "mac", "medium.py": "medium", "pcf.py": "pcf",
                   "harness.py": "harness.traffic"}

# Layer of the memory retained at run end, by the file that allocated it.
_MEM_GROUPS = {"engine.py": "engine", "mac.py": "mac", "metrics.py": "metrics"}


def _public_methods(cls):
    return [n for n, v in vars(cls).items()
            if inspect.isfunction(v) and not n.startswith("_")]


def _public_functions(mod):
    return [n for n, v in vars(mod).items()
            if inspect.isfunction(v) and v.__module__ == mod.__name__
            and not n.startswith("_")]


def point_name(owner, attr):
    """"Class.attr" for a method, "module.attr" for a module function."""
    return "%s.%s" % (getattr(owner, "__qualname__", None)
                      or owner.__name__.rsplit(".", 1)[-1], attr)


def entry_points(macsim, workloads_mod):
    """(owner, attribute, layer) for every wrapped entry point."""
    eng, med, phy, mac = (macsim.engine, macsim.medium, macsim.phy,
                          macsim.mac)
    pts = [(macsim.scenario, "parse_scenario", "scenario"),
           (macsim.harness, "build", "harness"),
           (eng.Simulator, "run_until", "engine"),
           (eng.Simulator, "trace", "engine.trace"),
           (eng.RandomStream, "next_u64", "engine"),
           (workloads_mod, "write_trace", "engine.trace"),
           (med.Medium, "transmit", "medium"),
           (med.Medium, "_end", "medium"),
           (phy.LinkQualityProcess, "step", "phy"),
           (phy, "frame_error_prob", "phy"),
           (phy, "resolve_capture", "phy"),
           (macsim.frames, "frame_airtime", "frames"),
           (macsim.metrics, "format_csv", "metrics")]
    pts += [(phy.Topology, n, "phy")
            for n in ("distance", "can_hear", "can_sense", "received_power")]
    pts += [(mac.MacNode, n, "mac")
            for n in ("on_frame", "on_sense_enter", "on_sense_exit", "set_nav",
                      "enqueue", "_arm", "_on_access_fire")]
    pts += [(macsim.metrics.Recorder, n, "metrics")
            for n in ("on_generated", "on_delivered", "on_drop",
                      "on_sender_done", "finalize")]
    pts += [(macsim.pcf.PointCoordinator, n, "pcf")
            for n, v in vars(macsim.pcf.PointCoordinator).items()
            if inspect.isfunction(v)]
    for layer in ("dcf", "rate", "fairness", "ext"):
        mod = getattr(macsim, layer)
        pts += [(mod, n, layer) for n in _public_functions(mod)]
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                pts += [(cls, n, layer) for n in _public_methods(cls)]
    return pts


class Tracer:
    """Span stack, self time per layer, calls and inclusive time per entry
    point.  Use as a context manager: entering patches, leaving restores."""

    def __init__(self, macsim, workloads_mod):
        self._macsim = macsim
        self.points = entry_points(macsim, workloads_mod)
        self._modules = [m for m in vars(macsim).values()
                         if inspect.ismodule(m)] + [workloads_mod]
        self._stack = [0.0]
        self.self_s = {k: [0.0] for k in LAYERS}
        self.calls = {}  # "Owner.name" -> [count]
        self.incl_s = {}  # "Owner.name" -> [seconds]
        self.dispatched = 0
        self.arms = 0  # access timers scheduled
        self._patches = []  # (owner, attribute, original)
        self.restored = False  # after exit: no wrapper left on any owner
        self._runners = {f: self._runner(layer)
                         for f, layer in _CALLBACK_LAYER.items()}

    # -- spans ---------------------------------------------------------------

    def _span(self, fn, layer, name):
        stack, cell = self._stack, self.self_s[layer]
        cnt = self.calls.setdefault(name, [0])
        tot = self.incl_s.setdefault(name, [0.0])
        perf = time.perf_counter

        def span(*args, **kwargs):
            cnt[0] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                cell[0] += dt - stack.pop()
                stack[-1] += dt
                tot[0] += dt

        span.perfbench_span = True
        return span

    def _runner(self, layer):
        stack, cell = self._stack, self.self_s[layer]
        perf = time.perf_counter

        def run(fn):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn()
            finally:
                dt = perf() - t0
                cell[0] += dt - stack.pop()
                stack[-1] += dt

        return run

    def _callback(self, fn):
        """Wrap a scheduled callback in a span of the layer that defined it."""
        func = getattr(fn, "__func__", fn)
        if getattr(func, "perfbench_span", False):
            return fn
        code = getattr(func, "__code__", None)
        if code is None:
            return fn
        runner = self._runners.get(os.path.basename(code.co_filename))
        if runner is None:
            return fn
        return functools.partial(runner, fn)

    def top_level_s(self):
        """Seconds spent inside spans opened outside any other span."""
        return self._stack[0]

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        Simulator = self._macsim.engine.Simulator
        for owner, attr, layer in self.points:
            orig = vars(owner)[attr]
            span = self._span(orig, layer, point_name(owner, attr))
            if owner is Simulator and attr == "run_until":
                span = self._counting_run_until(span)
            if inspect.ismodule(owner):
                # Patch every module that imported the function by name.
                for mod in self._modules:
                    if vars(mod).get(attr) is orig:
                        self._patch(mod, attr, span)
            else:
                self._patch(owner, attr, span)
        sched = self._span(vars(Simulator)["schedule"], "engine",
                           "Simulator.schedule")
        wrap_cb = self._callback

        def schedule(sim, time_us, kind, target, fn):
            if kind == "access_fire":
                self.arms += 1
            return sched(sim, time_us, kind, target, wrap_cb(fn))

        schedule.perfbench_span = True
        self._patch(Simulator, "schedule", schedule)
        return self

    def _counting_run_until(self, span):
        def run_until(sim, t_end):
            n = span(sim, t_end)
            self.dispatched += n
            return n

        run_until.perfbench_span = True
        return run_until

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        owners = {id(o): o for o, _, _ in self.points}
        owners.update((id(m), m) for m in self._modules)
        self.restored = not any(getattr(v, "perfbench_span", False)
                                for o in owners.values()
                                for v in vars(o).values())
        return False

    def count(self, name):
        return self.calls.get(name, [0])[0]


def layer_metrics(tracer, wall_s, untraced_wall_s, res):
    """Per-layer metrics of one traced operation, as (name, value, unit)."""
    c = tracer.count
    layer_calls = {layer: 0 for layer in ("dcf", "rate", "fairness", "ext", "pcf")}
    for owner, attr, layer in tracer.points:
        if layer in layer_calls:
            layer_calls[layer] += c(point_name(owner, attr))
    s = {k: v[0] for k, v in tracer.self_s.items()}
    other = s.pop("other") + wall_s - tracer.top_level_s()
    scheduled = c("Simulator.schedule")
    sense_edges = c("MacNode.on_sense_enter") + c("MacNode.on_sense_exit")
    fires = c("MacNode._on_access_fire")
    out = [
        ("traced_wall_s", wall_s, "s"),
        ("trace_overhead", wall_s / untraced_wall_s, "ratio"),
        ("other.self_s", other, "s"),
        ("scenario.parse_s", s["scenario"], "s"),
        ("harness.build_s", s["harness"], "s"),
        ("harness.traffic_s", s["harness.traffic"], "s"),
        ("engine.self_s", s["engine"], "s"),
        ("engine.events_dispatched", tracer.dispatched, "count"),
        ("engine.events_scheduled", scheduled, "count"),
        ("engine.dispatch_ratio", tracer.dispatched / max(1, scheduled), "ratio"),
        ("engine.rng_draws", c("RandomStream.next_u64"), "count"),
        ("engine.trace_s", s["engine.trace"], "s"),
        ("engine.trace_lines", res.trace_lines, "count"),
        ("medium.self_s", s["medium"], "s"),
        ("medium.transmissions", c("Medium.transmit"), "count"),
        ("medium.useful_scan_ratio",
         sense_edges / max(1, c("Topology.can_sense")), "ratio"),
        ("phy.self_s", s["phy"], "s"),
        ("phy.distance_calls", c("Topology.distance"), "count"),
        ("phy.capture_resolutions", c("phy.resolve_capture"), "count"),
        ("phy.fer_draws", c("phy.frame_error_prob"), "count"),
        ("phy.quality_step_s",
         tracer.incl_s.get("LinkQualityProcess.step", [0.0])[0], "s"),
        ("frames.self_s", s["frames"], "s"),
        ("frames.airtime_calls", c("frames.frame_airtime"), "count"),
        ("mac.self_s", s["mac"], "s"),
        ("mac.on_frame_calls", c("MacNode.on_frame"), "count"),
        ("mac.sense_edges", sense_edges, "count"),
        ("mac.set_nav_calls", c("MacNode.set_nav"), "count"),
        ("mac.arms", tracer.arms, "count"),
        ("mac.access_fires", fires, "count"),
        ("mac.fire_ratio", fires / max(1, tracer.arms), "ratio"),
    ]
    for layer, n in layer_calls.items():
        out.append(("%s.self_s" % layer, s[layer], "s"))
        out.append(("%s.calls" % layer, n, "count"))
    out += [
        ("metrics.self_s", s["metrics"], "s"),
        ("metrics.finalize_s",
         tracer.incl_s.get("Recorder.finalize", [0.0])[0], "s"),
        ("metrics.deliveries", c("Recorder.on_delivered"), "count"),
        ("metrics.transmissions",
         sum(m.total_transmissions for m in res.metrics), "count"),
        ("metrics.delivered_bits",
         sum(m.aggregate_delivered_bits for m in res.metrics), "count"),
        ("metrics.collision_events",
         sum(m.collision_events for m in res.metrics), "count"),
    ]
    return out


class MemoryProbe:
    """tracemalloc snapshot at each run end; keeps the largest one, grouped
    by the program file that allocated the memory."""

    def __init__(self):
        self.groups = None
        self.total = -1

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        return False

    def on_run_end(self, _item):
        total = tracemalloc.get_traced_memory()[0]
        if total <= self.total:
            return
        groups = {g: 0 for g in _MEM_GROUPS.values()}
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            fname = stat.traceback[0].filename
            if os.path.basename(os.path.dirname(fname)) == "macsim":
                g = _MEM_GROUPS.get(os.path.basename(fname))
                if g is not None:
                    groups[g] += stat.size
        self.total, self.groups = total, groups

    def metrics(self):
        mb = 1024.0 * 1024.0
        out = [("mem.%s_mb" % g, size / mb, "MB")
               for g, size in sorted(self.groups.items())]
        out.append(("mem.total_mb", self.total / mb, "MB"))
        return out
