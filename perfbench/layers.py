"""Per-layer self time, measured from outside ``src/``.

:func:`install` replaces the public function at each layer seam with a
timing wrapper, before any simulator object exists, and returns the
:class:`Tracer` that accumulates the spans.  Nothing under ``src/`` is
edited: the wrappers live here and are attached with ``setattr`` on the
class (or, for a function imported by name, on every module that holds
it).

Self time is a span's duration minus the time covered by its child
spans.  Each wrapper pushes a frame on one stack; when it returns, its
duration is added to its parent frame's child time.  Event callbacks
are spans too, recorded through the simulator's public profiler hook
(``Simulator.profiler.record(label, seconds)``): the hook runs after
each callback, so the seam spans opened during that callback are
subtracted from it retroactively.  ``sim.dispatch`` is then the event
loop's own cost: ``run_until`` minus every callback.

Wrappers return the wrapped call's value unchanged and never touch the
simulation's arguments, so the traced run's digest must equal the pin.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Event labels reported one by one; every other label is summed into
#: ``sim.callback.other``.
LABELS = ("udp-deliver", "buffermap-round", "gossip-round", "sched-tick",
          "playback-maintenance", "tracker-round", "data-timeout",
          "hello-timeout", "viewer-arrive", "viewer-depart", "probe-join")

#: Modules that bind ``wire_size`` by name at import time.
WIRE_SIZE_MODULES = ("repro.protocol.peer", "repro.protocol.tracker",
                     "repro.protocol.source", "repro.protocol.bootstrap",
                     "repro.baselines.isp_tracker")


class Seam:
    """Accumulated spans of one layer seam."""

    __slots__ = ("calls", "self_s", "items", "max_items", "idle")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: Work units handled (datagrams in a cohort, latency draws,
        #: requests issued); seam-specific.
        self.items = 0
        self.max_items = 0
        #: Calls that did no work (scheduler ticks issuing no request).
        self.idle = 0


class Tracer:
    """Span stack, per-seam and per-label accumulators."""

    def __init__(self) -> None:
        # One frame per open span: [child seconds, child seconds already
        # settled by a callback].  The bottom frame is the workload root.
        self.stack: List[List[float]] = [[0.0, 0.0]]
        self.seams: Dict[str, Seam] = {}
        self.labels: Dict[str, List[float]] = {}
        #: Deterministic counters folded from every finished session.
        self.counters: Dict[str, int] = {}

    def seam(self, name: str) -> Seam:
        seam = self.seams.get(name)
        if seam is None:
            seam = self.seams[name] = Seam()
        return seam

    # -- the Simulator profiler hook -----------------------------------
    def record(self, label: str, seconds: float) -> None:
        """Close one event callback as a span of the enclosing frame."""
        frame = self.stack[-1]
        inner = frame[0] - frame[1]
        entry = self.labels.get(label)
        if entry is None:
            entry = self.labels[label] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds - inner
        frame[0] = frame[1] = frame[1] + seconds

    # -- wrappers --------------------------------------------------------
    def span(self, name: str, fn: Callable,
             items: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span of seam ``name``.

        ``items(args)`` counts the work units of one call; without it a
        call counts as one unit.
        """
        seam = self.seam(name)
        stack = self.stack
        clock = perf_counter

        if items is None:
            def wrapper(*args, **kwargs):
                frame = [0.0, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    stack.pop()
                    stack[-1][0] += elapsed
                    seam.calls += 1
                    seam.items += 1
                    seam.self_s += elapsed - frame[0]
        else:
            def wrapper(*args, **kwargs):
                count = items(args)
                frame = [0.0, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    stack.pop()
                    stack[-1][0] += elapsed
                    seam.calls += 1
                    seam.items += count
                    if count > seam.max_items:
                        seam.max_items = count
                    seam.self_s += elapsed - frame[0]
        return functools.wraps(fn)(wrapper)

    def scheduler_span(self, fn: Callable) -> Callable:
        """``DataScheduler.tick`` with requests read from ``inflight``."""
        seam = self.seam("protocol.scheduler")
        stack = self.stack
        clock = perf_counter

        def wrapper(scheduler, *args, **kwargs):
            before = scheduler.inflight
            frame = [0.0, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(scheduler, *args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][0] += elapsed
                issued = scheduler.inflight - before
                seam.calls += 1
                if issued > 0:
                    seam.items += issued
                else:
                    seam.idle += 1
                seam.self_s += elapsed - frame[0]
        return functools.wraps(fn)(wrapper)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _after(fn: Callable, observe: Callable) -> Callable:
    """``fn`` untimed; ``observe(self_arg, result)`` runs after it."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        observe(args[0], result)
        return result
    return functools.wraps(fn)(wrapper)


def _arg_len(index: int) -> Callable:
    return lambda args: len(args[index])


def _patch(module_name: str, path: str, make: Callable) -> None:
    """Replace ``module.path`` (``func`` or ``Class.method``) in place."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    setattr(owner, attr, make(getattr(owner, attr)))


def install() -> Tracer:
    """Wrap every layer seam; call before any simulator object exists."""
    tracer = Tracer()
    span = tracer.span

    def seam(name, items=None):
        return lambda fn: span(name, fn, items)

    table = (
        ("repro.sim.engine", "Simulator.run_until", seam("sim.dispatch")),
        ("repro.sim.engine", "Simulator.run", seam("sim.dispatch")),
        ("repro.network.transport", "UdpNetwork.send",
         seam("network.send")),
        ("repro.network.transport", "UdpNetwork.send_many",
         seam("network.send_many", _arg_len(2))),
        ("repro.network.latency", "LatencyModel.one_way_delay",
         seam("network.latency")),
        ("repro.network.latency", "LatencyModel.is_lost",
         seam("network.latency")),
        ("repro.network.latency", "LatencyModel.one_way_delays",
         seam("network.latency", _arg_len(1))),
        ("repro.network.latency", "LatencyModel.are_lost",
         seam("network.latency", _arg_len(1))),
        ("repro.protocol.peer", "PPLivePeer.handle_datagram",
         seam("protocol.peer.recv")),
        ("repro.protocol.tracker", "TrackerServer.handle_datagram",
         seam("protocol.servers.recv")),
        ("repro.protocol.source", "SourceServer.handle_datagram",
         seam("protocol.servers.recv")),
        ("repro.protocol.bootstrap", "BootstrapServer.handle_datagram",
         seam("protocol.servers.recv")),
        ("repro.protocol.scheduler", "DataScheduler.tick",
         tracer.scheduler_span),
        ("repro.streaming.playback", "PlaybackMonitor.tick",
         seam("streaming.playback")),
        # The class attribute, so the bound method that add_tap stores
        # and the one remove_tap looks up are equal.
        ("repro.capture.sniffer", "ProbeSniffer._tap", seam("capture.tap")),
        ("repro.obs.flows", "FlowLedger.sink", seam("obs.flows")),
        ("repro.checkpoint.store", "CampaignCheckpointStore.write_unit",
         seam("checkpoint.write_unit")),
        ("repro.workload.scenario", "SessionScenario.build_deployment",
         seam("workload.build_deployment")),
        ("repro.workload.scenario", "match_all", seam("analysis")),
        ("repro.workload.campaign", "traffic_locality", seam("analysis")),
        ("repro.workload.campaign", "assemble_campaign", seam("analysis")),
        ("repro.experiments.fig06", "Figure6.render", seam("analysis")),
    ) + tuple((module, "wire_size", seam("protocol.wire.wire_size"))
              for module in WIRE_SIZE_MODULES)
    for module, path, make in table:
        _patch(module, path, make)

    def attach_profiler(sim, _result) -> None:
        if sim.profiler is None:
            sim.profiler = tracer

    def fold_session(_scenario, result) -> None:
        sim = result.deployment.sim
        udp = result.deployment.internet.udp
        tracer.count("sim.events", sim.events_executed)
        for name in ("datagrams_sent", "datagrams_delivered",
                     "datagrams_lost", "datagrams_dropped_uplink"):
            tracer.count(f"network.{name}", getattr(udp, name))

    def fold_capture(_sniffer, store) -> None:
        tracer.count("capture.records", len(store))

    _patch("repro.sim.engine", "Simulator.__init__",
           lambda fn: _after(fn, attach_profiler))
    _patch("repro.workload.scenario", "SessionScenario.run",
           lambda fn: _after(fn, fold_session))
    _patch("repro.capture.sniffer", "ProbeSniffer.stop",
           lambda fn: _after(fn, fold_capture))
    return tracer


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


#: Layer seams whose self time counts as attributed (with the callbacks).
SEAM_NAMES = ("sim.dispatch", "network.send", "network.send_many",
              "network.latency", "protocol.wire.wire_size",
              "protocol.peer.recv", "protocol.servers.recv",
              "protocol.scheduler", "streaming.playback", "capture.tap",
              "obs.flows", "checkpoint.write_unit",
              "workload.build_deployment", "analysis")


def layer_metrics(tracer: Tracer, traced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run (``trace.overhead`` is
    added by the caller, which knows the untraced wall time)."""
    seams = {name: tracer.seams.get(name, Seam()) for name in SEAM_NAMES}
    counters = tracer.counters
    out: Dict[str, float] = {}
    for name, seam in seams.items():
        out[f"{name}.calls"] = seam.calls
        out[f"{name}.self_s"] = seam.self_s

    events = counters.get("sim.events", 0)
    out["sim.events"] = events
    out["sim.dispatch.ns_per_event"] = _per(
        seams["sim.dispatch"].self_s, events, 1e9)
    for label in LABELS:
        out[f"sim.callback.{label}.self_s"] = tracer.labels.get(
            label, (0, 0.0))[1]
    out["sim.callback.other.self_s"] = sum(
        self_s for label, (_calls, self_s) in tracer.labels.items()
        if label not in LABELS)

    sent = counters.get("network.datagrams_sent", 0)
    send, cohorts = seams["network.send"], seams["network.send_many"]
    out["network.send.us_per_datagram"] = _per(
        send.self_s + cohorts.self_s, sent, 1e6)
    out["network.send_many.cohort_mean"] = _per(cohorts.items, cohorts.calls)
    out["network.send_many.cohort_max"] = cohorts.max_items
    latency = seams["network.latency"]
    out["network.latency.ns_per_draw"] = _per(latency.self_s, latency.items,
                                              1e9)
    out["network.latency.items_per_call"] = _per(latency.items,
                                                 latency.calls)
    for name in ("datagrams_sent", "datagrams_delivered", "datagrams_lost",
                 "datagrams_dropped_uplink"):
        out[f"network.{name}"] = counters.get(f"network.{name}", 0)
    out["network.delivered_share"] = _per(
        counters.get("network.datagrams_delivered", 0), sent)

    for name in ("protocol.peer.recv", "protocol.servers.recv"):
        out[f"{name}.us_per_datagram"] = _per(seams[name].self_s,
                                              seams[name].calls, 1e6)
    ticks = seams["protocol.scheduler"]
    out["protocol.scheduler.us_per_tick"] = _per(ticks.self_s, ticks.calls,
                                                 1e6)
    out["protocol.scheduler.idle_tick_share"] = _per(ticks.idle, ticks.calls)
    out["protocol.scheduler.requests_per_tick"] = _per(ticks.items,
                                                       ticks.calls)
    tap = seams["capture.tap"]
    out["capture.tap.ns_per_call"] = _per(tap.self_s, tap.calls, 1e9)
    out["capture.tap.records_per_call"] = _per(
        counters.get("capture.records", 0), tap.calls)
    flows = seams["obs.flows"]
    out["obs.flows.ns_per_datagram"] = _per(flows.self_s, flows.calls, 1e9)
    units = seams["checkpoint.write_unit"]
    out["checkpoint.write_unit.ms_per_unit"] = _per(units.self_s,
                                                    units.calls, 1e3)

    attributed = (sum(seam.self_s for seam in seams.values())
                  + sum(self_s for _calls, self_s in tracer.labels.values()))
    out["trace.wall_s"] = traced_wall
    out["trace.attributed_s"] = attributed
    out["trace.coverage"] = _per(attributed, traced_wall)
    return out


_RATIOS = ("coverage", "overhead", "delivered_share", "idle_tick_share")
_PER_CALL = ("cohort_mean", "cohort_max", "items_per_call",
             "records_per_call", "requests_per_tick")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last[:6] in ("ns_per", "us_per", "ms_per"):
        return last[:2]
    if last.endswith("_s"):
        return "s"
    if last in _RATIOS:
        return "ratio"
    if last in _PER_CALL:
        return "count/call"
    return "count"
