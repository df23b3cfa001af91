"""Deterministic fault injection.

:class:`FaultInjector` arms a :class:`FaultSchedule` onto a running
scenario: every event becomes one or two simulator callbacks (begin and,
for windowed faults, end/recovery).  Determinism contract:

* each fault draws randomness only from its own stream, seeded
  ``derive_seed(master_seed, "fault:<index>:<name>")`` — adding,
  removing or reordering faults never perturbs any other stream in the
  run, and runs are byte-reproducible at any ``--jobs`` level;
* link degradation applies *multipliers after* the latency model's
  normal draws, so the underlay's RNG draw count is unchanged;
* a silent server outage (``drop_probability == 1``) makes zero draws.

Every fault emits observability metrics (``faults.*``), trace records
(``fault_begin`` / ``fault_end``) and a begin/end span in the
``"faults"`` category, so Perfetto timelines show fault windows against
the peerlist/data/playback chains.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..adversary import build_adversary
from ..network.latency import LatencyModel, PairClass, PathOverride
from ..network.transport import Host, UdpNetwork
from ..obs import INFO, Instrumentation
from ..obs import resolve as resolve_obs
from ..sim.engine import Simulator
from ..sim.random import derive_seed
from .schedule import (AdversaryEvent, FaultSchedule, FlashCrowd,
                       LinkDegradation, PeerBlackout, ServerOutage)


class FaultInjector:
    """Arms a fault schedule onto one simulated scenario."""

    def __init__(self, sim: Simulator, schedule: FaultSchedule, *,
                 network: UdpNetwork, latency: LatencyModel,
                 bootstrap: Optional[Host] = None,
                 trackers: Sequence[Host] = (),
                 source: Optional[Host] = None,
                 population=None,
                 master_seed: int = 0,
                 flow_ledger=None,
                 obs: Optional[Instrumentation] = None) -> None:
        self.sim = sim
        self.schedule = schedule
        self.network = network
        self.latency = latency
        self.bootstrap = bootstrap
        self.trackers = list(trackers)
        self.source = source
        self.population = population
        self.master_seed = master_seed
        #: Optional :class:`repro.obs.FlowLedger` — adversarial peers'
        #: addresses are marked so their bytes are tagged in flow totals.
        self.flow_ledger = flow_ledger

        self.faults_begun = 0
        self.faults_ended = 0
        self.adversaries_attached = 0
        #: Fault name -> installed spawn hook, for window teardown.
        self._adversary_hooks: Dict[str, object] = {}
        #: Names of currently active (windowed) faults.
        self.active: List[str] = []
        self._armed = False
        self._spans_open: Dict[str, object] = {}

        obs = resolve_obs(obs)
        self._obs = obs
        self._trace = obs.trace
        self._spans = obs.spans
        self._metrics = obs.metrics
        self._g_active = obs.metrics.gauge("faults.active")

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every event; returns the number of events armed."""
        if self._armed:
            raise RuntimeError("schedule already armed")
        self._armed = True
        for index, event in enumerate(self.schedule.events):
            name = self.schedule.name_of(index)
            rng = random.Random(derive_seed(
                self.master_seed, f"fault:{index}:{name}"))
            if isinstance(event, ServerOutage):
                self._arm_outage(name, event, rng)
            elif isinstance(event, LinkDegradation):
                self._arm_degradation(name, event)
            elif isinstance(event, PeerBlackout):
                self._arm_blackout(name, event, rng)
            elif isinstance(event, FlashCrowd):
                self._arm_flash_crowd(name, event, rng)
            elif isinstance(event, AdversaryEvent):
                self._arm_adversary(name, event, rng)
            else:  # pragma: no cover - schedule validation forbids this
                raise TypeError(f"unknown fault event {event!r}")
        return len(self.schedule.events)

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------
    def _begin(self, name: str, event, **details) -> None:
        self.faults_begun += 1
        self.active.append(name)
        self._g_active.set(len(self.active))
        self._metrics.counter("faults.injected",
                              {"kind": event.KIND}).inc()
        if self._trace.enabled_for(INFO):
            self._trace.emit(self.sim.now, INFO, "fault_begin",
                             fault=name, kind=event.KIND, **details)
        if self._spans.enabled:
            self._spans_open[name] = self._spans.start_span(
                f"fault:{event.KIND}", "faults", self.sim.now,
                actor="faults", fault=name, **details)

    def _end(self, name: str, event, **details) -> None:
        self.faults_ended += 1
        if name in self.active:
            self.active.remove(name)
        self._g_active.set(len(self.active))
        self._metrics.counter("faults.recovered",
                              {"kind": event.KIND}).inc()
        if self._trace.enabled_for(INFO):
            self._trace.emit(self.sim.now, INFO, "fault_end",
                             fault=name, kind=event.KIND, **details)
        span = self._spans_open.pop(name, None)
        if span is not None:
            span.finish(self.sim.now)

    def _instant(self, name: str, event, **details) -> None:
        self.faults_begun += 1
        self.faults_ended += 1
        self._metrics.counter("faults.injected",
                              {"kind": event.KIND}).inc()
        self._metrics.counter("faults.recovered",
                              {"kind": event.KIND}).inc()
        if self._trace.enabled_for(INFO):
            self._trace.emit(self.sim.now, INFO, "fault_begin",
                             fault=name, kind=event.KIND, **details)
        if self._spans.enabled:
            self._spans.instant(f"fault:{event.KIND}", "faults",
                                self.sim.now, actor="faults", fault=name,
                                **details)

    # ------------------------------------------------------------------
    # Server outages
    # ------------------------------------------------------------------
    def _outage_hosts(self, target: str) -> List[Host]:
        if target == "bootstrap":
            hosts = [self.bootstrap]
        elif target == "source":
            hosts = [self.source]
        elif target == "trackers":
            hosts = list(self.trackers)
        else:  # "tracker:<group_id>", validated by the schedule
            group_id = int(target.split(":", 1)[1])
            hosts = [t for t in self.trackers
                     if getattr(t, "group_id", None) == group_id]
        present = [h for h in hosts if h is not None]
        if not present:
            raise ValueError(
                f"outage target {target!r} matches no deployed server")
        return present

    def _arm_outage(self, name: str, event: ServerOutage,
                    rng: random.Random) -> None:
        self.sim.call_at(event.start,
                         partial(self._outage_begin, name, event, rng),
                         label="fault-begin")
        self.sim.call_at(event.end,
                         partial(self._outage_end, name, event),
                         label="fault-end")

    def _outage_begin(self, name: str, event: ServerOutage,
                      rng: random.Random) -> None:
        hosts = self._outage_hosts(event.target)
        for host in hosts:
            host.install_fault_filter(event.drop_probability, rng)
        self._begin(name, event, target=event.target,
                    servers=len(hosts),
                    drop_probability=event.drop_probability)

    def _outage_end(self, name: str, event: ServerOutage) -> None:
        for host in self._outage_hosts(event.target):
            host.clear_fault_filter()
        self._end(name, event, target=event.target)

    # ------------------------------------------------------------------
    # Link degradation
    # ------------------------------------------------------------------
    def _arm_degradation(self, name: str, event: LinkDegradation) -> None:
        pair_class = PairClass(event.pair_class)
        override = PathOverride(
            loss_multiplier=event.loss_multiplier,
            extra_loss=event.extra_loss,
            latency_multiplier=event.latency_multiplier,
            bandwidth_multiplier=event.bandwidth_multiplier)
        self.sim.call_at(event.start,
                         partial(self._degradation_begin, name, event,
                                 pair_class, override),
                         label="fault-begin")
        self.sim.call_at(event.end,
                         partial(self._degradation_end, name, event,
                                 pair_class, override),
                         label="fault-end")

    def _degradation_begin(self, name: str, event: LinkDegradation,
                           pair_class: PairClass,
                           override: PathOverride) -> None:
        self.latency.push_override(pair_class, override)
        self._begin(name, event, pair_class=event.pair_class,
                    loss_multiplier=event.loss_multiplier,
                    extra_loss=event.extra_loss,
                    latency_multiplier=event.latency_multiplier,
                    bandwidth_multiplier=event.bandwidth_multiplier)

    def _degradation_end(self, name: str, event: LinkDegradation,
                         pair_class: PairClass,
                         override: PathOverride) -> None:
        self.latency.pop_override(pair_class, override)
        self._end(name, event, pair_class=event.pair_class)

    # ------------------------------------------------------------------
    # Correlated peer failure
    # ------------------------------------------------------------------
    def _arm_blackout(self, name: str, event: PeerBlackout,
                      rng: random.Random) -> None:
        self.sim.call_at(event.start,
                         partial(self._blackout_strike, name, event, rng),
                         label="fault-begin")

    def _blackout_strike(self, name: str, event: PeerBlackout,
                         rng: random.Random) -> None:
        if self.population is None:
            raise ValueError("peer_blackout needs a population manager")
        victims = [viewer for viewer in self.population.active
                   if getattr(viewer, "isp", None) is not None
                   and viewer.isp.name == event.isp_name]
        count = int(len(victims) * event.fraction + 0.5)
        chosen = rng.sample(victims, count) if count else []
        for viewer in chosen:
            self.population.crash_viewer(viewer)
        self._instant(name, event, isp=event.isp_name,
                      crashed=len(chosen), eligible=len(victims))

    # ------------------------------------------------------------------
    # Flash crowds
    # ------------------------------------------------------------------
    def _arm_flash_crowd(self, name: str, event: FlashCrowd,
                         rng: random.Random) -> None:
        # Arrival instants are drawn once, at arm time, from the fault's
        # own stream: a fixed draw count per event.
        offsets = sorted(rng.uniform(0.0, event.duration)
                         for _ in range(event.arrivals))
        self.sim.call_at(event.start,
                         partial(self._crowd_begin, name, event),
                         label="fault-begin")
        for offset in offsets:
            self.sim.call_at(event.start + offset, self._crowd_arrive,
                             label="fault-arrival")
        self.sim.call_at(event.end,
                         partial(self._crowd_end, name, event),
                         label="fault-end")

    def _crowd_begin(self, name: str, event: FlashCrowd) -> None:
        self._begin(name, event, arrivals=event.arrivals,
                    duration=event.duration)

    def _crowd_arrive(self) -> None:
        if self.population is None:
            raise ValueError("flash_crowd needs a population manager")
        self.population.inject_arrival()

    def _crowd_end(self, name: str, event: FlashCrowd) -> None:
        self._end(name, event, arrivals=event.arrivals)

    # ------------------------------------------------------------------
    # Adversarial peers
    # ------------------------------------------------------------------
    def _arm_adversary(self, name: str, event: AdversaryEvent,
                       rng: random.Random) -> None:
        self.sim.call_at(event.start,
                         partial(self._adversary_begin, name, event, rng),
                         label="fault-begin")
        self.sim.call_at(event.end,
                         partial(self._adversary_end, name, event),
                         label="fault-end")

    def _adversary_begin(self, name: str, event: AdversaryEvent,
                         rng: random.Random) -> None:
        if self.population is None:
            raise ValueError("adversary needs a population manager")
        hook = partial(self._adversary_spawn, name, event, rng)
        self._adversary_hooks[name] = hook
        self.population.add_spawn_hook(hook)
        self._begin(name, event, behavior=event.behavior,
                    fraction=event.fraction)

    def _adversary_spawn(self, name: str, event: AdversaryEvent,
                         rng: random.Random, viewer) -> None:
        """Spawn hook: each arrival in the window independently turns
        adversarial with probability ``fraction``.  All draws — the
        attach decision and the attached model's seed — come from the
        event's own stream, so honest peers' draw sequences never
        move."""
        if rng.random() >= event.fraction:
            return
        model = build_adversary(event.behavior, rng.getrandbits(64))
        viewer.attach_adversary(model)
        self.adversaries_attached += 1
        self._metrics.counter("faults.adversaries_attached",
                              {"behavior": event.behavior}).inc()
        if self.flow_ledger is not None:
            self.flow_ledger.mark_adversarial(viewer.address)
        if self._trace.enabled_for(INFO):
            self._trace.emit(self.sim.now, INFO, "adversary_attached",
                             fault=name, behavior=event.behavior,
                             peer=viewer.address)

    def _adversary_end(self, name: str, event: AdversaryEvent) -> None:
        hook = self._adversary_hooks.pop(name, None)
        if hook is not None and self.population is not None:
            self.population.remove_spawn_hook(hook)
        self._end(name, event, behavior=event.behavior)
