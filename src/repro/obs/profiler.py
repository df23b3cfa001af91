"""Engine profiling: where does the wall-clock time go?

:class:`EngineProfiler` plugs into :class:`repro.sim.engine.Simulator`
(``Simulator(seed, profiler=...)``) and accounts executed events by their
scheduling *label* — the hitherto-unused ``label`` argument of
``call_at`` / ``call_after``: per-label event counts and cumulative
callback wall-clock time, plus periodic samples of queue depth and
events/second so a long campaign's throughput is visible while it runs.

Event *counts* are deterministic for a fixed seed; *wall-clock* fields
are not, so :meth:`export_into` publishes them under names containing
``wall`` which :func:`repro.obs.export.strip_wall_metrics` excludes when
comparing runs.

:class:`HeartbeatSampler` is the periodic sim-time progress beacon: at a
fixed simulated interval it collects a caller-supplied sample (swarm
size, neighbor fill, buffer health, ...), takes an engine sample, emits
an ``INFO`` ``heartbeat`` trace record, and optionally prints a one-line
progress report to a stream.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from .live import peak_rss_bytes
from .trace import INFO


@dataclass
class LabelProfile:
    """Accumulated cost of one event label."""

    count: int = 0
    wall_seconds: float = 0.0


@dataclass
class EngineSample:
    """One point of the engine throughput series."""

    sim_time: float
    events_executed: int
    queue_depth: int
    wall_seconds: float
    #: Events per wall-clock second since the previous sample (0.0 for
    #: the first sample).
    events_per_sec: float = 0.0


UNLABELLED = "(unlabelled)"


class EngineProfiler:
    """Per-label wall-clock/count accounting for the event loop."""

    def __init__(self) -> None:
        self._labels: Dict[str, LabelProfile] = {}
        self.samples: List[EngineSample] = []
        self._started_at = perf_counter()

    # ------------------------------------------------------------------
    # Hot path (called by Simulator.step for every event)
    # ------------------------------------------------------------------
    def record(self, label: str, wall_seconds: float) -> None:
        profile = self._labels.get(label)
        if profile is None:
            profile = self._labels[label] = LabelProfile()
        profile.count += 1
        profile.wall_seconds += wall_seconds

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, sim) -> EngineSample:
        """Record a queue-depth / throughput sample from ``sim``."""
        now_wall = perf_counter() - self._started_at
        point = EngineSample(sim_time=sim.now,
                             events_executed=sim.events_executed,
                             queue_depth=len(sim.queue),
                             wall_seconds=now_wall)
        if self.samples:
            last = self.samples[-1]
            d_wall = point.wall_seconds - last.wall_seconds
            if d_wall > 0:
                point.events_per_sec = ((point.events_executed
                                         - last.events_executed) / d_wall)
        self.samples.append(point)
        return point

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(p.count for p in self._labels.values())

    @property
    def total_wall_seconds(self) -> float:
        return sum(p.wall_seconds for p in self._labels.values())

    def label_stats(self) -> Dict[str, LabelProfile]:
        """Per-label profiles, sorted by descending wall time."""
        return dict(sorted(self._labels.items(),
                           key=lambda kv: (-kv[1].wall_seconds, kv[0])))

    def export_into(self, registry) -> None:
        """Publish the profile into a metrics registry.

        Idempotent (gauges, not counters) so it can run after every
        session of a multi-session experiment.
        """
        for label, profile in sorted(self._labels.items()):
            tags = {"label": label or UNLABELLED}
            registry.gauge("sim.events_by_label", tags).set(profile.count)
            registry.gauge("sim.wall_seconds_by_label",
                           tags).set(profile.wall_seconds)
        registry.gauge("sim.wall_seconds_total").set(self.total_wall_seconds)
        if self.samples:
            registry.gauge("sim.queue_depth_last").set(
                self.samples[-1].queue_depth)
            rates = [s.events_per_sec for s in self.samples[1:]]
            if rates:
                registry.gauge("sim.events_per_sec_wall_mean").set(
                    sum(rates) / len(rates))

    def render(self, top: int = 12) -> str:
        """Human-readable profile table."""
        lines = [f"engine profile: {self.total_events} events, "
                 f"{self.total_wall_seconds:.3f}s in callbacks"]
        lines.append(f"{'label':<20}{'events':>10}{'wall s':>10}{'avg us':>10}")
        for label, profile in list(self.label_stats().items())[:top]:
            avg_us = (profile.wall_seconds / profile.count * 1e6
                      if profile.count else 0.0)
            lines.append(f"{(label or UNLABELLED):<20}{profile.count:>10}"
                         f"{profile.wall_seconds:>10.3f}{avg_us:>10.1f}")
        return "\n".join(lines)


#: Returns the deterministic heartbeat fields for the current sim time.
SampleFn = Callable[[float], Dict[str, object]]


class HeartbeatSampler:
    """Periodic sim-time progress beacon for long runs.

    ``sample_fn(now)`` supplies the domain fields (swarm size, neighbor
    fill, backlog, playback health); the sampler adds engine fields,
    emits one ``heartbeat`` trace record per beat, and, when ``stream``
    is given, prints a single-line progress report there.
    """

    def __init__(self, sim, instrumentation, sample_fn: SampleFn,
                 interval: float = 30.0, label: str = "",
                 stream=None) -> None:
        self.sim = sim
        self.obs = instrumentation
        self.sample_fn = sample_fn
        self.label = label
        self.stream = stream
        self.beats = 0
        self._timer = sim.every(interval, self._beat, label="obs-heartbeat")

    def stop(self) -> None:
        self._timer.stop()

    def _beat(self) -> None:
        now = self.sim.now
        self.beats += 1
        fields = dict(self.sample_fn(now))
        fields["events_executed"] = self.sim.events_executed
        fields["queue_depth"] = len(self.sim.queue)
        events_per_sec = None
        profiler = self.obs.profiler
        if profiler is not None:
            point = profiler.sample(self.sim)
            if point.events_per_sec:
                events_per_sec = point.events_per_sec
                # Wall-clock rate: progress/trace only, never metrics.
                fields["events_per_sec_wall"] = round(events_per_sec, 1)
        self.obs.trace.emit(now, INFO, "heartbeat", **fields)
        bus = self.obs.progress_bus
        if bus is not None:
            beat = {"t": round(now, 3)}
            beat.update((key, value) for key, value in fields.items()
                        if key != "events_per_sec_wall")
            if events_per_sec is not None:
                beat["events_per_sec"] = round(events_per_sec, 1)
            beat["rss_bytes"] = peak_rss_bytes()
            bus.heartbeat(**beat)
        if self.stream is not None:
            self._print_progress(now, fields, events_per_sec)

    def _print_progress(self, now: float, fields: Dict[str, object],
                        events_per_sec: Optional[float]) -> None:
        parts = [f"[{self.label or 'run'}] t={now:.0f}s"]
        for key, value in fields.items():
            # Nested structures (per-ISP census) stay in trace/bus records.
            if key in ("events_per_sec_wall",) or isinstance(value, dict):
                continue
            if isinstance(value, float):
                parts.append(f"{key}={value:.2f}")
            else:
                parts.append(f"{key}={value}")
        if events_per_sec is not None:
            parts.append(f"({events_per_sec / 1000.0:.1f}k ev/s)")
        print(" ".join(parts), file=self.stream or sys.stderr)
        try:
            (self.stream or sys.stderr).flush()
        except (AttributeError, ValueError):  # pragma: no cover
            pass
