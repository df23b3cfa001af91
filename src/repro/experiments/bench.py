"""Machine-readable micro-benchmarks: the simulator's perf trajectory.

``repro bench`` runs two fixed-seed micro-benchmarks and writes one JSON
artifact each at the repository root:

* **engine** (``BENCH_engine.json``) — one canonical ``tele-popular``
  viewing session (the same workload behind
  ``benchmarks/test_bench_overlay.py``): events/second of the
  discrete-event core under real protocol traffic.
* **campaign** (``BENCH_campaign.json``) — the Figure 6 campaign; the
  ``quick`` profile is byte-for-byte the golden configuration of
  ``tests/test_campaign_goldens.py``, so its digest doubles as a
  correctness gate.

Each profile records events/sec, wall-clock seconds, peak RSS and a
**golden digest** computed purely from deterministic simulation outputs
(event/datagram counters, rendered Figure 6 table) — never from timing —
so the digest is machine-independent: it must match on any host, while
the wall/RSS fields chart the perf trajectory across commits.  CI runs
``repro bench --quick --check`` and fails when a digest drifts from the
committed baseline.

Each benchmark runs **twice**: a timing pass identical to the historical
semantics (no instrumentation on the engine bench, metrics-only on the
campaign bench), whose events/sec stays comparable with every committed
baseline, and an *attribution* pass with the engine profiler attached
(heartbeat sampler off, so the event stream is untouched) that buckets
the wall time per subsystem (:mod:`repro.obs.attribution`).  The
attribution pass's golden digest is cross-checked against the timing
pass — if profiling ever perturbed the simulation, the bench fails loud.

``repro bench --diff`` compares two artifacts (or a fresh run against
the committed baseline) and exits non-zero when events/sec regresses
beyond a threshold; per-subsystem deltas point at the guilty layer.
"""

from __future__ import annotations

import hashlib
import json
import platform as _platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from ..obs import (EngineProfiler, Instrumentation, MetricsRegistry,
                   build_attribution, peak_rss_bytes, render_attribution)
from ..streaming.video import Popularity
from ..workload.campaign import CampaignConfig, run_campaign
from ..workload.scenario import SessionScenario
from .base import Scale, WorkloadKey, build_config
from .fig06 import Figure6

SCHEMA_VERSION = 1

ENGINE_FILE = "BENCH_engine.json"
CAMPAIGN_FILE = "BENCH_campaign.json"

ENGINE_PROFILES = ("quick", "default")
CAMPAIGN_PROFILES = ("quick", "default")


def _environment() -> dict:
    """Host fingerprint stored next to ``git_rev`` in every artifact.

    Wall-clock numbers are only comparable when they were measured on
    the same interpreter, platform and numpy build;
    ``diff_records`` warns (never fails) when two artifacts disagree
    here, so a cross-machine comparison is flagged as apples-to-oranges
    instead of read as a regression.
    """
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python_version": _platform.python_version(),
        "platform": _platform.platform(),
        "numpy": numpy_version,
    }


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


#: Minimum attribution coverage the bench suite will accept: at least
#: this share of a profiled run's wall time must land in a named bucket.
MIN_ATTRIBUTION_COVERAGE = 0.9


def engine_config(profile: str, seed: int = 7):
    """Scenario behind one engine-bench profile.

    ``default`` is the canonical small-scale ``tele-popular`` session —
    the exact workload of ``benchmarks/test_bench_overlay.py`` at
    ``REPRO_BENCH_SCALE=small``; ``quick`` is a trimmed variant sized
    for a CI smoke step.
    """
    key = WorkloadKey("tele", Popularity.POPULAR, Scale.SMALL, seed)
    config = build_config(key)
    if profile == "quick":
        config.population = 24
        config.warmup = 90.0
        config.duration = 180.0
    elif profile != "default":
        raise ValueError(f"unknown engine profile {profile!r}")
    return config


def campaign_config(profile: str, seed: int = 11) -> CampaignConfig:
    """Campaign behind one campaign-bench profile.

    ``quick`` **is** the golden configuration pinned by
    ``tests/test_campaign_goldens.py`` (seed 11): its table digest must
    equal ``GOLDEN_TABLE_DIGEST`` there.
    """
    if profile == "quick":
        return CampaignConfig(seed=seed, days=3, popular_population=10,
                              unpopular_population=6,
                              session_duration=120.0, warmup=60.0)
    if profile == "default":
        return CampaignConfig(seed=seed, days=6, popular_population=14,
                              unpopular_population=8,
                              session_duration=240.0, warmup=80.0)
    raise ValueError(f"unknown campaign profile {profile!r}")


def _series_digest(result) -> str:
    """Same formula as tests/test_campaign_goldens.py — keep in sync."""
    parts = []
    for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR):
        for curve in ("CNC", "TELE", "Mason"):
            parts.append(",".join(f"{value:.9e}" for value
                                  in result.series(popularity, curve)))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _engine_digest(result) -> str:
    """Machine-independent digest of one session's counters."""
    sim = result.deployment.sim
    udp = result.deployment.internet.udp
    counters = (sim.events_executed, udp.datagrams_sent,
                udp.datagrams_delivered, udp.datagrams_lost,
                udp.datagrams_dropped_uplink, udp.datagrams_dropped_offline,
                udp.datagrams_dropped_fault, udp.bytes_delivered)
    return hashlib.sha256(
        "|".join(str(value) for value in counters).encode()).hexdigest()


def _engine_attribution(profile: str, seed: int,
                        expected_digest: str) -> dict:
    """The attribution pass: same workload, profiler attached.

    The heartbeat sampler stays off (``heartbeat=False``) so the event
    stream — and with it ``events_executed`` and the golden digest — is
    byte-identical to the uninstrumented timing pass; the cross-check
    makes that a hard invariant, not an assumption.
    """
    profiler = EngineProfiler()
    config = engine_config(profile, seed)
    config = replace(config, instrumentation=Instrumentation(
        profiler=profiler, heartbeat=False))
    started = time.perf_counter()
    result = SessionScenario(config).run()
    wall = time.perf_counter() - started
    digest = _engine_digest(result)
    if digest != expected_digest:
        raise RuntimeError(
            f"engine:{profile} attribution pass diverged from timing pass "
            f"({digest[:12]}… != {expected_digest[:12]}…); profiling must "
            f"not perturb the simulation")
    return build_attribution(profiler, wall)


def run_engine_bench(profile: str = "quick", seed: int = 7,
                     attribution: bool = True) -> dict:
    """One engine micro-benchmark run; returns its record dict."""
    config = engine_config(profile, seed)
    started = time.perf_counter()
    result = SessionScenario(config).run()
    wall = time.perf_counter() - started
    sim = result.deployment.sim
    udp = result.deployment.internet.udp
    digest = _engine_digest(result)
    record = {
        "profile": profile,
        "seed": seed,
        "population": config.population,
        "sim_seconds": config.warmup + config.duration,
        "events": sim.events_executed,
        "datagrams_sent": udp.datagrams_sent,
        "datagrams_delivered": udp.datagrams_delivered,
        "wall_seconds": round(wall, 3),
        "events_per_sec": round(sim.events_executed / wall, 1),
        "peak_rss_bytes": peak_rss_bytes(),
        "golden_digest": digest,
    }
    if attribution:
        record["attribution"] = _engine_attribution(profile, seed, digest)
    return record


def _campaign_attribution(profile: str, seed: int,
                          expected_series: str) -> dict:
    """Campaign attribution pass (serial, profiler on, heartbeat off)."""
    profiler = EngineProfiler()
    config = campaign_config(profile, seed)
    config = replace(config, instrumentation=Instrumentation(
        metrics=MetricsRegistry(), profiler=profiler, heartbeat=False))
    started = time.perf_counter()
    result = run_campaign(config, jobs=1)
    wall = time.perf_counter() - started
    series = _series_digest(result)
    if series != expected_series:
        raise RuntimeError(
            f"campaign:{profile} attribution pass diverged from timing "
            f"pass ({series[:12]}… != {expected_series[:12]}…); profiling "
            f"must not perturb the simulation")
    return build_attribution(profiler, wall)


def run_campaign_bench(profile: str = "quick", seed: int = 11,
                       jobs: int = 1, attribution: bool = True) -> dict:
    """One campaign micro-benchmark run; returns its record dict."""
    config = campaign_config(profile, seed)
    metrics = MetricsRegistry()
    config = replace(config,
                     instrumentation=Instrumentation(metrics=metrics))
    started = time.perf_counter()
    result = run_campaign(config, jobs=jobs)
    wall = time.perf_counter() - started
    table = Figure6(result=result).render()
    table_digest = hashlib.sha256(table.encode()).hexdigest()
    events_counter = metrics.get("sim.events_executed")
    events = int(events_counter.value) if events_counter is not None else 0
    series = _series_digest(result)
    record = {
        "profile": profile,
        "seed": seed,
        "days": config.days,
        "jobs": jobs,
        "events": events,
        "wall_seconds": round(wall, 3),
        "events_per_sec": round(events / wall, 1) if events else None,
        "peak_rss_bytes": peak_rss_bytes(),
        "golden_digest": table_digest,
        "series_digest": series,
    }
    if attribution:
        record["attribution"] = _campaign_attribution(profile, seed, series)
    return record


def _load(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _merged(path: Path, benchmark: str, records: Dict[str, dict]) -> dict:
    """Existing file content with ``records`` profiles replaced."""
    existing = _load(path)
    profiles = dict(existing.get("profiles", {})) if existing else {}
    profiles.update(records)
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "command": "repro bench",
        "git_rev": _git_rev(),
        "environment": _environment(),
        "profiles": profiles,
    }


def _check_drift(baseline: Optional[dict], records: Dict[str, dict],
                 name: str, out) -> List[str]:
    failures = []
    base_profiles = (baseline or {}).get("profiles", {})
    for profile, record in records.items():
        pinned = base_profiles.get(profile, {}).get("golden_digest")
        measured = record["golden_digest"]
        if pinned is None:
            failures.append(f"{name}:{profile}: no committed baseline digest")
        elif pinned != measured:
            failures.append(f"{name}:{profile}: golden digest drifted "
                            f"(baseline {pinned[:12]}… != "
                            f"measured {measured[:12]}…)")
        else:
            print(f"[bench] {name}:{profile} digest OK "
                  f"({measured[:12]}…)", file=out)
    return failures


def load_bench(path: Path) -> dict:
    """Load one bench artifact, raising on unreadable/invalid files."""
    data = _load(Path(path))
    if data is None or "profiles" not in data:
        raise ValueError(f"not a bench artifact: {path}")
    return data


def _check_coverage(records: Dict[str, dict], name: str) -> List[str]:
    """Attribution coverage gate: buckets must explain the wall time."""
    failures = []
    for profile, record in records.items():
        attribution = record.get("attribution")
        if attribution is None:
            continue
        coverage = attribution.get("coverage", 0.0)
        if coverage < MIN_ATTRIBUTION_COVERAGE:
            failures.append(
                f"{name}:{profile}: attribution coverage {coverage:.1%} "
                f"below {MIN_ATTRIBUTION_COVERAGE:.0%} — a hot path is "
                f"running outside every subsystem bucket")
    return failures


def diff_records(base: dict, new: dict, threshold: float, name: str,
                 out) -> List[str]:
    """Per-profile perf deltas between two artifacts of one benchmark.

    Only an events/sec *drop* beyond ``threshold`` counts as a
    regression (wall time and attribution deltas are informational —
    they point at the layer, they don't gate).  Profiles present on only
    one side are reported but never fail the diff.
    """
    failures: List[str] = []
    base_env, new_env = base.get("environment"), new.get("environment")
    if base_env != new_env:
        # Older artifacts predate the environment header (None); either
        # way the wall-clock comparison below is cross-host, so say so.
        def _env_label(env: Optional[dict]) -> str:
            if not env:
                return "unrecorded"
            numpy_version = env.get("numpy")
            return (f"py {env.get('python_version', '?')} on "
                    f"{env.get('platform', '?')}, numpy "
                    f"{numpy_version if numpy_version else 'absent'}")
        print(f"[diff] {name}: WARNING environments differ — timing "
              f"deltas are apples-to-oranges\n"
              f"[diff]   baseline: {_env_label(base_env)}\n"
              f"[diff]   new:      {_env_label(new_env)}", file=out)
    base_profiles = base.get("profiles", {})
    new_profiles = new.get("profiles", {})
    for profile in sorted(set(base_profiles) | set(new_profiles)):
        if profile not in base_profiles or profile not in new_profiles:
            side = "baseline" if profile not in new_profiles else "new"
            print(f"[diff] {name}:{profile} only in {side} artifact; "
                  f"skipped", file=out)
            continue
        old, cur = base_profiles[profile], new_profiles[profile]
        if old.get("golden_digest") != cur.get("golden_digest"):
            print(f"[diff] {name}:{profile} golden digest differs — the "
                  f"workload changed; treat deltas as apples-to-oranges",
                  file=out)
        old_rate, new_rate = (old.get("events_per_sec"),
                              cur.get("events_per_sec"))
        if old_rate and new_rate:
            delta = (new_rate - old_rate) / old_rate
            verdict = ""
            if delta < -threshold:
                verdict = "  ** REGRESSION **"
                failures.append(
                    f"{name}:{profile}: events/sec regressed {delta:+.1%} "
                    f"({old_rate:.0f} -> {new_rate:.0f}, threshold "
                    f"-{threshold:.0%})")
            print(f"[diff] {name}:{profile} events/sec "
                  f"{old_rate:.0f} -> {new_rate:.0f} ({delta:+.1%})"
                  f"{verdict}", file=out)
        old_wall, new_wall = old.get("wall_seconds"), cur.get("wall_seconds")
        if old_wall and new_wall:
            delta = (new_wall - old_wall) / old_wall
            print(f"[diff] {name}:{profile} wall "
                  f"{old_wall:.2f}s -> {new_wall:.2f}s ({delta:+.1%})",
                  file=out)
        old_attr, new_attr = old.get("attribution"), cur.get("attribution")
        if old_attr and new_attr:
            for line in _attribution_delta_lines(old_attr, new_attr):
                print(f"[diff]   {line}", file=out)
    return failures


def _attribution_delta_lines(old: dict, new: dict) -> List[str]:
    """Per-subsystem wall deltas, largest absolute change first."""
    old_buckets = old.get("buckets", {})
    new_buckets = new.get("buckets", {})
    rows = []
    for bucket in set(old_buckets) | set(new_buckets):
        old_wall = old_buckets.get(bucket, {}).get("wall_seconds", 0.0)
        new_wall = new_buckets.get(bucket, {}).get("wall_seconds", 0.0)
        rows.append((abs(new_wall - old_wall), bucket, old_wall, new_wall))
    lines = []
    for _, bucket, old_wall, new_wall in sorted(
            rows, key=lambda row: (-row[0], row[1])):
        delta = new_wall - old_wall
        pct = f" ({delta / old_wall:+.1%})" if old_wall else ""
        lines.append(f"{bucket:<12} {old_wall:7.3f}s -> {new_wall:7.3f}s "
                     f"[{delta:+.3f}s]{pct}")
    return lines


def run_bench_diff(old_path: Path, new_path: Path,
                   threshold: float = 0.10, out=None) -> int:
    """Pure comparison of two bench artifacts; no simulation runs."""
    out = out if out is not None else sys.stderr
    old, new = load_bench(old_path), load_bench(new_path)
    name = new.get("benchmark") or old.get("benchmark") or "bench"
    failures = diff_records(old, new, threshold, name, out)
    for failure in failures:
        print(f"[bench] FAIL {failure}", file=out)
    return 1 if failures else 0


def run_bench(out_dir: Path, quick: bool = False, check: bool = False,
              baseline_dir: Optional[Path] = None,
              only: Optional[str] = None,
              engine_seed: int = 7, campaign_seed: int = 11,
              diff_baseline: bool = False, threshold: float = 0.10,
              out=None) -> int:
    """Run the bench suite; returns a process exit code.

    ``diff_baseline`` compares the fresh records against the committed
    artifacts (loaded *before* they are overwritten) and fails on
    events/sec regressions beyond ``threshold``.
    """
    out = out if out is not None else sys.stderr
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    baseline_dir = Path(baseline_dir) if baseline_dir is not None else None
    profiles = ("quick",) if quick else ("quick", "default")
    failures: List[str] = []

    if only in (None, "engine"):
        records = {}
        for profile in profiles:
            print(f"[bench] engine:{profile} (seed {engine_seed}) ...",
                  file=out)
            records[profile] = run_engine_bench(profile, engine_seed)
            print(f"[bench] engine:{profile} "
                  f"{records[profile]['events_per_sec']:.0f} events/sec "
                  f"in {records[profile]['wall_seconds']:.2f}s", file=out)
            print(render_attribution(records[profile].get("attribution")),
                  file=out)
        path = out_dir / ENGINE_FILE
        base = _load((baseline_dir or out_dir) / ENGINE_FILE)
        if check:
            failures += _check_drift(base, records, "engine", out)
        failures += _check_coverage(records, "engine")
        if diff_baseline:
            failures += diff_records(
                base or {},
                {"profiles": records, "environment": _environment()},
                threshold, "engine", out)
        path.write_text(json.dumps(_merged(path, "engine", records),
                                   indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"[bench] wrote {path}", file=out)

    if only in (None, "campaign"):
        records = {}
        for profile in profiles:
            print(f"[bench] campaign:{profile} (seed {campaign_seed}) ...",
                  file=out)
            records[profile] = run_campaign_bench(profile, campaign_seed)
            print(f"[bench] campaign:{profile} "
                  f"{records[profile]['wall_seconds']:.2f}s wall", file=out)
            print(render_attribution(records[profile].get("attribution")),
                  file=out)
        path = out_dir / CAMPAIGN_FILE
        base = _load((baseline_dir or out_dir) / CAMPAIGN_FILE)
        if check:
            failures += _check_drift(base, records, "campaign", out)
        failures += _check_coverage(records, "campaign")
        if diff_baseline:
            failures += diff_records(
                base or {},
                {"profiles": records, "environment": _environment()},
                threshold, "campaign", out)
        path.write_text(json.dumps(_merged(path, "campaign", records),
                                   indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"[bench] wrote {path}", file=out)

    for failure in failures:
        print(f"[bench] FAIL {failure}", file=out)
    return 1 if failures else 0
