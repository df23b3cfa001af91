"""The golden-digest gate behind ``repro bench``.

``repro bench`` reruns two fixed-seed workloads and pins what they
compute in one JSON file each at the repository root:

* **engine** (``BENCH_engine.json``) — one canonical ``tele-popular``
  viewing session (the same workload behind
  ``benchmarks/test_bench_overlay.py``); its digest hashes the event
  and datagram counters.
* **campaign** (``BENCH_campaign.json``) — the Figure 6 campaign; the
  ``quick`` profile is byte-for-byte the golden configuration of
  ``tests/test_campaign_goldens.py``, so its digests double as the
  campaign goldens.

Every field of a record comes from deterministic simulation outputs —
never from timing — so a pin must match on any host.  ``repro bench
--check`` recomputes every profile and fails when a record differs
from its pin; it never writes.  Plain ``repro bench`` rewrites the
files, for a change that alters results on purpose.

Nothing here measures time: ``python3 perfbench/run.py`` does, on one
host, end to end and by code layer (see ``perfbench/README.md``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..obs import Instrumentation, MetricsRegistry
from ..streaming.video import Popularity
from ..workload.campaign import CampaignConfig, run_campaign
from ..workload.scenario import SessionScenario
from .base import Scale, WorkloadKey, build_config
from .fig06 import Figure6

SCHEMA_VERSION = 2

ENGINE_FILE = "BENCH_engine.json"
CAMPAIGN_FILE = "BENCH_campaign.json"

PROFILES = ("quick", "default")


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


def engine_record(profile: str, seed: int = 7) -> dict:
    """Run one engine profile; returns its pinned record."""
    config = engine_config(profile, seed)
    result = SessionScenario(config).run()
    return {
        "profile": profile,
        "seed": seed,
        "population": config.population,
        "sim_seconds": config.warmup + config.duration,
        "events": result.deployment.sim.events_executed,
        "golden_digest": _engine_digest(result),
    }


def campaign_record(profile: str, seed: int = 11) -> dict:
    """Run one campaign profile serially; returns its pinned record."""
    config = campaign_config(profile, seed)
    metrics = MetricsRegistry()
    result = run_campaign(replace(config, instrumentation=Instrumentation(
        metrics=metrics)), jobs=1)
    table = Figure6(result=result).render()
    return {
        "profile": profile,
        "seed": seed,
        "days": config.days,
        "events": int(metrics.get("sim.events_executed").value),
        "golden_digest": hashlib.sha256(table.encode()).hexdigest(),
        "series_digest": _series_digest(result),
    }


#: Benchmark name -> (pin file, record builder).
BENCHMARKS = {
    "engine": (ENGINE_FILE, engine_record),
    "campaign": (CAMPAIGN_FILE, campaign_record),
}


def _load(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _short(value) -> str:
    text = str(value)
    return text[:12] + "…" if len(text) > 12 else text


def _check_drift(baseline: Optional[dict], records: Dict[str, dict],
                 name: str, out) -> List[str]:
    """Failures for every record that differs from its committed pin."""
    failures = []
    pins = (baseline or {}).get("profiles", {})
    for profile, record in records.items():
        pinned = pins.get(profile)
        if pinned is None:
            failures.append(f"{name}:{profile}: no committed pin")
            continue
        drifted = [f"{key} {_short(pinned.get(key))} != "
                   f"{_short(record.get(key))}"
                   for key in sorted(set(pinned) | set(record))
                   if pinned.get(key) != record.get(key)]
        if drifted:
            failures.append(f"{name}:{profile}: drifted from the committed "
                            f"pin (pinned != measured: "
                            f"{'; '.join(drifted)})")
        else:
            print(f"[bench] {name}:{profile} digest OK "
                  f"({_short(record['golden_digest'])})", file=out)
    return failures


def run_bench(directory: Path = Path("."), check: bool = False,
              benchmarks: Sequence[str] = tuple(BENCHMARKS),
              profiles: Sequence[str] = PROFILES, out=None) -> int:
    """Recompute the pinned records; returns a process exit code.

    With ``check`` every record is compared with the file in
    ``directory`` and nothing is written; without it the files are
    rewritten from the fresh records.
    """
    out = out if out is not None else sys.stderr
    directory = Path(directory)
    failures: List[str] = []
    for name in benchmarks:
        filename, build = BENCHMARKS[name]
        records = {}
        for profile in profiles:
            print(f"[bench] {name}:{profile} ...", file=out)
            records[profile] = build(profile)
        path = directory / filename
        if check:
            failures += _check_drift(_load(path), records, name, out)
            continue
        document = {"schema": SCHEMA_VERSION, "benchmark": name,
                    "command": "repro bench", "profiles": records}
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"[bench] wrote {path}", file=out)
    for failure in failures:
        print(f"[bench] FAIL {failure}", file=out)
    return 1 if failures else 0
