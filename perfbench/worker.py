"""One workload execution in a fresh process; ``run.py`` starts one per run.

Usage (from the root of a checkout)::

    python3 perfbench/worker.py --workload stream --started <monotonic>
        [--trace] [--setup-only]

``--started`` is the parent's ``time.monotonic()`` just before it spawned
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import repro`` and config building up to workload
entry.  The last stdout line is one JSON object with the execution's
measurements and digests.  Any exception exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import repro  # noqa: E402
from repro.checkpoint import CheckpointPolicy  # noqa: E402
from repro.experiments.bench import (campaign_config,  # noqa: E402
                                     engine_config)
from repro.experiments.fig06 import Figure6  # noqa: E402
from repro.obs.flows import FlowSpec  # noqa: E402
from repro.streaming.video import Popularity  # noqa: E402
from repro.workload.campaign import run_campaign  # noqa: E402
from repro.workload.scenario import SessionScenario  # noqa: E402

#: Scratch space for the campaign's checkpoint store, inside the
#: checkout; each execution gets (and removes) its own subdirectory.
WORK_DIR = ROOT / ".perfbench_work"

#: Simulation seeds and sizes are fixed so the digests can be pinned.
STREAM_SEED = 7
CAMPAIGN_SEED = 11
SWARM_POPULATION = 400
#: Viewing window after the 150 s warm-up; the warm-up of 400 peers is
#: most of the execution's cost.
SWARM_DURATION = 1.0

#: Digests of deterministic outputs only.  stream: BENCH_engine.json
#: ``default.golden_digest``; campaign: BENCH_campaign.json ``quick``
#: table and series digests; swarm: pinned here.
PINS = {
    "stream": {"counters": "470c7804aad6770cf3b78dd70a795c87"
                           "c40b1e74c5bbee5dbd084f9389d04341"},
    "campaign": {"table": "08a1945b7e86ce88ecb2be310ad85a56"
                          "f4baee2587232c98c318d44e65589d4b",
                 "series": "e0c96fc03036676443b4725f416446f5"
                           "e4d894dc08c5af309537a98e9e3aa543"},
    "swarm": {"counters": "28daba7f836eb6ad61305488420115f0"
                          "949e99ed54da2c8d15f3a539a4a0494e"},
}


# The two digest formulas are restated here rather than imported from
# repro.experiments.bench's private helpers, so the benchmark depends on
# public entry points only; the pins check that they still agree.
def counter_digest(result) -> str:
    """The counter tuple of ``repro bench``'s engine digest."""
    sim = result.deployment.sim
    udp = result.deployment.internet.udp
    counters = (sim.events_executed, udp.datagrams_sent,
                udp.datagrams_delivered, udp.datagrams_lost,
                udp.datagrams_dropped_uplink, udp.datagrams_dropped_offline,
                udp.datagrams_dropped_fault, udp.bytes_delivered)
    return hashlib.sha256(
        "|".join(str(value) for value in counters).encode()).hexdigest()


def series_digest(result) -> str:
    """The Figure 6 series digest of ``tests/test_campaign_goldens.py``."""
    parts = []
    for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR):
        for curve in ("CNC", "TELE", "Mason"):
            parts.append(",".join(f"{value:.9e}" for value
                                  in result.series(popularity, curve)))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


class Session:
    """``stream`` and ``swarm``: one viewing session."""

    def __init__(self, workload: str) -> None:
        config = engine_config("default", STREAM_SEED)
        if workload == "swarm":
            config.population = SWARM_POPULATION
            config.duration = SWARM_DURATION
        self.scenario = SessionScenario(config)

    def run(self):
        return self.scenario.run()

    def finish(self, result):
        """``(events executed, digests)`` of a finished execution."""
        return (result.deployment.sim.events_executed,
                {"counters": counter_digest(result)})

    def close(self) -> None:
        pass


class Campaign:
    """``campaign``: the quick Figure 6 campaign, serial, with the flow
    ledger on and a checkpoint written after every unit."""

    def __init__(self, workload: str) -> None:
        self.config = replace(campaign_config("quick", CAMPAIGN_SEED),
                              flows=FlowSpec())
        WORK_DIR.mkdir(exist_ok=True)
        self.store = tempfile.mkdtemp(dir=WORK_DIR)
        self.policy = CheckpointPolicy(self.store, every=1)

    def run(self):
        result = run_campaign(self.config, jobs=1, checkpoint=self.policy)
        return result, Figure6(result=result).render()

    def finish(self, outcome):
        result, table = outcome
        events = sum(day.events_executed
                     for day in result.popular + result.unpopular)
        return events, {"table": hashlib.sha256(table.encode()).hexdigest(),
                        "series": series_digest(result)}

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


WORKLOADS = {"stream": Session, "campaign": Campaign, "swarm": Session}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--started", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {SRC}")

    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    workload = WORKLOADS[args.workload](args.workload)
    try:
        record = {"workload": args.workload,
                  "setup_s": time.monotonic() - args.started}
        if not args.setup_only:
            started = time.perf_counter()
            outcome = workload.run()
            wall = time.perf_counter() - started
            events, digests = workload.finish(outcome)
            record.update(
                wall_s=wall, events=events, digests=digests,
                digest_ok=digests == PINS[args.workload],
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                python_version=platform.python_version(),
                platform=platform.platform(), numpy=numpy.__version__)
            if tracer is not None:
                record["layers"] = layers.layer_metrics(tracer, wall)
    finally:
        workload.close()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
