"""Checkpointed unit runs: one restore → batch → persist loop.

The campaign (one unit per (program, day)) and the resilience sweep
(one unit per cell) share one shape: a fixed list of independent
:class:`~repro.parallel.jobs.Job` units, some of which a previous,
killed run may already have persisted.  :func:`open_units` starts or
config-matches the checkpoint store and decodes what it holds;
:func:`run_units` runs everything else through
:func:`~repro.parallel.jobs.run_jobs`, persists each finished unit and
reports every unit, restored or fresh, in job order.

:func:`kill_switch_hook` is the single test seam that SIGKILLs a unit
mid-simulation, so one kill/resume test covers the campaign and the
resilience sweep alike.

This module imports :mod:`repro.checkpoint`, never the reverse:
``repro.analysis.aggregate`` imports the checkpoint package, and the
checkpoint package must stay below both.
"""

from __future__ import annotations

import os
import signal
from collections import OrderedDict
from typing import (Any, Callable, Dict, Hashable, Optional, Sequence,
                    Tuple)

from ..checkpoint import (CampaignCheckpointStore, CheckpointError,
                          CheckpointPolicy)
from ..obs import Instrumentation
from .jobs import Job, run_jobs

#: ``name:index:events`` — when set, the unit whose key is
#: ``(name, index)`` SIGKILLs its own process once its simulator has
#: executed that many events.  The check runs at simulated-time
#: boundaries, so the kill point is deterministic in event count; the
#: killed, unpersisted unit is simply re-run on resume.
KILL_SWITCH_ENV = "REPRO_SIGKILL"


def kill_switch_hook(key: Tuple[str, int]) -> Optional[Callable]:
    """The session run hook that kills unit ``key``, or ``None``.

    Raises ``ValueError`` when :data:`KILL_SWITCH_ENV` is set but
    malformed.
    """
    spec = os.environ.get(KILL_SWITCH_ENV)
    if not spec:
        return None
    try:
        name, index_text, events_text = spec.split(":")
        target = (name, int(index_text))
        threshold = int(events_text)
    except ValueError:
        raise ValueError(f"{KILL_SWITCH_ENV} must be 'name:index:events', "
                         f"got {spec!r}") from None
    if target != key:
        return None

    def hook(sim, deployment, manager, probe_peers) -> None:
        def check() -> None:
            if sim.events_executed >= threshold:
                os.kill(os.getpid(), signal.SIGKILL)
        sim.every(1.0, check, label="kill-switch")

    return hook


def open_units(checkpoint: Optional[CheckpointPolicy], digest: str,
               keys: Sequence[Hashable],
               decode: Callable[[Hashable, dict], Any], **manifest: Any
               ) -> Tuple[Optional[CampaignCheckpointStore],
                          Dict[Hashable, Any]]:
    """Open the run's checkpoint store: ``(store, restored units)``.

    Without a policy there is no store and nothing restored.  A fresh
    policy initializes the store with ``manifest`` (``seed``, ``days``,
    ``total_units``); a resume config-matches it against ``digest``,
    decodes every persisted payload with ``decode(key, payload)`` and
    rejects units whose key is not in ``keys``.
    """
    if checkpoint is None:
        return None, {}
    store = CampaignCheckpointStore(checkpoint.path)
    if not checkpoint.resume:
        store.initialize(digest, **manifest)
        return store, {}
    store.load_manifest(digest)
    restored = {key: decode(key, payload)
                for key, payload in store.iter_units(digest)}
    unknown = sorted(set(restored) - set(keys))
    if unknown:
        raise CheckpointError(
            f"checkpoint at {store.root} contains units outside the "
            f"run's shape: {unknown[:3]}")
    return store, restored


def run_units(jobs: Sequence[Job], restored: Dict[Hashable, Any], *,
              workers: int = 1,
              store: Optional[CampaignCheckpointStore] = None,
              every: int = 1, digest: str = "",
              encode: Callable[[Any], dict] = dict,
              on_unit: Optional[Callable[[Hashable, Any, bool], None]] = None,
              timeout: Optional[float] = None, retries: int = 1,
              obs: Optional[Instrumentation] = None) -> "OrderedDict":
    """Run every job not in ``restored``; ``{key: value}`` in job order.

    Pending jobs go through :func:`run_jobs` in batches of
    ``max(every, workers)`` — a batch below ``workers`` would serialise
    the pool — or in one batch when there is no store to flush and
    ``workers > 1``.  With a ``store``, each finished unit is persisted
    as ``encode(value)`` before the next batch starts, so a kill loses
    at most the batch in flight.  After each batch ``on_unit(key,
    value, restored)`` is called for every unit, restored or fresh,
    that is finished up to the first one still pending: the calls
    arrive in job order whatever the batch size.
    """
    results: Dict[Hashable, Any] = dict(restored)
    order = [job.key for job in jobs]
    pending = [job for job in jobs if job.key not in restored]
    batch = max(every, workers)
    if store is None and workers > 1:
        batch = max(1, len(pending))
    reported = 0

    def report() -> None:
        nonlocal reported
        while reported < len(order) and order[reported] in results:
            key = order[reported]
            if on_unit is not None:
                on_unit(key, results[key], key in restored)
            reported += 1

    report()
    for start in range(0, len(pending), batch):
        done = run_jobs(pending[start:start + batch], workers=workers,
                        timeout=timeout, retries=retries, obs=obs)
        if store is not None:
            for key, value in done.items():
                store.write_unit(key, digest, encode(value))
        results.update(done)
        report()
    return OrderedDict((key, results[key]) for key in order)
