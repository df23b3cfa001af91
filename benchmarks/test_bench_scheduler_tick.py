"""Benchmark: per-tick scheduler planning cost.

Isolates ``DataScheduler.tick()`` from the rest of the stack so future
scheduler changes are measured independently of the end-to-end bench: a
synthetic steady-state session (a dozen neighbors, rolling availability
reports, the live edge advancing every tick, every issued request
settled by an immediate reply) drives thousands of ticks against a
scripted request sink — no transport, no real network.

The planned request sequence is pinned by its SHA-256, so a scheduler
change that moves a single request (target, range or sequence number)
fails here before it reaches the end-to-end goldens.  The cost is
reported in µs/tick and left ungated: it is a same-host number.
"""

import hashlib
import time

from repro.protocol.config import ProtocolConfig
from repro.protocol.neighbors import NeighborTable
from repro.protocol.scheduler import DataScheduler
from repro.sim import Simulator
from repro.streaming import ChunkBuffer, ChunkGeometry, SUBPIECE_LARGE

TICKS = 3000
NEIGHBORS = 12
ROUNDS = 3

#: SHA-256 of the 3000-tick request trace (see ``_trace_digest``), from
#: the scheduler that kept an incremental view beside the full rebuild;
#: both planned exactly these 3006 requests.
TRACE_SHA256 = \
    "55af1e5c7909f254f0c982e5aa3918ec636303c50312333436cd2d65fb4b4b0a"
TRACE_REQUESTS = 3006


class _Harness:
    """Scheduler + scripted sink, shaped like one steady viewing session."""

    def __init__(self):
        # 4 sub-pieces per chunk, same shape the protocol unit tests pin.
        geometry = ChunkGeometry(bitrate_bps=SUBPIECE_LARGE * 8,
                                 chunk_seconds=4.0)
        config = ProtocolConfig()
        self.sim = Simulator(seed=4)
        self.buffer = ChunkBuffer(geometry, first_chunk=0)
        self.neighbors = NeighborTable(capacity=NEIGHBORS)
        self.issued = []
        self.scheduler = DataScheduler(
            self.sim, config, geometry, self.buffer, self.neighbors,
            send_requests=self.issued.extend)
        self.states = []
        for index in range(NEIGHBORS):
            state = self.neighbors.add(f"10.0.0.{index + 1}",
                                       now=self.sim.now)
            state.record_availability(4 + index % 5, self.sim.now, 0)
            state.record_response(0.05 + 0.01 * index, alpha=1.0)
            self.states.append(state)

    def run(self, ticks):
        """Drive ``ticks`` steady-state rounds; returns the tick seconds.

        Each round advances the clock and the live edge, lands a few
        availability reports the way real buffer-map traffic does, plans
        one tick, then settles the *previous* round's requests with full
        replies — so every tick plans over a window partially covered by
        in-flight requests, while the window keeps sliding instead of
        exhausting the budget.
        """
        sim = self.sim
        scheduler = self.scheduler
        issued = self.issued
        states = self.states
        tick_seconds = 0.0
        settled = 0
        for round_index in range(ticks):
            sim.clock._now += 0.4
            now = sim.clock._now
            live = 8 + round_index
            # Reports lag the live edge by a few chunks, as real
            # buffer-map traffic does: the top of the prefetch window
            # sits above every neighbor's estimate, where only the
            # source fallback can serve.
            for offset in range(4):
                state = states[(round_index * 4 + offset) % NEIGHBORS]
                state.record_availability(live - 2 - offset * 2, now, 0)
            in_flight_floor = len(issued)
            started = time.perf_counter()
            scheduler.tick(live_chunk=live,
                           playout_chunk=max(-1, live - 6))
            tick_seconds += time.perf_counter() - started
            for address, chunk, first, last, seq in \
                    issued[settled:in_flight_floor]:
                scheduler.on_reply(seq, chunk, first, last,
                                   have_until=live)
            settled = in_flight_floor
        return tick_seconds


def _trace_digest(trace):
    text = "".join(f"{address} {chunk} {first} {last} {seq}\n"
                   for address, chunk, first, last, seq in trace)
    return hashlib.sha256(text.encode()).hexdigest()


def test_bench_scheduler_tick(save_result):
    _Harness().run(TICKS)  # discarded warmup: cold-start cost
    best = float("inf")
    for _ in range(ROUNDS):
        harness = _Harness()
        best = min(best, harness.run(TICKS))
        assert len(harness.issued) == TRACE_REQUESTS
        assert _trace_digest(harness.issued) == TRACE_SHA256, (
            "the scheduler planned a different request sequence")

    save_result(
        "scheduler_tick",
        f"scheduler tick microbench ({TICKS} steady-state ticks, "
        f"{NEIGHBORS} neighbors, best of {ROUNDS}):\n"
        f"  {best:.3f}s ({best / TICKS * 1e6:.1f} us/tick)\n"
        f"  {TRACE_REQUESTS} requests planned, trace sha256 "
        f"{TRACE_SHA256[:16]}... (pinned)")
