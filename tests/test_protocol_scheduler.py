"""Unit tests for the data scheduler (with a scripted fake network)."""

import pytest

from repro.protocol.config import ProtocolConfig
from repro.protocol.neighbors import NeighborTable
from repro.protocol.scheduler import DataScheduler
from repro.sim import Simulator
from repro.streaming import ChunkBuffer, ChunkGeometry, SUBPIECE_LARGE


@pytest.fixture
def geometry():
    # 4 sub-pieces per chunk.
    return ChunkGeometry(bitrate_bps=SUBPIECE_LARGE * 8, chunk_seconds=4.0)


@pytest.fixture
def config():
    return ProtocolConfig(subpieces_per_request=2, per_neighbor_inflight=2,
                          total_inflight=8, data_timeout=2.0,
                          exploration_epsilon=0.0)


class Harness:
    """Scheduler + scripted request capture."""

    def __init__(self, geometry, config, first_chunk=0,
                 source_address=None):
        self.sim = Simulator(seed=4)
        self.buffer = ChunkBuffer(geometry, first_chunk=first_chunk)
        self.neighbors = NeighborTable(capacity=8)
        self.sent = []
        self.scheduler = DataScheduler(
            self.sim, config, geometry, self.buffer, self.neighbors,
            send_requests=self.sent.extend,
            source_address=source_address)

    def add_neighbor(self, address, have_until, have_from=0,
                     response=None):
        state = self.neighbors.add(address, now=self.sim.now)
        state.record_availability(have_until, self.sim.now, have_from)
        if response is not None:
            state.record_response(response, alpha=1.0)
        return state


class TestPlanning:
    def test_requests_missing_runs(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        # First chunk, sub-pieces 0-1 then 2-3 (batch limit 2), etc.
        assert ("n1", 0, 0, 1, 1) == h.sent[0]
        assert ("n1", 0, 2, 3, 2) == h.sent[1]

    def test_window_clipped_by_prefetch(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=100)
        h.scheduler.tick(live_chunk=100, playout_chunk=0)
        max_chunk = max(chunk for _a, chunk, _f, _l, _s in h.sent)
        assert max_chunk <= config.prefetch_chunks

    def test_window_clipped_by_live_edge(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=100)
        h.scheduler.tick(live_chunk=2, playout_chunk=0)
        assert all(chunk <= 2 for _a, chunk, _f, _l, _s in h.sent)

    def test_no_duplicate_inflight_coverage(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        before = len(h.sent)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        # Everything requestable was already covered; nothing re-sent
        # until total_inflight budget frees up.
        after = [s for s in h.sent[before:]]
        covered = set()
        for _a, chunk, first, last, _s in h.sent[:before]:
            covered.update((chunk, sp) for sp in range(first, last + 1))
        for _a, chunk, first, last, _s in after:
            for sp in range(first, last + 1):
                assert (chunk, sp) not in covered

    def test_per_neighbor_inflight_respected(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=50)
        h.scheduler.tick(live_chunk=50, playout_chunk=-1)
        from collections import Counter
        counts = Counter(addr for addr, *_ in h.sent)
        assert counts["n1"] <= config.per_neighbor_inflight

    def test_availability_gates_eligibility(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=0)  # only chunk 0
        h.scheduler.tick(live_chunk=5, playout_chunk=-1)
        assert all(chunk == 0 for _a, chunk, _f, _l, _s in h.sent)

    def test_have_from_gates_old_chunks(self, geometry, config):
        h = Harness(geometry, config, first_chunk=0)
        h.add_neighbor("n1", have_until=10, have_from=5)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        assert all(chunk >= 5 for _a, chunk, _f, _l, _s in h.sent)

    def test_weighting_prefers_fast_neighbor(self, geometry):
        # High per-neighbor cap so the weighted draw, not the cap,
        # decides who gets each request.
        config = ProtocolConfig(subpieces_per_request=2,
                                per_neighbor_inflight=100,
                                total_inflight=8, data_timeout=2.0,
                                exploration_epsilon=0.0)
        h = Harness(geometry, config)
        h.add_neighbor("fast", have_until=50, response=0.2)
        h.add_neighbor("slow", have_until=50, response=1.5)
        for _ in range(30):
            h.scheduler.tick(live_chunk=50, playout_chunk=-1)
            # Resolve everything so new requests can flow.
            for seq in list(h.scheduler._pending):
                p = h.scheduler._pending[seq]
                h.scheduler.on_reply(seq, p.chunk, p.first, p.last,
                                     have_until=50)
            # Undo side effects so every round replans the same data with
            # the same response profile.
            h.buffer = ChunkBuffer(geometry, first_chunk=0)
            h.scheduler.buffer = h.buffer
            h.neighbors.get("fast").record_response(0.2, alpha=1.0)
            h.neighbors.get("slow").record_response(1.5, alpha=1.0)
        from collections import Counter
        counts = Counter(addr for addr, *_ in h.sent)
        assert counts["fast"] > counts["slow"] * 2


class TestSourceFallback:
    def test_source_used_when_no_neighbor_and_urgent(self, geometry,
                                                     config):
        h = Harness(geometry, config, source_address="9.9.9.9")
        h.scheduler.tick(live_chunk=3, playout_chunk=0)
        assert h.sent
        assert all(addr == "9.9.9.9" for addr, *_ in h.sent)
        assert h.scheduler.requests_to_source == len(h.sent)

    def test_source_not_used_for_non_urgent(self, geometry, config):
        h = Harness(geometry, config, source_address="9.9.9.9")
        h.scheduler.tick(live_chunk=50, playout_chunk=-10)
        assert h.sent == []

    def test_source_inflight_capped(self, geometry, config):
        h = Harness(geometry, config, source_address="9.9.9.9")
        h.scheduler.tick(live_chunk=3, playout_chunk=3)
        assert len(h.sent) <= config.per_neighbor_inflight

    def test_source_cooldown_after_timeout(self, geometry, config):
        h = Harness(geometry, config, source_address="9.9.9.9")
        h.scheduler.tick(live_chunk=3, playout_chunk=3)
        assert h.sent
        h.sim.run_until(config.data_timeout + 0.1)  # timeouts fire
        count = len(h.sent)
        h.scheduler.tick(live_chunk=3, playout_chunk=3)
        assert len(h.sent) == count  # cooling down
        h.sim.run_until(h.sim.now + config.timeout_cooldown + 0.1)
        h.scheduler.tick(live_chunk=5, playout_chunk=5)
        assert len(h.sent) > count


class TestResolution:
    def test_reply_fills_buffer_and_updates_state(self, geometry, config):
        h = Harness(geometry, config)
        state = h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        addr, chunk, first, last, seq = h.sent[0]
        h.sim.run_until(0.5)
        added = h.scheduler.on_reply(seq, chunk, first, last,
                                     have_until=12)
        assert added == last - first + 1
        assert state.reported_have == 12
        assert state.ewma_response == pytest.approx(0.5)
        assert state.inflight == len(h.sent) - 1

    def test_duplicate_reply_ignored(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        _a, chunk, first, last, seq = h.sent[0]
        h.scheduler.on_reply(seq, chunk, first, last, have_until=10)
        before = h.buffer.bytes_received
        h.scheduler.on_reply(seq, chunk, first, last, have_until=10)
        assert h.buffer.bytes_received == before
        assert h.scheduler.duplicate_replies == 1

    def test_miss_corrects_availability(self, geometry, config):
        h = Harness(geometry, config)
        state = h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        seq = h.sent[0][4]
        h.scheduler.on_miss(seq, have_until=3, have_from=1)
        assert state.reported_have == 3
        assert state.reported_from == 1
        assert state.cooldown_until > h.sim.now

    def test_timeout_penalises_and_frees_coverage(self, geometry, config):
        h = Harness(geometry, config)
        state = h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        h.sim.run_until(config.data_timeout + 0.1)
        assert h.scheduler.timeouts > 0
        assert state.data_timeouts > 0
        assert state.ewma_response == pytest.approx(config.data_timeout)
        assert state.inflight == 0

    def test_forget_neighbor_releases_pending(self, geometry, config):
        h = Harness(geometry, config)
        h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        assert h.scheduler.inflight > 0
        h.scheduler.forget_neighbor("n1")
        assert h.scheduler.inflight == 0

    def test_reset_for_buffer_releases_everything(self, geometry, config):
        h = Harness(geometry, config)
        state = h.add_neighbor("n1", have_until=10)
        h.scheduler.tick(live_chunk=10, playout_chunk=-1)
        new_buffer = ChunkBuffer(geometry, first_chunk=20)
        h.scheduler.reset_for_buffer(new_buffer)
        assert h.scheduler.inflight == 0
        assert state.inflight == 0
        assert h.scheduler.buffer is new_buffer
