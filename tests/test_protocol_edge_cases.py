"""Edge-case tests for protocol races, timeouts, and churn paths."""

import pytest

from repro.network.builder import build_internet
from repro.network.bandwidth import CABLE
from repro.protocol import messages as m
from repro.protocol.config import ProtocolConfig
from repro.protocol.neighbors import NeighborTable
from repro.protocol.peer import PeerPhase, PPLivePeer
from repro.protocol.scheduler import DataScheduler
from repro.sim import Simulator
from repro.streaming import ChunkBuffer, ChunkGeometry, LiveChannel, \
    SUBPIECE_LARGE


def make_world(seed=1):
    sim = Simulator(seed=seed)
    internet = build_internet(sim)
    tele = internet.catalog.by_name("ChinaTelecom")
    channel = LiveChannel(1, "test")
    return sim, internet, tele, channel


def make_peer(sim, internet, isp, channel, **kwargs):
    config = kwargs.pop("config", ProtocolConfig())
    peer = PPLivePeer(sim, internet.udp,
                      internet.allocator.allocate(isp), isp, CABLE,
                      config, channel,
                      bootstrap_address=kwargs.pop("bootstrap", "1.0.0.1"),
                      **kwargs)
    return peer


class TestHandshakeRaces:
    def test_ack_after_table_filled_gets_goodbye(self):
        """A late HelloAck that lost the slot race is answered with a
        Goodbye, not silently leaked."""
        sim, internet, tele, channel = make_world()
        config = ProtocolConfig(max_neighbors=1, target_neighbors=1)
        peer = make_peer(sim, internet, tele, channel, config=config)
        peer.go_online()
        peer.phase = PeerPhase.ACTIVE
        peer.buffer = ChunkBuffer(channel.geometry, first_chunk=0)

        # Two pending hellos; first ack takes the only slot.
        import types
        peer._pending_hellos["9.0.0.1"] = (sim.call_after(10, lambda: None),
                                           sim.now)
        peer._pending_hellos["9.0.0.2"] = (sim.call_after(10, lambda: None),
                                           sim.now)
        peer._on_hello_ack("9.0.0.1", m.HelloAck(channel_id=1,
                                                 have_until=5))
        assert "9.0.0.1" in peer.neighbors
        peer._on_hello_ack("9.0.0.2", m.HelloAck(channel_id=1,
                                                 have_until=5))
        assert "9.0.0.2" not in peer.neighbors

    def test_unsolicited_ack_ignored(self):
        sim, internet, tele, channel = make_world()
        peer = make_peer(sim, internet, tele, channel)
        peer.phase = PeerPhase.ACTIVE
        peer._on_hello_ack("9.9.9.9", m.HelloAck(channel_id=1))
        assert "9.9.9.9" not in peer.neighbors

    def test_hello_to_full_table_rejected(self):
        sim, internet, tele, channel = make_world()
        config = ProtocolConfig(max_neighbors=1, target_neighbors=1)
        peer = make_peer(sim, internet, tele, channel, config=config)
        peer.go_online()
        peer.phase = PeerPhase.ACTIVE
        peer.buffer = ChunkBuffer(channel.geometry, first_chunk=0)
        peer.neighbors.add("8.0.0.1", now=sim.now)
        peer._on_hello("8.0.0.2", m.Hello(channel_id=1))
        assert peer.hello_rejects == 1
        assert "8.0.0.2" not in peer.neighbors

    def test_repeat_hello_from_neighbor_is_keepalive(self):
        sim, internet, tele, channel = make_world()
        peer = make_peer(sim, internet, tele, channel)
        peer.go_online()
        peer.phase = PeerPhase.ACTIVE
        peer.buffer = ChunkBuffer(channel.geometry, first_chunk=0)
        state = peer.neighbors.add("8.0.0.1", now=sim.now)
        before = len(peer.neighbors)
        peer._on_hello("8.0.0.1", m.Hello(channel_id=1, have_until=9))
        assert len(peer.neighbors) == before
        assert state.reported_have == 9

    def test_wrong_channel_hello_ignored(self):
        sim, internet, tele, channel = make_world()
        peer = make_peer(sim, internet, tele, channel)
        peer.go_online()
        peer.phase = PeerPhase.ACTIVE
        peer._on_hello("8.0.0.1", m.Hello(channel_id=42))
        assert "8.0.0.1" not in peer.neighbors


class TestSchedulerEdges:
    @pytest.fixture
    def geometry(self):
        return ChunkGeometry(bitrate_bps=SUBPIECE_LARGE * 8,
                             chunk_seconds=4.0)

    def test_reply_after_timeout_is_duplicate(self, geometry):
        sim = Simulator(seed=2)
        config = ProtocolConfig(subpieces_per_request=2, data_timeout=1.0)
        buffer = ChunkBuffer(geometry, first_chunk=0)
        neighbors = NeighborTable(capacity=4)
        sent = []
        scheduler = DataScheduler(sim, config, geometry, buffer,
                                  neighbors, send_requests=sent.extend)
        state = neighbors.add("n1", now=0.0)
        state.record_availability(10, 0.0)
        scheduler.tick(live_chunk=10, playout_chunk=-1)
        assert sent
        _a, chunk, first, last, seq = sent[0]
        sim.run_until(2.0)  # timeout fires
        assert scheduler.timeouts >= 1
        added = scheduler.on_reply(seq, chunk, first, last, have_until=10)
        assert added == 0
        assert scheduler.duplicate_replies == 1

    def test_no_neighbors_no_requests_non_urgent(self, geometry):
        sim = Simulator(seed=2)
        config = ProtocolConfig()
        buffer = ChunkBuffer(geometry, first_chunk=0)
        scheduler = DataScheduler(sim, config, geometry, buffer,
                                  NeighborTable(4),
                                  send_requests=lambda issues: None,
                                  source_address=None)
        scheduler.tick(live_chunk=10, playout_chunk=-100)
        assert scheduler.requests_issued == 0

    def test_urgent_until_parameter_overrides(self, geometry):
        sim = Simulator(seed=2)
        config = ProtocolConfig(per_neighbor_inflight=2)
        buffer = ChunkBuffer(geometry, first_chunk=0)
        sent = []
        scheduler = DataScheduler(sim, config, geometry, buffer,
                                  NeighborTable(4),
                                  send_requests=sent.extend,
                                  source_address="9.9.9.9")
        # No neighbors at all: within the prefetch window only the
        # explicitly urgent chunks (<= 1) go to the source.
        scheduler.tick(live_chunk=10, playout_chunk=-1, urgent_until=1)
        assert sent
        assert all(args[1] <= 1 for args in sent)


class TestChurnPaths:
    def test_crashed_neighbor_removed_by_silence_sweep(self):
        sim, internet, tele, channel = make_world(seed=4)
        config = ProtocolConfig(neighbor_silence_timeout=20.0)
        a = make_peer(sim, internet, tele, channel, config=config)
        a.go_online()
        a.phase = PeerPhase.ACTIVE
        a.buffer = ChunkBuffer(channel.geometry, first_chunk=0)
        from repro.streaming.playback import PlaybackMonitor
        a.player = PlaybackMonitor(channel.geometry, a.buffer,
                                   join_time=sim.now)
        a.neighbors.add("7.0.0.1", now=sim.now)
        # Run the maintenance sweep manually past the silence window.
        sim.run_until(25.0)
        a._maintenance()
        assert "7.0.0.1" not in a.neighbors

    def test_goodbye_from_stranger_is_noop(self):
        sim, internet, tele, channel = make_world()
        peer = make_peer(sim, internet, tele, channel)
        peer.go_online()
        peer.phase = PeerPhase.ACTIVE
        peer._on_goodbye("6.6.6.6", m.Goodbye(channel_id=1))  # no crash

    def test_pool_backoff_after_hello_timeout(self):
        sim, internet, tele, channel = make_world()
        peer = make_peer(sim, internet, tele, channel)
        peer.go_online()
        peer.phase = PeerPhase.ACTIVE
        peer.buffer = ChunkBuffer(channel.geometry, first_chunk=0)
        from repro.protocol.peerlist import ListSource
        peer.pool.add("5.0.0.1", sim.now, ListSource.TRACKER)
        peer._attempt_connections(["5.0.0.1"], ListSource.TRACKER)
        assert "5.0.0.1" in peer._pending_hellos
        sim.run_until(peer.config.hello_timeout + 1.0)
        assert "5.0.0.1" not in peer._pending_hellos
        assert not peer.can_attempt("5.0.0.1")  # backed off
