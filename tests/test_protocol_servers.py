"""Unit tests for bootstrap, tracker and source servers."""

import pytest

from repro.network.builder import build_internet
from repro.network.transport import Host
from repro.protocol import messages as m
from repro.protocol.bootstrap import BootstrapServer
from repro.protocol.config import ProtocolConfig
from repro.protocol.source import SourceServer
from repro.protocol.tracker import TrackerServer
from repro.sim import Simulator
from repro.streaming import ChunkGeometry, LiveChannel


class Collector(Host):
    """Minimal host capturing replies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inbox = []

    def handle_datagram(self, datagram):
        self.inbox.append(datagram.payload)


@pytest.fixture
def world():
    sim = Simulator(seed=1)
    internet = build_internet(sim)
    tele = internet.catalog.by_name("ChinaTelecom")
    config = ProtocolConfig()
    channel = LiveChannel(1, "news", geometry=ChunkGeometry())
    return sim, internet, tele, config, channel


def make_collector(sim, internet, isp):
    from repro.network.bandwidth import CAMPUS
    host = Collector(sim, internet.udp, internet.allocator.allocate(isp),
                     isp, CAMPUS)
    host.go_online()
    return host


class TestBootstrap:
    def test_channel_list(self, world):
        sim, internet, tele, config, channel = world
        server = BootstrapServer(sim, internet.udp,
                                 internet.allocator.allocate(tele), tele)
        server.go_online()
        tracker_addr = internet.allocator.allocate(tele)
        server.publish_channel(channel, [[tracker_addr]])
        client = make_collector(sim, internet, tele)
        client.send(server.address, m.ChannelListRequest(), 10)
        sim.run()
        replies = [p for p in client.inbox
                   if isinstance(p, m.ChannelListReply)]
        assert replies and replies[0].channels == ((1, "news"),)

    def test_playlink_returns_one_tracker_per_group(self, world):
        sim, internet, tele, config, channel = world
        server = BootstrapServer(sim, internet.udp,
                                 internet.allocator.allocate(tele), tele)
        server.go_online()
        groups = [[internet.allocator.allocate(tele)
                   for _ in range(2)] for _ in range(5)]
        server.publish_channel(channel, groups)
        client = make_collector(sim, internet, tele)
        client.send(server.address, m.PlaylinkRequest(channel_id=1), 10)
        sim.run()
        reply = [p for p in client.inbox
                 if isinstance(p, m.PlaylinkReply)][0]
        assert len(reply.trackers) == 5
        for group, tracker in zip(groups, reply.trackers):
            assert tracker in group

    def test_playlink_rotates_within_groups(self, world):
        sim, internet, tele, config, channel = world
        server = BootstrapServer(sim, internet.udp,
                                 internet.allocator.allocate(tele), tele)
        server.go_online()
        group = [internet.allocator.allocate(tele) for _ in range(2)]
        server.publish_channel(channel, [group])
        a = make_collector(sim, internet, tele)
        b = make_collector(sim, internet, tele)
        a.send(server.address, m.PlaylinkRequest(channel_id=1), 10)
        sim.run()
        b.send(server.address, m.PlaylinkRequest(channel_id=1), 10)
        sim.run()
        tracker_a = [p for p in a.inbox
                     if isinstance(p, m.PlaylinkReply)][0].trackers[0]
        tracker_b = [p for p in b.inbox
                     if isinstance(p, m.PlaylinkReply)][0].trackers[0]
        assert {tracker_a, tracker_b} == set(group)

    def test_unknown_channel_ignored(self, world):
        sim, internet, tele, config, channel = world
        server = BootstrapServer(sim, internet.udp,
                                 internet.allocator.allocate(tele), tele)
        server.go_online()
        client = make_collector(sim, internet, tele)
        client.send(server.address, m.PlaylinkRequest(channel_id=42), 10)
        sim.run()
        assert client.inbox == []

    def test_empty_tracker_group_rejected(self, world):
        sim, internet, tele, config, channel = world
        server = BootstrapServer(sim, internet.udp,
                                 internet.allocator.allocate(tele), tele)
        with pytest.raises(ValueError):
            server.publish_channel(channel, [[]])


class TestTracker:
    def make_tracker(self, world):
        sim, internet, tele, config, channel = world
        tracker = TrackerServer(sim, internet.udp,
                                internet.allocator.allocate(tele), tele,
                                config)
        tracker.go_online()
        return tracker

    def test_query_announces_requester(self, world):
        sim, internet, tele, config, channel = world
        tracker = self.make_tracker(world)
        client = make_collector(sim, internet, tele)
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        assert client.address in tracker.active_peers(1)

    def test_reply_excludes_requester(self, world):
        sim, internet, tele, config, channel = world
        tracker = self.make_tracker(world)
        client = make_collector(sim, internet, tele)
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        for reply in client.inbox:
            assert client.address not in reply.peers

    def test_reply_contains_other_peers(self, world):
        sim, internet, tele, config, channel = world
        tracker = self.make_tracker(world)
        others = [make_collector(sim, internet, tele) for _ in range(3)]
        for other in others:
            other.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        client = make_collector(sim, internet, tele)
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        reply = [p for p in client.inbox
                 if isinstance(p, m.TrackerReply)][0]
        assert set(reply.peers) == {o.address for o in others}

    def test_expiry(self, world):
        sim, internet, tele, config, channel = world
        tracker = self.make_tracker(world)
        client = make_collector(sim, internet, tele)
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        sim.run_until(sim.now + config.tracker_peer_ttl + 1)
        assert tracker.active_peers(1) == []

    def test_seeded_peer_never_expires(self, world):
        sim, internet, tele, config, channel = world
        tracker = self.make_tracker(world)
        tracker.seed_peer(1, "1.2.3.4")
        sim.run_until(config.tracker_peer_ttl * 3)
        assert "1.2.3.4" in tracker.active_peers(1)

    def test_goodbye_forgets(self, world):
        sim, internet, tele, config, channel = world
        tracker = self.make_tracker(world)
        client = make_collector(sim, internet, tele)
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        client.send(tracker.address, m.Goodbye(channel_id=1), 10)
        sim.run()
        assert client.address not in tracker.active_peers(1)


class TestSource:
    def make_source(self, world):
        sim, internet, tele, config, channel = world
        source = SourceServer(sim, internet.udp,
                              internet.allocator.allocate(tele), tele,
                              channel, config, max_children=2)
        source.go_online()
        return source

    def test_hello_ack_with_live_availability(self, world):
        sim, internet, tele, config, channel = world
        source = self.make_source(world)
        sim.run_until(40.0)  # live edge at chunk 9
        client = make_collector(sim, internet, tele)
        client.send(source.address, m.Hello(channel_id=1), 20)
        sim.run()
        ack = [p for p in client.inbox if isinstance(p, m.HelloAck)][0]
        assert ack.have_until >= 8
        assert ack.have_from == 0

    def test_child_cap_rejects(self, world):
        sim, internet, tele, config, channel = world
        source = self.make_source(world)
        clients = [make_collector(sim, internet, tele) for _ in range(3)]
        for client in clients:
            client.send(source.address, m.Hello(channel_id=1), 20)
            sim.run()
        rejected = [p for c in clients for p in c.inbox
                    if isinstance(p, m.HelloReject)]
        assert len(rejected) == 1
        assert source.hello_rejects == 1

    def test_serves_available_chunk(self, world):
        sim, internet, tele, config, channel = world
        source = self.make_source(world)
        sim.run_until(40.0)
        client = make_collector(sim, internet, tele)
        client.send(source.address,
                    m.DataRequest(channel_id=1, chunk=2, first=0, last=3,
                                  seq=7), 30)
        sim.run()
        reply = [p for p in client.inbox if isinstance(p, m.DataReply)][0]
        assert reply.seq == 7
        assert reply.payload_bytes == channel.geometry.range_bytes(0, 3)

    def test_misses_future_chunk(self, world):
        sim, internet, tele, config, channel = world
        source = self.make_source(world)
        sim.run_until(8.0)  # live edge at chunk 1
        client = make_collector(sim, internet, tele)
        client.send(source.address,
                    m.DataRequest(channel_id=1, chunk=50, first=0, last=3,
                                  seq=9), 30)
        sim.run()
        miss = [p for p in client.inbox if isinstance(p, m.DataMiss)][0]
        assert miss.seq == 9

    def test_peer_list_returns_children(self, world):
        sim, internet, tele, config, channel = world
        source = self.make_source(world)
        a = make_collector(sim, internet, tele)
        b = make_collector(sim, internet, tele)
        a.send(source.address, m.Hello(channel_id=1), 20)
        sim.run()
        b.send(source.address,
               m.PeerListRequest(channel_id=1, request_id=3), 30)
        sim.run()
        reply = [p for p in b.inbox
                 if isinstance(p, m.PeerListReply)][0]
        assert a.address in reply.peers
        assert reply.request_id == 3


class TestGarbagePayloads:
    """Public servers count garbage and keep serving — never raise."""

    def deliver(self, server, payload):
        from repro.network.datagram import Datagram
        server.handle_datagram(
            Datagram(src="9.9.9.9", dst=server.address, payload=payload,
                     payload_bytes=8, sent_at=0.0))

    def test_tracker_unknown_and_malformed(self, world):
        sim, internet, tele, config, channel = world
        tracker = TrackerServer(sim, internet.udp,
                                internet.allocator.allocate(tele), tele,
                                config)
        tracker.go_online()
        self.deliver(tracker, object())                 # unknown type
        self.deliver(tracker, "not a message")          # unknown type
        # Decodable type with an unusable field (unhashable channel id).
        self.deliver(tracker, m.TrackerQuery(channel_id=[]))
        assert tracker.rejected_messages == 3
        # Still serves honest traffic afterwards.
        client = make_collector(sim, internet, tele)
        client.send(tracker.address, m.TrackerQuery(channel_id=1), 10)
        sim.run()
        assert client.address in tracker.active_peers(1)

    def test_bootstrap_unknown_and_malformed(self, world):
        sim, internet, tele, config, channel = world
        server = BootstrapServer(sim, internet.udp,
                                 internet.allocator.allocate(tele), tele)
        server.go_online()
        server.publish_channel(
            channel, [[internet.allocator.allocate(tele)]])
        self.deliver(server, object())
        self.deliver(server, m.PlaylinkRequest(channel_id=[]))
        assert server.rejected_messages == 2
        client = make_collector(sim, internet, tele)
        client.send(server.address, m.ChannelListRequest(), 10)
        sim.run()
        assert any(isinstance(p, m.ChannelListReply)
                   for p in client.inbox)

    def test_source_unknown_and_malformed(self, world):
        sim, internet, tele, config, channel = world
        source = SourceServer(sim, internet.udp,
                              internet.allocator.allocate(tele), tele,
                              channel, config, max_children=2)
        source.go_online()
        sim.run_until(40.0)
        self.deliver(source, object())
        # first=None breaks the range check deep in the serve path.
        self.deliver(source, m.DataRequest(channel_id=1, chunk=0,
                                           first=None, last=2, seq=1))
        assert source.rejected_messages == 2
        client = make_collector(sim, internet, tele)
        client.send(source.address, m.Hello(channel_id=1), 20)
        sim.run()
        assert any(isinstance(p, m.HelloAck) for p in client.inbox)
