"""Adversary models, AdversaryEvent injection, and protocol defenses."""

import pytest

from repro.adversary import (ADVERSARY_BEHAVIORS, BufferMapLiar,
                             ChunkPolluter, FreeRider, RequestFlooder,
                             StalePeerlistResponder, build_adversary)
from repro.faults import AdversaryEvent, FaultSchedule
from repro.network.datagram import Datagram
from repro.protocol import messages as m
from repro.protocol.config import ProtocolConfig
from repro.protocol.peerlist import Candidate, ListSource
from repro.sim import Simulator
from repro.workload.scenario import ScenarioConfig, SessionScenario


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
class TestModels:
    def test_registry_covers_every_behavior(self):
        for behavior in ADVERSARY_BEHAVIORS:
            model = build_adversary(behavior, seed=1)
            assert model.BEHAVIOR == behavior

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary behavior"):
            build_adversary("meteor", seed=1)

    def test_same_seed_same_stream(self):
        a = ChunkPolluter(seed=5)
        b = ChunkPolluter(seed=5)
        assert [a.serve_action() for _ in range(100)] \
            == [b.serve_action() for _ in range(100)]

    def test_free_rider_never_serves(self):
        model = FreeRider(seed=3)
        assert all(model.serve_action() == "miss" for _ in range(50))

    def test_polluter_mostly_poisons(self):
        model = ChunkPolluter(seed=3)
        actions = [model.serve_action() for _ in range(200)]
        assert actions.count("poison") > 100
        assert set(actions) <= {"poison", "serve"}

    def test_liar_inflates_advertisements(self):
        model = BufferMapLiar(seed=3)
        for _ in range(50):
            lied = model.advertised_have(100)
            assert 100 + BufferMapLiar.LIE_MIN <= lied \
                <= 100 + BufferMapLiar.LIE_MAX
        # A peer with no buffer yet has nothing to lie about.
        assert model.advertised_have(-1) == -1

    def test_flooder_requests_per_tick(self):
        model = RequestFlooder(seed=3)
        assert model.flood_requests() == RequestFlooder.FLOOD_PER_TICK

    def test_stale_peerlist_returns_oldest(self):
        candidates = [
            Candidate(address=f"1.0.2.{i}", first_seen=float(i),
                      last_seen=float(i), source=ListSource.TRACKER)
            for i in range(30)]
        model = StalePeerlistResponder(seed=3)
        stale = model.peer_list(candidates, 60)
        assert stale == [f"1.0.2.{i}" for i in range(12)]

    def test_honest_override_points_by_default(self):
        model = FreeRider(seed=1)
        assert model.advertised_have(7) == 7
        assert model.flood_requests() == 0
        assert model.peer_list([], 60) is None


# ----------------------------------------------------------------------
# Schedule event
# ----------------------------------------------------------------------
class TestAdversaryEvent:
    def test_json_round_trip(self):
        schedule = FaultSchedule(events=(
            AdversaryEvent(behavior="free_rider", start=10.0,
                           duration=50.0, fraction=0.2, label="riders"),))
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    @pytest.mark.parametrize("bad", [
        dict(kind="adversary", behavior="meteor", start=0.0,
             duration=10.0),
        dict(kind="adversary", behavior="free_rider", start=0.0,
             duration=10.0, fraction=0.0),
        dict(kind="adversary", behavior="free_rider", start=0.0,
             duration=10.0, fraction=1.5),
        dict(kind="adversary", behavior="free_rider", start=0.0,
             duration=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"events": [bad]})


# ----------------------------------------------------------------------
# Injection and defenses (integration)
# ----------------------------------------------------------------------
def run_adversarial_session(behavior, fraction, seed=13, population=14,
                            warmup=120.0, duration=240.0):
    schedule = FaultSchedule(events=(
        AdversaryEvent(behavior=behavior, start=0.0,
                       duration=warmup + duration, fraction=fraction),))
    config = ScenarioConfig(seed=seed, population=population,
                            warmup=warmup, duration=duration,
                            protocol=ProtocolConfig().hardened(),
                            faults=schedule)
    return SessionScenario(config).run()


def defense_counters(result):
    viewers = list(result.population.active)
    counters = {}
    for name in ("poisoned_replies", "chunks_refetched",
                 "neighbors_banned", "requests_rate_limited",
                 "rejected_messages"):
        counters[name] = sum(getattr(v, name, 0) for v in viewers)
    counters["adversaries_attached"] = \
        result.injector.adversaries_attached
    counters["total_spawned"] = result.population.total_spawned
    return counters


class TestInjection:
    def test_fraction_one_attaches_every_arrival(self):
        result = run_adversarial_session("free_rider", fraction=1.0)
        assert result.injector.adversaries_attached \
            == result.population.total_spawned
        assert all(v.adversary is not None
                   for v in result.population.active)

    def test_polluter_triggers_refetch_and_bans(self):
        result = run_adversarial_session("chunk_polluter", fraction=0.5)
        counters = defense_counters(result)
        assert counters["adversaries_attached"] >= 1
        assert counters["poisoned_replies"] > 0
        assert counters["chunks_refetched"] > 0
        assert counters["neighbors_banned"] > 0

    def test_flooder_trips_rate_cap(self):
        result = run_adversarial_session("request_flooder", fraction=0.3)
        counters = defense_counters(result)
        assert counters["requests_rate_limited"] > 0

    def test_adversarial_run_is_deterministic(self):
        first = defense_counters(
            run_adversarial_session("chunk_polluter", fraction=0.5))
        second = defense_counters(
            run_adversarial_session("chunk_polluter", fraction=0.5))
        assert first == second


# ----------------------------------------------------------------------
# Hardened dispatch: garbage payloads at a peer
# ----------------------------------------------------------------------
class TestPeerGarbage:
    @pytest.fixture
    def active_peer(self):
        from repro.network.bandwidth import CABLE
        from repro.protocol.peer import PeerPhase, PPLivePeer
        scenario = SessionScenario(ScenarioConfig(seed=2, population=10))
        sim = Simulator(seed=2)
        dep = scenario.build_deployment(sim)
        internet = dep.internet
        isp = internet.catalog.by_name("ChinaTelecom")
        peer = PPLivePeer(sim, internet.udp,
                          internet.allocator.allocate(isp), isp, CABLE,
                          scenario.config.protocol, dep.channel,
                          bootstrap_address=dep.bootstrap.address,
                          source_address=dep.source.address)
        peer.join()
        sim.run_until(10.0)
        assert peer.phase is PeerPhase.ACTIVE
        return peer

    def garbage(self, peer, payload):
        return Datagram(src="9.9.9.9", dst=peer.address,
                        payload=payload, payload_bytes=8, sent_at=0.0)

    def test_unknown_payload_counted_and_dropped(self, active_peer):
        active_peer.handle_datagram(
            self.garbage(active_peer, object()))
        assert active_peer.rejected_messages == 1

    def test_malformed_fields_counted_and_dropped(self, active_peer):
        bad = m.DataRequest(channel_id=1, chunk=None, first=0, last=0,
                            seq=1)
        active_peer.handle_datagram(self.garbage(active_peer, bad))
        assert active_peer.rejected_messages == 1
