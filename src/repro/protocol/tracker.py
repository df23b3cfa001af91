"""Tracker servers.

"The tracker server stores the active peers for each channel" and "mainly
works as an entry node for a peer to join the network" — it is a database,
not a locality service.  A :class:`TrackerServer` therefore:

* learns about peers from their queries (a query doubles as an announce),
* answers with a uniform random sample of up to 60 active peers — *no*
  topology awareness whatsoever,
* expires peers it has not heard from within a TTL.

PPLive deploys five tracker groups, all inside Chinese carriers; the
deployment helper in :mod:`repro.experiments.session` mirrors that.
"""

from __future__ import annotations

from typing import Dict, List

from ..network.bandwidth import SERVER, AccessProfile
from ..network.datagram import Datagram
from ..network.isp import ISP
from ..network.transport import Host, UdpNetwork
from ..sim.engine import Simulator
from ..sim.random import sample_without_replacement
from . import messages as m
from .config import ProtocolConfig
from .wire import wire_size


class TrackerServer(Host):
    """One tracker instance (a member of one of the five groups)."""

    def __init__(self, sim: Simulator, network: UdpNetwork, address: str,
                 isp: ISP, config: ProtocolConfig,
                 profile: AccessProfile = SERVER,
                 group_id: int = 0) -> None:
        super().__init__(sim, network, address, isp, profile)
        self.config = config
        self.group_id = group_id
        #: channel_id -> {address: last_announce_time}
        self._registry: Dict[int, Dict[str, float]] = {}
        self._rng = sim.random.fork(f"tracker:{address}").stream("sample")
        self.queries_served = 0
        self.peers_expired = 0
        self.rejected_messages = 0

    # ------------------------------------------------------------------
    # Registry management
    # ------------------------------------------------------------------
    def seed_peer(self, channel_id: int, address: str) -> None:
        """Pre-register a peer (used to plant channel source servers)."""
        self._registry.setdefault(channel_id, {})[address] = float("inf")

    def active_peers(self, channel_id: int) -> List[str]:
        self._expire(channel_id)
        return list(self._registry.get(channel_id, {}))

    def forget_peer(self, channel_id: int, address: str) -> None:
        self._registry.get(channel_id, {}).pop(address, None)

    def _expire(self, channel_id: int) -> None:
        table = self._registry.get(channel_id)
        if not table:
            return
        cutoff = self.sim.now - self.config.tracker_peer_ttl
        stale = [a for a, t in table.items() if t < cutoff]
        for address in stale:
            del table[address]
        self.peers_expired += len(stale)

    # ------------------------------------------------------------------
    # Protocol handling
    # ------------------------------------------------------------------
    def handle_datagram(self, datagram: Datagram) -> None:
        payload = datagram.payload
        try:
            if isinstance(payload, m.TrackerQuery):
                self._serve_query(datagram.src, payload.channel_id)
            elif isinstance(payload, m.Goodbye):
                for channel_id in list(self._registry):
                    self.forget_peer(channel_id, datagram.src)
            else:
                # Unknown payloads are counted and dropped; a public
                # server cannot afford to crash on garbage.
                self.rejected_messages += 1
        except (AttributeError, TypeError, ValueError, KeyError,
                IndexError):
            self.rejected_messages += 1

    def _serve_query(self, requester: str, channel_id: int) -> None:
        self.queries_served += 1
        self._expire(channel_id)
        table = self._registry.setdefault(channel_id, {})
        # Sample *before* adding the requester so a newcomer is not
        # handed its own address.
        others = [a for a in table if a != requester]
        sample = sample_without_replacement(
            self._rng, others, self.config.tracker_reply_max)
        table[requester] = self.sim.now
        reply = m.TrackerReply(channel_id=channel_id, peers=tuple(sample))
        self.send(requester, reply, wire_size(reply))
