"""The five misbehaving-peer behavior models.

Each model is a small strategy object the peer consults at four
override points; the base class answers every one honestly, so a
concrete model overrides exactly the points its misbehaviour needs:

* :meth:`AdversaryModel.serve_action` — how to answer a data request
  (``"serve"`` honestly, ``"miss"`` to free-ride, ``"poison"`` to send
  a corrupted payload),
* :meth:`AdversaryModel.advertised_have` — the availability advertised
  in hellos and buffer-map announcements,
* :meth:`AdversaryModel.flood_requests` — extra junk data requests to
  emit per scheduler tick,
* :meth:`AdversaryModel.peer_list` — an override for the peer list
  served to gossip requests (``None`` = honest list).

Determinism contract: a model draws *only* from ``self.rng`` (its own
``random.Random``, seeded by the fault injector from the adversary
event's stream), never from the host peer's streams — attaching an
adversary therefore perturbs no honest peer's draw sequence, and the
honest code path never even reads these objects.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence


class AdversaryModel:
    """Base strategy: behaves honestly at every override point."""

    BEHAVIOR = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seed = seed

    # ------------------------------------------------------------------
    # Override points (honest defaults)
    # ------------------------------------------------------------------
    def serve_action(self) -> str:
        """``"serve"``, ``"miss"`` or ``"poison"`` for one data request."""
        return "serve"

    def advertised_have(self, have_until: int) -> int:
        """The availability to advertise given the honest value."""
        return have_until

    def flood_requests(self) -> int:
        """Extra junk data requests to emit this scheduler tick."""
        return 0

    def peer_list(self, candidates: Sequence, limit: int
                  ) -> Optional[List[str]]:
        """Replacement peer list, or ``None`` to answer honestly.

        ``candidates`` is the peer's candidate-pool contents (stable
        insertion order).
        """
        return None


class FreeRider(AdversaryModel):
    """Downloads normally but never uploads: every request is missed.

    The classic incentive attack — costs the swarm its upload capacity
    while consuming download capacity.  The defense is indirect: misses
    feed the requester's availability bias and cooldowns, so free-riders
    fade out of schedules; with advertise strikes on, misses against
    advertised coverage also count toward a ban.
    """

    BEHAVIOR = "free_rider"

    def serve_action(self) -> str:
        return "miss"


class ChunkPolluter(AdversaryModel):
    """Serves corrupted payloads for most requests.

    The receiver pays full download bandwidth before integrity
    verification rejects the payload (``proto.poisoned_rejected``),
    re-fetches the range elsewhere and strikes the polluter toward a
    ban.  A fraction of requests is served honestly so the polluter
    does not instantly out itself — the shape real pollution attacks
    take.
    """

    BEHAVIOR = "chunk_polluter"

    #: Probability one request is answered with a poisoned payload.
    POLLUTE_PROBABILITY = 0.8

    def serve_action(self) -> str:
        if self.rng.random() < self.POLLUTE_PROBABILITY:
            return "poison"
        return "serve"


class BufferMapLiar(AdversaryModel):
    """Advertises chunks far beyond what it will ever serve.

    Inflated availability attracts requests the liar then answers with
    misses (it genuinely lacks the data), wasting requester timeouts
    and scheduler slots.  Defended by the authoritative-miss
    availability overwrite and, in hardened profiles, advertise-miss
    strikes.
    """

    BEHAVIOR = "buffermap_liar"

    #: The lie, in chunks ahead of the honest frontier.
    LIE_MIN = 20
    LIE_MAX = 60

    def advertised_have(self, have_until: int) -> int:
        if have_until < 0:
            return have_until
        return have_until + self.rng.randint(self.LIE_MIN, self.LIE_MAX)


class RequestFlooder(AdversaryModel):
    """Hammers neighbors with junk data requests every scheduler tick.

    Each flood request targets a random neighbor and a random stale
    range; replies (or misses) land outside the flooder's real pending
    window and are discarded as duplicates.  Defended by the serve-side
    per-neighbor token bucket: capped requests are dropped, counted in
    ``proto.requests_rate_limited`` and strike the flooder.
    """

    BEHAVIOR = "request_flooder"

    #: Junk requests per scheduler tick (the honest scheduler issues at
    #: most a handful, so this multiplies a victim's serve load).
    FLOOD_PER_TICK = 4

    def flood_requests(self) -> int:
        return self.FLOOD_PER_TICK


class StalePeerlistResponder(AdversaryModel):
    """Answers gossip with its *stalest* known addresses.

    Instead of its live neighbor set, the responder refers the oldest
    entries of its candidate pool — mostly departed peers — so
    requesters waste hello timeouts on dead addresses.  Defended by the
    connect retry policy: failures back dead candidates off
    exponentially, and the requester keeps gossiping elsewhere.
    """

    BEHAVIOR = "stale_peerlist"

    def peer_list(self, candidates: Sequence, limit: int
                  ) -> Optional[List[str]]:
        stale = sorted(candidates, key=lambda c: (c.last_seen, c.address))
        return [c.address for c in stale[:min(limit, 12)]]


_MODELS = {model.BEHAVIOR: model
           for model in (FreeRider, ChunkPolluter, BufferMapLiar,
                         RequestFlooder, StalePeerlistResponder)}

#: Valid ``behavior`` values of an ``adversary`` fault event.
ADVERSARY_BEHAVIORS = tuple(sorted(_MODELS))


def build_adversary(behavior: str, seed: int) -> AdversaryModel:
    """Instantiate the model for ``behavior`` with its own RNG seed."""
    try:
        model = _MODELS[behavior]
    except KeyError:
        raise ValueError(
            f"unknown adversary behavior {behavior!r} (expected one of "
            f"{', '.join(ADVERSARY_BEHAVIORS)})") from None
    return model(seed)
