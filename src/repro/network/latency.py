"""Underlay latency model.

The paper's explanation for PPLive's emergent locality rests on one
physical fact: peers in the same ISP exchange packets faster than peers in
different ISPs, which in turn beat transoceanic pairs.  This module makes
that structure explicit and tunable.

For a pair of hosts the model produces a *stable base RTT* — drawn once
per (address, address) pair from the pair-class distribution, so repeated
probes between the same two hosts are consistent — plus per-packet jitter.
Pair classes:

* ``INTRA_ISP``        — both endpoints in the same AS,
* ``DOMESTIC``         — same country, different AS,
* ``TELE_CNC_PEERING`` — the notoriously congested ChinaTelecom <->
  ChinaNetcom interconnect (higher base than ordinary domestic),
* ``INTERNATIONAL``    — different countries, neither path crosses an
  ocean (e.g. intra-Europe / intra-Asia),
* ``TRANSOCEANIC``     — China <-> North America / Europe.

The defaults are calibrated to published 2008-era measurements: ~20-40 ms
within a Chinese carrier, 60-110 ms across domestic carriers, and
180-280 ms across the Pacific.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..sim.random import RandomRouter, derive_seed
from .isp import ISP, ISPCategory


class PairClass(enum.Enum):
    INTRA_ISP = "intra_isp"
    DOMESTIC = "domestic"
    TELE_CNC_PEERING = "tele_cnc_peering"
    CERNET_GATEWAY = "cernet_gateway"
    INTERNATIONAL = "international"
    TRANSOCEANIC = "transoceanic"

    def __str__(self) -> str:
        return self.value


#: Continent assignment used to decide TRANSOCEANIC vs INTERNATIONAL.
_CONTINENT = {
    "CN": "asia", "HK": "asia", "JP": "asia", "KR": "asia",
    "US": "america", "CA": "america",
    "DE": "europe", "FR": "europe", "GB": "europe",
}


def classify_pair(a: ISP, b: ISP) -> PairClass:
    """Determine the latency class of the path between two ASes."""
    if a.asn == b.asn:
        return PairClass.INTRA_ISP
    tele_cnc = {ISPCategory.TELE, ISPCategory.CNC}
    if {a.category, b.category} == tele_cnc:
        return PairClass.TELE_CNC_PEERING
    # CERNET's gateways to the commodity Chinese Internet were famously
    # congested in the 2000s: anything crossing them is its own class.
    if (ISPCategory.CER in (a.category, b.category)
            and a.country == b.country == "CN"):
        return PairClass.CERNET_GATEWAY
    if a.country == b.country:
        return PairClass.DOMESTIC
    continent_a = _CONTINENT.get(a.country, "other")
    continent_b = _CONTINENT.get(b.country, "other")
    if continent_a == continent_b:
        return PairClass.INTERNATIONAL
    return PairClass.TRANSOCEANIC


@dataclass(frozen=True)
class PathOverride:
    """Dynamic path-quality override for one :class:`PairClass`.

    Installed and removed by the fault injector for the duration of a
    link-degradation episode.  All factors apply *after* the model's
    normal draws — overrides never change the RNG draw count, which
    keeps every other stream in the run byte-identical.  Overrides
    stack multiplicatively (``extra_loss`` adds).
    """

    loss_multiplier: float = 1.0
    extra_loss: float = 0.0
    latency_multiplier: float = 1.0
    bandwidth_multiplier: float = 1.0


@dataclass(frozen=True)
class RttBand:
    """Log-normal base-RTT distribution for one pair class (seconds)."""

    median: float
    sigma: float
    floor: float
    ceiling: float

    def sample(self, gauss: float) -> float:
        """Draw a base RTT given a pre-drawn standard-normal variate."""
        value = math.exp(math.log(self.median) + self.sigma * gauss)
        return min(max(value, self.floor), self.ceiling)


@dataclass
class LatencyConfig:
    """All tunables of the latency model."""

    bands: Dict[PairClass, RttBand] = field(default_factory=lambda: {
        PairClass.INTRA_ISP: RttBand(0.028, 0.45, 0.004, 0.120),
        PairClass.DOMESTIC: RttBand(0.075, 0.35, 0.025, 0.250),
        PairClass.TELE_CNC_PEERING: RttBand(0.110, 0.35, 0.045, 0.350),
        PairClass.CERNET_GATEWAY: RttBand(0.130, 0.35, 0.050, 0.400),
        PairClass.INTERNATIONAL: RttBand(0.090, 0.40, 0.030, 0.300),
        PairClass.TRANSOCEANIC: RttBand(0.230, 0.25, 0.130, 0.450),
    })
    #: Multiplicative per-packet jitter: lognormal with this sigma.
    jitter_sigma: float = 0.12
    #: Additive per-packet jitter floor/ceiling as fraction of base delay.
    jitter_max_factor: float = 2.0
    #: Packet-loss probability per pair class.
    loss: Dict[PairClass, float] = field(default_factory=lambda: {
        PairClass.INTRA_ISP: 0.002,
        PairClass.DOMESTIC: 0.008,
        PairClass.TELE_CNC_PEERING: 0.020,
        PairClass.CERNET_GATEWAY: 0.025,
        PairClass.INTERNATIONAL: 0.012,
        PairClass.TRANSOCEANIC: 0.030,
    })
    #: Achievable bulk-transfer rate along the path (bits/second).  Long
    #: congested paths (the 2008 TELE<->CNC interconnect, transoceanic
    #: links) deliver bulk data far below the endpoints' access rates;
    #: per-datagram delay grows by ``wire_bytes * 8 / path_bps``.
    path_bps: Dict[PairClass, float] = field(default_factory=lambda: {
        PairClass.INTRA_ISP: 25_000_000.0,
        PairClass.DOMESTIC: 3_000_000.0,
        PairClass.TELE_CNC_PEERING: 1_200_000.0,
        PairClass.CERNET_GATEWAY: 900_000.0,
        PairClass.INTERNATIONAL: 2_000_000.0,
        PairClass.TRANSOCEANIC: 800_000.0,
    })


class LatencyModel:
    """Produces stable pairwise base RTTs and per-packet one-way delays."""

    def __init__(self, config: LatencyConfig, master_seed: int = 0) -> None:
        self.config = config
        self._master_seed = master_seed
        self._base_rtt_cache: Dict[Tuple[str, str], float] = {}
        self._router = RandomRouter(derive_seed(master_seed, "latency"))
        self._jitter_rng = self._router.stream("jitter")
        self._loss_rng = self._router.stream("loss")
        self._overrides: Dict[PairClass, List[PathOverride]] = {}
        # Per-ASN-pair fast path: (asn, asn) -> (pair_class, loss_prob,
        # path_bps).  Classification and the per-class table lookups are
        # pure functions of the config, so memoising them cannot change
        # any RNG draw; mutate the config after first use only via
        # invalidate_cache().  Jitter parameters are globals of the
        # model, bound once here for the same reason.
        self._pair_cache: Dict[Tuple[int, int], Tuple[PairClass, float,
                                                      float]] = {}
        self._jitter_sigma = config.jitter_sigma
        self._jitter_max = config.jitter_max_factor

    def _pair_params(self, isp_a: ISP, isp_b: ISP) -> Tuple[PairClass,
                                                            float, float]:
        """Memoised ``(pair_class, loss_probability, path_bps)``."""
        key = (isp_a.asn, isp_b.asn)
        params = self._pair_cache.get(key)
        if params is None:
            pair_class = classify_pair(isp_a, isp_b)
            params = (pair_class, self.config.loss[pair_class],
                      self.config.path_bps[pair_class])
            self._pair_cache[key] = params
        return params

    def invalidate_cache(self) -> None:
        """Drop memoised per-pair parameters after a config change.

        Only needed when mutating ``config`` *after* the model has
        served traffic; construction-time customisation needs nothing.
        """
        self._pair_cache.clear()
        self._jitter_sigma = self.config.jitter_sigma
        self._jitter_max = self.config.jitter_max_factor

    # ------------------------------------------------------------------
    # Dynamic path-quality overrides (fault injection)
    # ------------------------------------------------------------------
    def push_override(self, pair_class: PairClass,
                      override: PathOverride) -> None:
        """Install a degradation episode on one path class."""
        self._overrides.setdefault(pair_class, []).append(override)

    def pop_override(self, pair_class: PairClass,
                     override: PathOverride) -> None:
        """Remove a previously pushed override (identity match)."""
        stack = self._overrides.get(pair_class)
        if not stack or override not in stack:
            raise ValueError(f"override not installed on {pair_class}")
        stack.remove(override)
        if not stack:
            del self._overrides[pair_class]

    def active_overrides(self, pair_class: PairClass) -> List[PathOverride]:
        return list(self._overrides.get(pair_class, ()))

    # ------------------------------------------------------------------
    # Stable pairwise structure
    # ------------------------------------------------------------------
    def base_rtt(self, addr_a: str, isp_a: ISP,
                 addr_b: str, isp_b: ISP) -> float:
        """Stable base round-trip time between two hosts, in seconds.

        Symmetric in its arguments, deterministic for a fixed master seed,
        and drawn from the pair class's :class:`RttBand`.
        """
        key = (addr_a, addr_b) if addr_a <= addr_b else (addr_b, addr_a)
        cached = self._base_rtt_cache.get(key)
        if cached is not None:
            return cached
        pair_class = self._pair_params(isp_a, isp_b)[0]
        band = self.config.bands[pair_class]
        pair_rng = self._router.fork(f"pair:{key[0]}|{key[1]}").stream("rtt")
        rtt = band.sample(pair_rng.gauss(0.0, 1.0))
        self._base_rtt_cache[key] = rtt
        return rtt

    def pair_class(self, isp_a: ISP, isp_b: ISP) -> PairClass:
        return self._pair_params(isp_a, isp_b)[0]

    # ------------------------------------------------------------------
    # Per-packet behaviour
    # ------------------------------------------------------------------
    def one_way_delay(self, addr_src: str, isp_src: ISP,
                      addr_dst: str, isp_dst: ISP,
                      wire_bytes: int = 0) -> float:
        """One-way delay for a single packet of ``wire_bytes`` (seconds).

        Propagation (jittered half-RTT) plus the path-throughput term:
        bulk datagrams cross slow long-haul paths far slower than tiny
        control packets.
        """
        base = self.base_rtt(addr_src, isp_src, addr_dst, isp_dst) / 2.0
        jitter = math.exp(self._jitter_rng.gauss(0.0, self._jitter_sigma))
        if jitter > self._jitter_max:
            jitter = self._jitter_max
        delay = base * jitter
        pair_class, _, rate = self._pair_params(isp_src, isp_dst)
        overrides = self._overrides.get(pair_class)
        if overrides:
            for override in overrides:
                delay *= override.latency_multiplier
        if wire_bytes > 0:
            if overrides:
                for override in overrides:
                    rate *= override.bandwidth_multiplier
            delay += wire_bytes * 8.0 / rate
        return delay

    # The transport draws per packet; this cohort form stays only because
    # the layer benchmark (perfbench/layers.py) wraps it as a seam.
    def one_way_delays(self, items: List[tuple]) -> List[float]:
        """:meth:`one_way_delay` per ``(addr_src, isp_src, addr_dst,
        isp_dst, wire_bytes)`` item, in item order."""
        return [self.one_way_delay(*item) for item in items]

    def is_lost(self, isp_src: ISP, isp_dst: ISP) -> bool:
        """Bernoulli loss draw for a packet on this path.

        Exactly one draw per call, override or not: degradation episodes
        adjust the probability, never the draw count.
        """
        pair_class, probability, _ = self._pair_params(isp_src, isp_dst)
        overrides = self._overrides.get(pair_class)
        if overrides:
            for override in overrides:
                probability = probability * override.loss_multiplier \
                    + override.extra_loss
            probability = min(probability, 1.0)
        return self._loss_rng.random() < probability

    # Kept for the same reason as one_way_delays: a perfbench seam.
    def are_lost(self, pairs: List[tuple]) -> List[bool]:
        """:meth:`is_lost` per ``(isp_src, isp_dst)`` pair, in pair order."""
        return [self.is_lost(isp_src, isp_dst) for isp_src, isp_dst in pairs]

    def cache_size(self) -> int:
        """Number of pairwise base RTTs drawn so far (test/diagnostic)."""
        return len(self._base_rtt_cache)
