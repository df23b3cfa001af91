"""Streaming traffic-flow accounting: the live locality instrument.

The paper's subject is *where streaming bytes flow* — ISP-level traffic
locality, transit vs intra-ISP volume, contribution skew — but the rest
of the observability stack only measures *how fast* a run is going.
This module closes that gap with a constant-memory ledger that attaches
to the transport's flow-sink seam (:meth:`repro.network.transport
.UdpNetwork.set_flow_sink`) and accounts every *delivered* datagram into:

1. an ISP x ISP x message-kind traffic matrix (bytes and datagrams),
   each cell classified as ``intra`` (same AS), ``transoceanic``
   (crosses an ocean) or ``transit`` (any other inter-ISP path),
2. tumbling-window locality time-series keyed to *simulated* time:
   per-window totals per scope plus per-ISP in/out bytes,
3. a bounded space-saving top-k sketch of directed per-peer-pair flows
   (the live view of the paper's contribution-rank skew).

Everything the ledger stores is derived from simulation state alone —
no wall clock anywhere — so the artifact a run emits is byte-identical
across ``--jobs N``, checkpoint/resume, and telemetry on/off, like
every other deterministic artifact in this repo.

The address -> ISP join goes through the same :class:`AsnDirectory`
lookup the post-hoc analysis pipeline uses (the "Team Cymru" analogue),
which is what makes the ledger's transit-byte share *exactly* equal to
the number ``repro.analysis.locality.transit_byte_share`` computes from
a full delivery trace — asserted on the golden campaign in
``tests/test_flows.py``.

Artifact format (``--flows PATH``): append-only JSONL with sorted keys.
A ``flows_header`` record opens the file, one ``unit_flows`` record per
finished session / campaign (program, day) unit follows, and a
``flows_summary`` footer carries the deterministic merge of every unit.
:func:`read_flows` tolerates a torn final line exactly like the
progress-bus reader, so ``repro flows`` works on a live artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter
from typing import (IO, Any, Dict, List, Optional, Sequence, Tuple,
                    Union)

from .live import read_progress

#: Sort key for draining pair slots ([bytes, sketch key]) canonically.
_slot_key = itemgetter(1)

#: Artifact schema version (bumped on incompatible format changes).
FLOWS_VERSION = 1

KIND_FLOWS_HEADER = "flows_header"
KIND_UNIT_FLOWS = "unit_flows"
KIND_FLOWS_SUMMARY = "flows_summary"

#: The three traffic scopes, in display order.
SCOPE_INTRA = "intra"
SCOPE_TRANSIT = "transit"
SCOPE_TRANSOCEANIC = "transoceanic"
SCOPES = (SCOPE_INTRA, SCOPE_TRANSIT, SCOPE_TRANSOCEANIC)


@dataclass(frozen=True)
class FlowSpec:
    """Knobs of the flow ledger.

    Frozen and picklable on purpose: the spec rides on scenario and
    campaign configs into worker processes (which carry no
    :class:`Instrumentation`), so ``--jobs N`` workers can account flows
    and ship the snapshots back for the parent's deterministic merge.
    """

    #: Tumbling-window length in simulated seconds.
    window: float = 60.0
    #: Capacity of the space-saving per-peer-pair sketch.
    top_k: int = 32

    def validate(self) -> None:
        if not self.window > 0:
            raise ValueError(f"flow window must be > 0, got {self.window}")
        if self.top_k < 1:
            raise ValueError(f"flow top_k must be >= 1, got {self.top_k}")

    def to_dict(self) -> dict:
        return {"window": float(self.window), "top_k": int(self.top_k)}

    @classmethod
    def from_dict(cls, data: dict) -> "FlowSpec":
        return cls(window=float(data["window"]), top_k=int(data["top_k"]))


# ----------------------------------------------------------------------
# Share helpers (the one formula, used by ledger, analysis cross-check
# and renderers alike, so "exactly equal" means exactly equal)
# ----------------------------------------------------------------------
def intra_share(totals: dict) -> float:
    """Fraction of delivered bytes that stayed inside one AS."""
    total = totals["bytes"]
    if total == 0:
        return 0.0
    return totals["intra_bytes"] / total


def transit_share(totals: dict) -> float:
    """Fraction of delivered bytes that crossed an AS boundary.

    Transoceanic bytes are transit bytes too — the split only refines
    *which* boundary was crossed — so this is ``1 - intra_share`` by
    construction, computed as ``(total - intra) / total`` on exact
    integer byte counts.
    """
    total = totals["bytes"]
    if total == 0:
        return 0.0
    return (total - totals["intra_bytes"]) / total


class SpaceSavingSketch:
    """Deterministic bounded-memory top-k counter (Metwally et al.).

    At most ``capacity`` keys are held.  A new key arriving at capacity
    evicts the current minimum — ties broken by key, never by insertion
    history — and inherits its count as the classic over-estimation
    bound, recorded per entry as ``error``.  With identical input the
    sketch state is a pure function of the multiset of additions, which
    is what the cross-mode byte-identity tests rely on.

    The minimum comes from a lazily-corrected heap (one ``[count, key]``
    entry per held key; an entry goes stale when its key's count grows
    and is re-keyed the next time it surfaces), so the per-datagram
    worst case — every arrival a new key, as when peer pairs rotate far
    faster than ``capacity`` — costs O(log capacity) instead of a full
    O(capacity) min-scan.  The victim is still exactly
    ``min((count, key))``: stale entries only ever under-state a count,
    so the first heap top whose count is current is the true minimum.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: key -> [count, error]
        self._counts: Dict[str, List[int]] = {}
        #: lazy min-heap of [count, key]; exactly one entry per held key
        self._heap: List[list] = []

    def __len__(self) -> int:
        return len(self._counts)

    def add(self, key: str, amount: int) -> None:
        counts = self._counts
        entry = counts.get(key)
        if entry is not None:
            entry[0] += amount  # heap entry goes stale; corrected lazily
            return
        if len(counts) < self.capacity:
            counts[key] = [amount, 0]
            heappush(self._heap, [amount, key])
            return
        heap = self._heap
        while True:
            top = heap[0]
            current = counts.get(top[1])
            if current is not None and current[0] == top[0]:
                break
            heappop(heap)
            if current is not None:
                heappush(heap, [current[0], top[1]])
        victim_count, victim_key = heap[0]
        heapreplace(heap, [victim_count + amount, key])
        del counts[victim_key]
        counts[key] = [victim_count + amount, victim_count]

    def items(self) -> List[List[Any]]:
        """``[key, count, error]`` rows, heaviest first, key-tie-broken."""
        return [[key, entry[0], entry[1]]
                for key, entry in sorted(self._counts.items(),
                                         key=lambda kv: (-kv[1][0], kv[0]))]

    def load_items(self, items: Sequence[Sequence[Any]]) -> None:
        self._counts = {str(key): [int(count), int(error)]
                        for key, count, error in items}
        if len(self._counts) > self.capacity:
            raise ValueError(
                f"sketch state holds {len(self._counts)} keys, over the "
                f"capacity {self.capacity}")
        self._heap = [[entry[0], key]
                      for key, entry in self._counts.items()]
        heapify(self._heap)

    @staticmethod
    def merged_items(capacity: int,
                     item_lists: Sequence[Sequence[Sequence[Any]]]
                     ) -> List[List[Any]]:
        """Union-sum several sketches' rows, keep the heaviest ``capacity``.

        A key the union drops could in principle out-count a survivor
        (both halves small), which is the usual sketch-merge caveat; the
        per-entry ``error`` fields carry through so readers can see the
        bound.  Deterministic: sums over keys, then a (-count, key) sort.
        """
        combined: Dict[str, List[int]] = {}
        for items in item_lists:
            for key, count, error in items:
                entry = combined.get(key)
                if entry is None:
                    combined[key] = [int(count), int(error)]
                else:
                    entry[0] += int(count)
                    entry[1] += int(error)
        rows = sorted(combined.items(), key=lambda kv: (-kv[1][0], kv[0]))
        return [[key, entry[0], entry[1]]
                for key, entry in rows[:capacity]]


class FlowLedger:
    """Constant-memory flow accounting for one session.

    Attach with ``udp.set_flow_sink(ledger.sink)``, the dedicated
    delivered-datagram seam.  Only deliveries are accounted (the same
    quantity as the transport's ``bytes_delivered`` counter, wire bytes
    = payload + 28-byte header).  Memory is bounded by |ISPs|^2 x
    |message kinds| matrix cells, the number of *non-empty* windows,
    and the sketch capacity — never by datagram count.

    The per-datagram path does almost nothing: it bumps a pending
    ``(src, dst, kind) -> [bytes, datagrams]`` accumulator and checks
    one float against the current window's end.  Address resolution,
    scope classification, matrix/totals updates and sketch feeding all
    happen at *fold points* — window rolls, :meth:`finish`,
    :meth:`snapshot_state` — where the pending aggregates are folded.
    Because every folded structure is a sum, the result is identical to
    per-datagram accounting; the sketch sees one deterministic per-fold
    aggregate per peer pair (drained in sorted sketch-key order)
    instead of every datagram, which is both ~1000x fewer additions and
    a strictly better-conditioned input for space-saving top-k.  Fold
    points are pure functions of simulated time and the datagram
    stream, so the artifact stays byte-identical across ``--jobs N``
    and resume.
    """

    __slots__ = (
        "spec", "_window", "_directory", "_catalog", "_classify",
        "_intra_class", "_ocean_class", "_isp_cache", "_scope_cache",
        "_pair_cache", "totals", "_matrix", "_windows", "_win", "_acc",
        "_fold_cache", "_pair_slots", "_isp_io", "_win_until", "_sketch",
        "datagrams_ignored", "_adversarial")

    def __init__(self, directory, catalog,
                 spec: Optional[FlowSpec] = None) -> None:
        # Deferred import: repro.network imports repro.obs at module
        # load, so the obs package cannot import network symbols at the
        # top level without an import cycle.
        from ..network.latency import PairClass, classify_pair
        self.spec = spec if spec is not None else FlowSpec()
        self.spec.validate()
        self._window = self.spec.window
        self._directory = directory
        self._catalog = catalog
        self._classify = classify_pair
        self._intra_class = PairClass.INTRA_ISP
        self._ocean_class = PairClass.TRANSOCEANIC
        self._isp_cache: Dict[str, Any] = {}
        self._scope_cache: Dict[Tuple[int, int], str] = {}
        #: (src, dst) -> (src name, dst name, scope, scope index,
        #: sketch key), or None for an unresolvable endpoint.  One dict
        #: hit replaces two address joins, a classification and an
        #: f-string on the per-datagram path.
        self._pair_cache: Dict[Tuple[str, str], Any] = {}
        self.totals: Dict[str, int] = {
            "bytes": 0, "datagrams": 0, "intra_bytes": 0,
            "transit_bytes": 0, "transoceanic_bytes": 0}
        #: Addresses flagged adversarial (fault injection); bytes *sent*
        #: by them are tallied in ``totals["adversarial_bytes"]``.  The
        #: key only materialises once such bytes exist, so clean-run
        #: artifacts are byte-identical to the pre-adversary format.
        self._adversarial: set = set()
        #: (src ISP name, dst ISP name, kind) -> [scope, bytes, datagrams]
        self._matrix: Dict[Tuple[str, str, str], List[Any]] = {}
        self._windows: List[list] = []
        #: Open window in row form: [index, bytes, datagrams, intra,
        #: transit, transoceanic, by_isp dict], or None between windows.
        self._win: Optional[list] = None
        #: Pending (src, dst, kind) -> [bytes, datagrams] aggregates for
        #: the open window — the only thing the hot path writes.  The
        #: kind component is the payload class on the hot paths (name
        #: resolution is deferred to the fold plan) or a plain string
        #: via :meth:`record`.
        self._acc: Dict[Tuple[str, str, Any], List[int]] = {}
        #: (src, dst, kind) -> fold plan (matrix cell, scope index,
        #: per-ISP in/out slots, per-pair sketch slot, intra flag) or
        #: None, so repeat folds of a hot key skip resolution,
        #: classification and every per-visit dict lookup: a fold visit
        #: is list bumps on structures the plan points at directly.
        self._fold_cache: Dict[Tuple[str, str, Any], Any] = {}
        #: (src, dst) -> [pending sketch bytes, sketch key], shared by
        #: every kind's plan for that pair; drained (and zeroed) into
        #: the sketch at the end of each fold.
        self._pair_slots: Dict[Tuple[str, str], list] = {}
        #: ISP name -> [pending in-bytes, pending out-bytes], drained
        #: (and zeroed) into the open window's by-ISP row per fold.
        self._isp_io: Dict[str, list] = {}
        #: Sim time at which the open window ends; anything at or past
        #: it triggers a fold.  Starts in the past so the first datagram
        #: opens a window.
        self._win_until = -1.0
        self._sketch = SpaceSavingSketch(self.spec.top_k)
        #: Datagrams whose endpoints resolved to no AS (none in a
        #: default deployment; counted rather than silently skewed).
        self.datagrams_ignored = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def sink(self, datagram, now: float, wire_bytes: int) -> None:
        """The transport flow-sink: one delivered datagram.

        This is the hot attachment (``udp.set_flow_sink(ledger.sink)``):
        ``_deliver`` already computed ``wire_bytes`` for its own
        counters and passes it straight through, so the per-datagram
        cost is one pending-accumulator bump and a window-boundary
        check.  The accumulator key holds the payload *class* — turning
        it into the kind name is fold-point work, not hot-path work.
        Mirrors :meth:`record` inline rather than calling it — the
        extra call would cost more than the body.
        """
        if now >= self._win_until:
            self._roll(now)
        key = (datagram.src, datagram.dst, datagram.payload.__class__)
        acc = self._acc.get(key)
        if acc is None:
            self._acc[key] = [wire_bytes, 1]
        else:
            acc[0] += wire_bytes
            acc[1] += 1

    def _isp_of(self, address: str):
        isp = self._isp_cache.get(address, _UNRESOLVED)
        if isp is not _UNRESOLVED:
            return isp
        record = self._directory.lookup(address)
        isp = self._catalog.by_asn(record.asn) if record is not None \
            else None
        self._isp_cache[address] = isp
        return isp

    def _scope_of(self, src_isp, dst_isp) -> str:
        key = (src_isp.asn, dst_isp.asn)
        scope = self._scope_cache.get(key)
        if scope is None:
            pair_class = self._classify(src_isp, dst_isp)
            if pair_class is self._intra_class:
                scope = SCOPE_INTRA
            elif pair_class is self._ocean_class:
                scope = SCOPE_TRANSOCEANIC
            else:
                scope = SCOPE_TRANSIT
            self._scope_cache[key] = scope
        return scope

    def _pair_info(self, src: str, dst: str):
        """Cold path of the pair cache: resolve, classify, build keys."""
        src_isp = self._isp_of(src)
        dst_isp = self._isp_of(dst)
        if src_isp is None or dst_isp is None:
            return None
        scope = self._scope_of(src_isp, dst_isp)
        return (src_isp.name, dst_isp.name, scope, SCOPES.index(scope),
                f"{src}->{dst}")

    def record(self, src: str, dst: str, kind: str, wire_bytes: int,
               time: float) -> None:
        """Account one delivered datagram of ``wire_bytes`` at sim ``time``.

        Only bumps the pending accumulator; totals/matrix/windows/sketch
        reflect it after the next fold point (window roll,
        :meth:`finish` or :meth:`snapshot_state`).
        """
        if time >= self._win_until:
            self._roll(time)
        key = (src, dst, kind)
        acc = self._acc.get(key)
        if acc is None:
            self._acc[key] = [wire_bytes, 1]
        else:
            acc[0] += wire_bytes
            acc[1] += 1

    def _fold_plan(self, key: Tuple[str, str, Any]):
        """Cold path of the fold cache: everything a fold of ``key``
        needs that does not change between folds.

        ``key[2]`` is the payload class when the hot path accumulated
        it (:meth:`sink`) or already a kind string
        (:meth:`record`); either way the matrix cell is keyed by the
        kind *name*, so both spellings fold into the same cell.
        """
        src, dst, kind = key
        if not isinstance(kind, str):
            kind = kind.__name__
        pair = (src, dst)
        info = self._pair_cache.get(pair, _UNRESOLVED)
        if info is _UNRESOLVED:
            info = self._pair_info(src, dst)
            self._pair_cache[pair] = info
        if info is None:
            return None
        src_name, dst_name, scope, scope_idx, flow_key = info
        cell_key = (src_name, dst_name, kind)
        cell = self._matrix.get(cell_key)
        if cell is None:
            cell = [scope, 0, 0]
            self._matrix[cell_key] = cell
        src_io = self._isp_io.get(src_name)
        if src_io is None:
            src_io = self._isp_io[src_name] = [0, 0]
        dst_io = self._isp_io.get(dst_name)
        if dst_io is None:
            dst_io = self._isp_io[dst_name] = [0, 0]
        pair_slot = self._pair_slots.get(pair)
        if pair_slot is None:
            pair_slot = self._pair_slots[pair] = [0, flow_key]
        return (cell, scope_idx, src_io, dst_io, pair_slot,
                src_name == dst_name, src in self._adversarial)

    def _fold_pending(self) -> None:
        """Fold pending aggregates into totals/matrix/window/sketch.

        Every target but the sketch is a sum, so the accumulator can be
        walked in insertion order with the scalar sums batched into one
        update per fold; the sketch — the one order-sensitive structure
        — is fed per-pair aggregates in sorted key order, making its
        state a canonical function of the window's traffic.
        """
        acc = self._acc
        if not acc:
            return
        win = self._win
        fold_cache = self._fold_cache
        touched: List[list] = []
        fold_bytes = fold_datagrams = adversarial_bytes = 0
        scoped = [0, 0, 0]  # intra, transit, transoceanic
        for key, pending in acc.items():
            plan = fold_cache.get(key, _UNRESOLVED)
            if plan is _UNRESOLVED:
                plan = self._fold_plan(key)
                fold_cache[key] = plan
            if plan is None:
                self.datagrams_ignored += pending[1]
                continue
            n_bytes = pending[0]
            cell, scope_idx, src_io, dst_io, pair_slot, same, adv = plan

            if adv:
                adversarial_bytes += n_bytes
            fold_bytes += n_bytes
            fold_datagrams += pending[1]
            scoped[scope_idx] += n_bytes
            cell[1] += n_bytes
            cell[2] += pending[1]

            if same:
                src_io[0] += n_bytes
                src_io[1] += n_bytes
            else:
                src_io[1] += n_bytes
                dst_io[0] += n_bytes

            if not pair_slot[0]:
                touched.append(pair_slot)
            pair_slot[0] += n_bytes

        totals = self.totals
        totals["bytes"] += fold_bytes
        totals["datagrams"] += fold_datagrams
        totals["intra_bytes"] += scoped[0]
        totals["transit_bytes"] += scoped[1]
        totals["transoceanic_bytes"] += scoped[2]
        if adversarial_bytes:
            totals["adversarial_bytes"] = (
                totals.get("adversarial_bytes", 0) + adversarial_bytes)
        win[1] += fold_bytes
        win[2] += fold_datagrams
        win[3] += scoped[0]
        win[4] += scoped[1]
        win[5] += scoped[2]

        # Drain the per-ISP in/out slots into the open window's by-ISP
        # row — at most one entry per ISP, however many pairs folded.
        by_isp = win[6]
        for name, io in self._isp_io.items():
            in_bytes, out_bytes = io
            if in_bytes or out_bytes:
                entry = by_isp.get(name)
                if entry is None:
                    by_isp[name] = [in_bytes, out_bytes]
                else:
                    entry[0] += in_bytes
                    entry[1] += out_bytes
                io[0] = 0
                io[1] = 0

        # Drain the touched pair slots into the sketch in sorted
        # sketch-key order — the canonical feed (slots are unique per
        # pair, so sorting by key is a total order).
        touched.sort(key=_slot_key)
        sketch_add = self._sketch.add
        for slot in touched:
            sketch_add(slot[1], slot[0])
            slot[0] = 0
        acc.clear()

    def _roll(self, now: float) -> None:
        """Close the current window (if any) and open the one at ``now``."""
        if self._win is not None:
            self._fold_pending()
            self._windows.append(self._window_row(self._win))
        index = int(now // self._window)
        self._win = [index, 0, 0, 0, 0, 0, {}]
        self._win_until = (index + 1) * self._window

    @staticmethod
    def _window_row(win: list) -> list:
        """Canonical JSON-safe row: scalars plus a key-sorted ISP map."""
        return win[:6] + [{name: list(in_out)
                           for name, in_out in sorted(win[6].items())}]

    def finish(self, now: float) -> None:
        """Close the open window; call once when the session ends."""
        if self._win is not None:
            self._fold_pending()
            self._windows.append(self._window_row(self._win))
            self._win = None
            self._win_until = -1.0

    # ------------------------------------------------------------------
    # Live views
    # ------------------------------------------------------------------
    def heartbeat_fields(self) -> dict:
        """Small deterministic snapshot folded into heartbeat records.

        Reads pending aggregates as a non-mutating overlay on the folded
        totals: heartbeats land mid-window, and actually folding here
        would make the sketch feed depend on whether a progress bus is
        attached — breaking the telemetry-on/off byte-identity contract.
        """
        total_bytes = self.totals["bytes"]
        intra_bytes = self.totals["intra_bytes"]
        pair_cache = self._pair_cache
        for (src, dst, _kind), (n_bytes, _n_datagrams) \
                in self._acc.items():
            pair = (src, dst)
            info = pair_cache.get(pair, _UNRESOLVED)
            if info is _UNRESOLVED:
                info = self._pair_info(src, dst)
                pair_cache[pair] = info
            if info is None:
                continue
            total_bytes += n_bytes
            if info[2] == SCOPE_INTRA:
                intra_bytes += n_bytes
        share = intra_bytes / total_bytes if total_bytes else 0.0
        fields = {
            "bytes": total_bytes,
            "intra_share": round(share, 4),
            "transit_bytes": total_bytes - intra_bytes,
        }
        reference = self._windows[-1] if self._windows else None
        if reference is not None:
            window_transit = reference[1] - reference[3]
            fields["transit_bps"] = round(
                8.0 * window_transit / self.spec.window, 1)
        return dict(sorted(fields.items()))

    def transit_byte_share(self) -> float:
        """The headline number: share of delivered bytes crossing an AS."""
        return transit_share(self.totals)

    def mark_adversarial(self, address: str) -> None:
        """Tag an address as adversarial: its *sent* bytes count toward
        ``totals["adversarial_bytes"]`` from here on.

        Addresses are marked the moment the fault injector attaches a
        model (at viewer spawn, before any of its datagrams deliver);
        cached fold plans for the address are invalidated anyway, in
        case an address is ever re-marked mid-stream.
        """
        if address in self._adversarial:
            return
        self._adversarial.add(address)
        stale = [key for key in self._fold_cache if key[0] == address]
        for key in stale:
            del self._fold_cache[key]

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpoint seam + artifact payload)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full-fidelity, JSON-safe state (a JSON round-trip fixed point).

        After :meth:`finish` this doubles as the artifact/unit payload;
        mid-run it is a *fold point* — pending aggregates fold in first,
        the open window rides along — and a restored ledger continues
        byte-identically with a run that folded at the same sim time.
        Campaign checkpoints only ever snapshot finished units, where
        every fold has already happened.
        """
        self._fold_pending()
        totals = dict(sorted(self.totals.items()))
        if not totals.get("adversarial_bytes"):
            # Clean runs keep the pre-adversary payload shape, so golden
            # artifacts and their digests are unchanged.
            totals.pop("adversarial_bytes", None)
        state = {
            "version": FLOWS_VERSION,
            "window": float(self.spec.window),
            "top_k": int(self.spec.top_k),
            "totals": totals,
            "matrix": [[src, dst, kind, cell[0], cell[1], cell[2]]
                       for (src, dst, kind), cell
                       in sorted(self._matrix.items())],
            "windows": [list(row[:6]) + [dict(row[6])]
                        for row in self._windows],
            "top": self._sketch.items(),
            "open_window": (self._window_row(self._win)
                            if self._win is not None else None),
            "datagrams_ignored": self.datagrams_ignored,
        }
        if self._adversarial:
            state["adversarial"] = sorted(self._adversarial)
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` dict (exact fixed point)."""
        validate_flow_payload(state, self.spec)
        self.totals = {key: int(value)
                       for key, value in state["totals"].items()}
        self._adversarial = set(state.get("adversarial", []))
        self._matrix = {
            (src, dst, kind): [scope, int(n_bytes), int(n_datagrams)]
            for src, dst, kind, scope, n_bytes, n_datagrams
            in state["matrix"]}
        self._windows = [list(row[:6]) + [{name: [int(v) for v in in_out]
                                           for name, in_out
                                           in row[6].items()}]
                         for row in state["windows"]]
        self._sketch = SpaceSavingSketch(self.spec.top_k)
        self._sketch.load_items(state["top"])
        self._acc = {}
        # Plans point at the replaced matrix cells and drained slots;
        # rebuild all three together (slots are always zero post-fold,
        # so this is about object identity, not lost counts).
        self._fold_cache = {}
        self._pair_slots = {}
        self._isp_io = {}
        open_window = state.get("open_window")
        if open_window is None:
            self._win = None
            self._win_until = -1.0
        else:
            self._win = list(open_window[:6]) + [
                {name: [int(v) for v in in_out]
                 for name, in_out in open_window[6].items()}]
            self._win_until = (open_window[0] + 1) * self._window
        self.datagrams_ignored = int(state.get("datagrams_ignored", 0))


#: Sentinel distinguishing "never looked up" from "resolved to None".
_UNRESOLVED = object()


def validate_flow_payload(payload: dict,
                          spec: Optional[FlowSpec] = None) -> None:
    """Raise ``ValueError`` on version/shape/spec mismatches."""
    if not isinstance(payload, dict):
        raise ValueError(f"flow payload must be a dict, got "
                         f"{type(payload).__name__}")
    version = payload.get("version")
    if version != FLOWS_VERSION:
        raise ValueError(f"flow payload version {version!r} is not the "
                         f"supported version {FLOWS_VERSION}")
    for field in ("totals", "matrix", "windows", "top"):
        if field not in payload:
            raise ValueError(f"flow payload is missing {field!r}")
    if spec is not None:
        if (payload.get("window") != spec.window
                or payload.get("top_k") != spec.top_k):
            raise ValueError(
                f"flow payload was recorded with window="
                f"{payload.get('window')} top_k={payload.get('top_k')}, "
                f"but this run uses window={spec.window} "
                f"top_k={spec.top_k}")


def merge_flow_payloads(payloads: Sequence[dict]) -> dict:
    """Deterministic fold of unit payloads into one campaign payload.

    Totals and matrix cells sum; windows merge *by index* (the units
    are same-shaped sessions, so the merged series is the aggregate
    per-window-of-session profile); sketches union-sum and truncate
    back to capacity (see :meth:`SpaceSavingSketch.merged_items`).
    Pure function of the payload multiset — input order never shows.
    """
    if not payloads:
        raise ValueError("cannot merge zero flow payloads")
    first = payloads[0]
    validate_flow_payload(first)
    spec = FlowSpec.from_dict(first)
    totals = {"bytes": 0, "datagrams": 0, "intra_bytes": 0,
              "transit_bytes": 0, "transoceanic_bytes": 0}
    matrix: Dict[Tuple[str, str, str], List[Any]] = {}
    windows: Dict[int, list] = {}
    ignored = 0

    def fold_window(row: list) -> None:
        target = windows.get(row[0])
        if target is None:
            windows[row[0]] = [row[0], row[1], row[2], row[3], row[4],
                               row[5],
                               {name: [int(v) for v in in_out]
                                for name, in_out in row[6].items()}]
            return
        for position in range(1, 6):
            target[position] += row[position]
        by_isp = target[6]
        for name, in_out in row[6].items():
            entry = by_isp.get(name)
            if entry is None:
                by_isp[name] = [int(v) for v in in_out]
            else:
                entry[0] += in_out[0]
                entry[1] += in_out[1]

    for payload in payloads:
        validate_flow_payload(payload, spec)
        for key, value in payload["totals"].items():
            totals[key] = totals.get(key, 0) + int(value)
        for src, dst, kind, scope, n_bytes, n_datagrams \
                in payload["matrix"]:
            cell_key = (src, dst, kind)
            cell = matrix.get(cell_key)
            if cell is None:
                matrix[cell_key] = [scope, int(n_bytes), int(n_datagrams)]
            else:
                if cell[0] != scope:
                    raise ValueError(
                        f"flow payloads disagree on the scope of "
                        f"{cell_key}: {cell[0]!r} vs {scope!r}")
                cell[1] += int(n_bytes)
                cell[2] += int(n_datagrams)
        for row in payload["windows"]:
            fold_window(row)
        if payload.get("open_window") is not None:
            fold_window(payload["open_window"])
        ignored += int(payload.get("datagrams_ignored", 0))

    return {
        "version": FLOWS_VERSION,
        "window": spec.window,
        "top_k": spec.top_k,
        "totals": dict(sorted(totals.items())),
        "matrix": [[src, dst, kind, cell[0], cell[1], cell[2]]
                   for (src, dst, kind), cell in sorted(matrix.items())],
        "windows": [list(windows[index][:6]) +
                    [dict(sorted(windows[index][6].items()))]
                    for index in sorted(windows)],
        "top": SpaceSavingSketch.merged_items(
            spec.top_k, [payload["top"] for payload in payloads]),
        "open_window": None,
        "datagrams_ignored": ignored,
    }


# ----------------------------------------------------------------------
# Artifact writer
# ----------------------------------------------------------------------
class FlowsWriter:
    """Versioned append-only ``flows.jsonl`` artifact for one run.

    Records carry *no* wall-clock fields and are serialised with sorted
    keys, so two runs producing the same flow data produce the same
    bytes — the property the ``--jobs {1,2}`` and resume tests pin.
    The summary footer (deterministic merge of every unit written) lands
    on :meth:`close`, which the CLI drives through its ExitStack — so a
    crashed run still gets a summary over the units it finished.
    """

    def __init__(self, path_or_file: Union[str, IO[str]],
                 spec: Optional[FlowSpec] = None) -> None:
        self.spec = spec if spec is not None else FlowSpec()
        self.spec.validate()
        if isinstance(path_or_file, str):
            self._file: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
            self.path: Optional[str] = path_or_file
        else:
            self._file = path_or_file
            self._owns_file = False
            self.path = getattr(path_or_file, "name", None)
        self._payloads: List[dict] = []
        self._closed = False
        self.records_written = 0
        self._write({"kind": KIND_FLOWS_HEADER, "version": FLOWS_VERSION,
                     **self.spec.to_dict()})

    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        self._file.flush()
        self.records_written += 1

    def write_unit(self, unit: dict, payload: dict) -> None:
        """Append one finished unit's flow payload.

        ``unit`` labels it (e.g. ``{"day": 3, "popularity": "popular"}``
        or ``{"session": "tele-popular@small#7"}``).
        """
        if self._closed:
            return
        validate_flow_payload(payload, self.spec)
        self._payloads.append(payload)
        self._write({"kind": KIND_UNIT_FLOWS, "unit": unit,
                     "flows": payload})

    def close(self) -> None:
        if self._closed:
            return
        if self._payloads:
            self._write({"kind": KIND_FLOWS_SUMMARY,
                         "units": len(self._payloads),
                         "flows": merge_flow_payloads(self._payloads)})
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()


# ----------------------------------------------------------------------
# Readers (torn-tail tolerant, like the progress bus)
# ----------------------------------------------------------------------
def read_flows(path_or_file: Union[str, IO[str]], *,
               with_tail: bool = False):
    """Parse a flows JSONL artifact; tolerates a torn final line."""
    return read_progress(path_or_file, with_tail=with_tail)


def flows_summary_payload(records: Sequence[dict]) -> Optional[dict]:
    """The merged payload for a record stream, or ``None`` if no units.

    Recomputed from the unit records rather than trusting the footer,
    so a live (footer-less) artifact summarises identically to the
    finished one — and the footer is verifiable against it.
    """
    payloads = [record["flows"] for record in records
                if record.get("kind") == KIND_UNIT_FLOWS
                and isinstance(record.get("flows"), dict)]
    if not payloads:
        return None
    return merge_flow_payloads(payloads)


def summarize_flows(records: Sequence[dict]) -> dict:
    """Fold a flows record stream into one status dict."""
    summary: dict = {"records": len(records)}
    header = next((record for record in records
                   if record.get("kind") == KIND_FLOWS_HEADER), None)
    if header is not None:
        summary["version"] = header.get("version")
        summary["window"] = header.get("window")
        summary["top_k"] = header.get("top_k")
    units = [record for record in records
             if record.get("kind") == KIND_UNIT_FLOWS]
    summary["units"] = len(units)
    footer = next((record for record in reversed(records)
                   if record.get("kind") == KIND_FLOWS_SUMMARY), None)
    summary["state"] = "finished" if footer is not None else (
        "running" if records else "empty")
    merged = flows_summary_payload(records)
    if merged is not None:
        totals = merged["totals"]
        summary["totals"] = totals
        summary["intra_share"] = intra_share(totals)
        summary["transit_share"] = transit_share(totals)
        summary["transoceanic_bytes"] = totals["transoceanic_bytes"]
        summary["windows"] = len(merged["windows"])
        summary["matrix_cells"] = len(merged["matrix"])
        summary["top_flows"] = len(merged["top"])
        summary["datagrams_ignored"] = merged["datagrams_ignored"]
    return summary


# ----------------------------------------------------------------------
# Rendering (the `repro flows` views)
# ----------------------------------------------------------------------
def _fmt_bytes(value: int) -> str:
    if value >= 1024 * 1024:
        return f"{value / (1024 * 1024):.1f} MiB"
    if value >= 1024:
        return f"{value / 1024:.1f} KiB"
    return f"{value} B"


def render_flow_summary(summary: dict, source: str = "") -> str:
    """Human-readable ``repro flows summary`` output."""
    lines = []
    if source:
        lines.append(f"flows: {source}")
    head = [f"state={summary.get('state', '?')}"]
    if summary.get("version") is not None:
        head.append(f"v{summary['version']}")
    if summary.get("window") is not None:
        head.append(f"window={summary['window']:g}s")
    head.append(f"units={summary.get('units', 0)}")
    lines.append("  " + " ".join(head))
    totals = summary.get("totals")
    if totals is None:
        lines.append("  no unit flow records yet")
        return "\n".join(lines)
    lines.append(
        f"  delivered {_fmt_bytes(totals['bytes'])} in "
        f"{totals['datagrams']:,} datagrams")
    lines.append(
        f"  intra-ISP {100.0 * summary['intra_share']:.1f}% · transit "
        f"{100.0 * summary['transit_share']:.1f}% (transoceanic "
        f"{_fmt_bytes(totals['transoceanic_bytes'])})")
    lines.append(
        f"  {summary['windows']} windows · "
        f"{summary['matrix_cells']} matrix cells · "
        f"top-{summary['top_flows']} flows tracked")
    if summary.get("datagrams_ignored"):
        lines.append(f"  datagrams ignored (unresolved AS): "
                     f"{summary['datagrams_ignored']}")
    return "\n".join(lines)


def render_flow_matrix(payload: dict, by_kind: bool = False) -> str:
    """ISP x ISP table; ``by_kind`` keeps the message-kind split."""
    if by_kind:
        rows = [((src, dst, kind), scope, n_bytes, n_datagrams)
                for src, dst, kind, scope, n_bytes, n_datagrams
                in payload["matrix"]]
        header = ("src", "dst", "kind", "scope", "bytes", "datagrams")
    else:
        folded: Dict[Tuple[str, str], List[Any]] = {}
        for src, dst, _kind, scope, n_bytes, n_datagrams \
                in payload["matrix"]:
            cell = folded.setdefault((src, dst), [scope, 0, 0])
            cell[1] += n_bytes
            cell[2] += n_datagrams
        rows = [(key, cell[0], cell[1], cell[2])
                for key, cell in sorted(folded.items())]
        header = ("src", "dst", "scope", "bytes", "datagrams")
    table = [header]
    for key, scope, n_bytes, n_datagrams in rows:
        table.append(tuple(key) + (scope, f"{n_bytes:,}",
                                   f"{n_datagrams:,}"))
    widths = [max(len(str(row[column])) for row in table)
              for column in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(str(cell).ljust(width)
                               for cell, width in zip(row, widths))
                     .rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_flow_windows(payload: dict) -> str:
    """Per-window locality time-series table."""
    window = payload["window"]
    lines = [f"{'window':>14}  {'bytes':>12}  {'intra%':>7}  "
             f"{'transit':>12}  {'ocean':>10}",
             f"{'-' * 14}  {'-' * 12}  {'-' * 7}  {'-' * 12}  "
             f"{'-' * 10}"]
    for row in payload["windows"]:
        index, n_bytes = row[0], row[1]
        intra, ocean = row[3], row[5]
        transit_bytes = n_bytes - intra
        share = 100.0 * intra / n_bytes if n_bytes else 0.0
        span = f"{index * window:g}-{(index + 1) * window:g}s"
        lines.append(f"{span:>14}  {n_bytes:>12,}  {share:>6.1f}%  "
                     f"{transit_bytes:>12,}  {ocean:>10,}")
    return "\n".join(lines)


def render_flow_top(payload: dict, limit: Optional[int] = None) -> str:
    """Heaviest peer-pair flows (space-saving estimates)."""
    total = payload["totals"]["bytes"]
    rows = payload["top"][:limit] if limit else payload["top"]
    lines = [f"{'flow':<34}  {'bytes':>12}  {'share':>6}  {'±err':>10}",
             f"{'-' * 34}  {'-' * 12}  {'-' * 6}  {'-' * 10}"]
    for key, count, error in rows:
        share = 100.0 * count / total if total else 0.0
        lines.append(f"{key:<34}  {count:>12,}  {share:>5.1f}%  "
                     f"{error:>10,}")
    return "\n".join(lines)
