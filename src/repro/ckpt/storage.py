"""Checkpoint stable storage: one store, configured by its tiers.

Each application process dumps through *its own node's* disk (the paper's
measurements are of local IDE disks), and records are registered in a
cluster-wide repository reachable after the writer's node dies — the
standard stable-storage assumption of rollback-recovery.

:class:`CheckpointStore` is the only store.  What it models is set by
two parameters, never by a subclass:

* ``tiers`` — where copies live, fastest first.  ``("global",)`` (the
  default) is the paper's idealized stable storage: no holders, always
  available, read back through the reader's own disk.  Any other tuple
  is drawn from :data:`TIER_ORDER`: ``memory`` (k partner nodes' RAM,
  lost with its holders), ``disk`` (the writer's local disk) and
  ``fabric`` (k-1 remote disk copies over the data fabric);
* ``k`` — the copy count: the memory tier's fan-out (and the diskless
  protocol's mirror count) and the fabric tier's total copies.

Every record carries a home ``tier`` and a per-tier ``holders`` map.
Availability is holder liveness (the cluster's node table) plus
data-fabric reachability from the reader; a global record is always
available.  Reads follow one rule per record: a memory copy first, then
a durable copy on the reader's own node, then the first reachable
durable holder (disk tier before fabric).

Versioning:

* coordinated protocols store one record per (rank, version) and *commit*
  a version once every rank's record is stored — the committed version is
  the recovery line;
* the uncoordinated protocol stores per-rank indices plus each record's
  dependency vector; recovery lines are computed on demand
  (:mod:`repro.ckpt.recovery_line`).

Delta checkpoints (``delta_depth > 0``) store ``bytes`` images as diffs
against the rank's previous image; reads replay the chain and GC never
collects a base a retained delta still needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, Interrupt, NoCheckpoint
from repro.obs.registry import get_registry

#: Checkpoint storage tiers, fastest first.  L1 lives in partner nodes'
#: RAM (ReStore-style: written at memory/network speed, lost with its
#: holders), L2 is the writer's local disk (the paper's measured IDE
#: path), L3 is the replicated fabric (k-way remote disk copies).
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_FABRIC = "fabric"
TIER_ORDER: Tuple[str, ...] = (TIER_MEMORY, TIER_DISK, TIER_FABRIC)
#: Idealized global stable storage: no holders, never lost.  A store is
#: either ``("global",)`` or a selection from :data:`TIER_ORDER`.
TIER_GLOBAL = "global"
#: Tiers whose copies survive their holder's crash (but not its removal).
DURABLE_TIERS: Tuple[str, ...] = (TIER_DISK, TIER_FABRIC)

#: Promotion policies.
WRITE_THROUGH = "write-through"
WRITE_BACK = "write-back"
PROMOTIONS = (WRITE_THROUGH, WRITE_BACK)

#: Metadata floor charged for a delta that carries (almost) no payload.
MIN_DELTA_NBYTES = 512

#: Default re-replication budget: ~4 MB/s, below Myrinet line rate so
#: repair never starves application traffic in the model.
DEFAULT_REPAIR_BANDWIDTH = 4.0e6


def normalize_tiers(tiers) -> Tuple[str, ...]:
    """Validate and order a tier selection fastest-first."""
    if tuple(tiers or ()) == (TIER_GLOBAL,):
        return (TIER_GLOBAL,)
    if not tiers:
        raise CheckpointError("store_tiers must name at least one tier")
    seen = set()
    for t in tiers:
        if t not in TIER_ORDER:
            raise CheckpointError(
                f"unknown store tier {t!r} (known: {', '.join(TIER_ORDER)})")
        if t in seen:
            raise CheckpointError(f"duplicate store tier {t!r}")
        seen.add(t)
    return tuple(t for t in TIER_ORDER if t in seen)


@dataclass
class CheckpointRecord:
    """One stored local checkpoint.

    Where the copies live is first-class: ``tier`` names the record's
    *home* tier (what kind of storage the writer targeted) and
    ``holders`` maps each tier to the node ids holding a copy there.  A
    record can have copies in several tiers at once; a ``global`` record
    has no holders at all.
    """

    app_id: str
    rank: int
    version: int                 # coordinated: global; uncoordinated: per-rank
    level: str                   # "native" | "vm"
    nbytes: int
    image: Any                   # checkpointer-specific stored form
    arch_name: str
    taken_at: float
    #: MPI runtime state (channel counters, unexpected queue image).
    mpi_state: dict = field(default_factory=dict)
    #: Uncoordinated: the rank's dependency log up to this checkpoint —
    #: ``(sender, sender_interval, my_interval)`` per received message.
    deps: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Chandy–Lamport: in-channel messages recorded with this snapshot.
    channel_msgs: List[Tuple] = field(default_factory=list)
    #: Message log (logging-enabled uncoordinated protocol).
    msg_log: List[Tuple] = field(default_factory=list)
    #: Home tier: ``memory`` for diskless/L1-only records (fast to write
    #: and read, but a copy dies with its holder), ``global`` for the
    #: idealized store, otherwise the store's first durable tier.
    tier: str = TIER_DISK
    #: Per-tier holder map: tier name -> node ids holding a copy there.
    #: Empty for global records.
    holders: Dict[str, List[str]] = field(default_factory=dict)
    #: Delta checkpointing: the version this incremental image applies on
    #: top of (``None`` = a full image).  The chain ends at a full base;
    #: restores replay base + deltas (:mod:`repro.store.delta`).
    delta_of: Optional[int] = None
    #: Logical full-image size for delta records (``nbytes`` is then the
    #: delta payload actually written).
    full_nbytes: Optional[int] = None

    def tier_holders(self, tier: str) -> List[str]:
        """The (mutable) holder list for one tier."""
        return self.holders.setdefault(tier, [])

    def add_holder(self, tier: str, node_id: str) -> None:
        held = self.tier_holders(tier)
        if node_id not in held:
            held.append(node_id)

    def all_holders(self, tiers: Tuple[str, ...] = TIER_ORDER) -> List[str]:
        """Every holder across ``tiers``, fastest tier first, deduped."""
        out: List[str] = []
        for tier in tiers:
            for h in self.holders.get(tier, ()):
                if h not in out:
                    out.append(h)
        return out

    @property
    def is_delta(self) -> bool:
        return self.delta_of is not None


class CheckpointStore:
    """Cluster-wide checkpoint storage over a configured tier stack.

    ``cluster`` supplies node liveness, fabric reachability and the
    replica targets; without one (unit tests) every node counts as up
    and only the ``("global",)`` configuration is allowed.  With a
    cluster the store watches its membership, and a replicating
    configuration (``k > 1``, not global) runs a
    :class:`~repro.store.repair.RepairService`.
    """

    def __init__(self, engine, cluster=None, tiers=(TIER_GLOBAL,),
                 k: int = 2, policy="ring", delta_depth: int = 0,
                 promotion: str = WRITE_THROUGH,
                 repair_bandwidth: float = DEFAULT_REPAIR_BANDWIDTH):
        from repro.store.placement import PlacementPolicy, make_placement
        self.engine = engine
        self.cluster = cluster
        self.tiers = normalize_tiers(tiers)
        if int(k) < 1:
            raise CheckpointError(f"replication factor must be >= 1, got {k}")
        if cluster is None and self.tiers != (TIER_GLOBAL,):
            raise CheckpointError(
                f"store tiers {self.tiers} need a cluster to hold copies")
        if promotion not in PROMOTIONS:
            raise CheckpointError(
                f"unknown promotion policy {promotion!r} "
                f"(known: {', '.join(PROMOTIONS)})")
        if int(delta_depth) < 0:
            raise CheckpointError(
                f"delta_depth must be >= 0, got {delta_depth}")
        self.k = int(k)
        self.promotion = promotion
        self.delta_depth = int(delta_depth)
        if isinstance(policy, PlacementPolicy):
            self.policy = policy
        else:
            # Only the random policy draws; a stream costs a numpy.random
            # import that most runs never need.
            rng = engine.rng.stream("store.place") \
                if policy == "random" and engine is not None else None
            self.policy = make_placement(policy, rng=rng,
                                         reachable=self.reachable)
        #: Home tier of the records :meth:`write` stores.
        self.home_tier = (self.tiers[0] if len(self.tiers) == 1
                          else TIER_DISK if TIER_DISK in self.tiers
                          else TIER_FABRIC)
        # (app_id, rank, version) -> record
        self._records: Dict[Tuple[str, int, int], CheckpointRecord] = {}
        #: Committed coordinated versions per app (ascending).
        self._committed: Dict[str, List[int]] = {}
        #: Read-pin refcounts: a record being read cannot be GCed from
        #: under the reader (the GC defers; :meth:`_unpin` finishes it).
        self._pins: Dict[Tuple[str, int, int], int] = {}
        #: Last GC floor per app — versions below it are garbage the
        #: moment their read-pins drain.
        self._gc_floor: Dict[str, int] = {}
        #: (app_id, rank) -> (version, full image bytes) — the diff base
        #: for the NEXT dump (delta stores only).
        self._base_cache: Dict[Tuple[str, int], Tuple[int, bytes]] = {}
        #: (app_id, rank) -> deltas since the last full base.
        self._chain_len: Dict[Tuple[str, int], int] = {}
        #: Write-back: (writer node id, key, record, pending tiers).
        self._backlog: deque = deque()
        #: Survivability breach log: committed lines that became
        #: non-restorable at a membership change (see _record_breaches).
        self.breaches: list = []
        #: Sender-based message logs: (app_id, sender, dest) -> ascending
        #: [(ssn, entry)] — the logging protocols' replay source.  Like
        #: the checkpoint records, the log is part of stable storage: it
        #: survives the sender's crash.
        self._msg_logs: Dict[Tuple[str, int, int],
                             List[Tuple[int, Tuple]]] = {}
        reg = get_registry(engine)
        self._m_writes = reg.counter(
            "ckpt.store.writes", help="checkpoint records stored")
        self._m_reads = reg.counter(
            "ckpt.store.reads", help="checkpoint records loaded")
        self._m_bytes = reg.counter(
            "ckpt.store.bytes_written", help="checkpoint bytes stored")
        self._m_volatile_lost = reg.counter(
            "ckpt.store.volatile_lost",
            help="diskless records whose last in-memory copy died")
        self._m_log_appends = reg.counter(
            "ckpt.store.log_appends", help="message-log entries appended")
        self._m_log_bytes = reg.counter(
            "ckpt.store.log_bytes", help="message-log payload bytes logged")
        self._m_repl_ok = reg.counter(
            "store.replica.writes", help="replica copies registered")
        self._m_repl_bytes = reg.counter(
            "store.replica.bytes", help="bytes shipped to replica holders")
        self._m_repl_failed = reg.counter(
            "store.replica.failed",
            help="replica transfers lost to crashes/partitions")
        self._m_repl_lost = reg.counter(
            "store.replica.lost",
            help="records whose last holder disappeared")
        self._m_remote_reads = reg.counter(
            "store.replica.remote_reads",
            help="restores served from a non-local holder")
        self._h_fanout = reg.histogram(
            "store.replica.fanout_seconds",
            help="time to replicate one record to its holders",
            buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0))
        reg.gauge_fn("store.replica.deficit", self.replica_deficit)
        self._m_tier_writes = {
            t: reg.counter("store.tier.writes", tier=t,
                           help="tier copies written") for t in TIER_ORDER}
        self._m_tier_reads = {
            t: reg.counter("store.tier.reads", tier=t,
                           help="chain-link reads served per tier")
            for t in TIER_ORDER + (TIER_GLOBAL,)}
        self._m_deltas = reg.counter(
            "store.delta.records", help="incremental (delta) dumps stored")
        self._m_delta_saved = reg.counter(
            "store.delta.bytes_saved",
            help="bytes NOT written thanks to delta capture")
        self._m_squashes = reg.counter(
            "store.delta.squashes",
            help="delta chains cut with a fresh full base")
        self._m_flushes = reg.counter(
            "store.tier.flushes", help="write-back flushes completed")
        self._m_flush_dropped = reg.counter(
            "store.tier.flush_dropped",
            help="write-back flushes abandoned (writer died / record GCed)")
        reg.gauge_fn("store.tier.flush_backlog",
                     lambda: float(len(self._backlog)))
        self._flush_wake = None
        if self.promotion == WRITE_BACK and len(self.tiers) > 1:
            from repro.sim.channel import Channel
            self._flush_wake = Channel(engine, name="store-tier-flush")
            engine.process(self._flush_loop(), name="store-tier-flush")
        #: The failure-driven re-replicator (``None`` when nothing is
        #: replicated: global storage, ``k == 1`` or no cluster).
        self.repair = None
        if cluster is not None:
            if self.k > 1 and self.tiers != (TIER_GLOBAL,):
                from repro.store.repair import RepairService
                self.repair = RepairService(engine, cluster, self,
                                            bandwidth=repair_bandwidth)
            cluster.watchers.append(self.on_membership)

    # ------------------------------------------------------------------
    # cluster probes
    # ------------------------------------------------------------------

    def node_up(self, node_id: str) -> bool:
        """Is the node alive (UP or transiently degraded, not DOWN)?
        Without a cluster every node counts as up."""
        if self.cluster is None:
            return True
        from repro.cluster.node import NodeState
        node = self.cluster.nodes.get(node_id)
        return node is not None and node.state is not NodeState.DOWN

    def reachable(self, src: str, dst: str) -> bool:
        """Data-fabric reachability (honors open partitions)."""
        if src == dst or self.cluster is None:
            return True
        return self.cluster.myrinet._reachable(src, dst)

    def candidates(self, primary: str) -> List[str]:
        """UP nodes other than ``primary``, in deterministic order — the
        placement policies' input universe."""
        from repro.cluster.node import NodeState
        return sorted(n.node_id for n in self.cluster.nodes.values()
                      if n.state is NodeState.UP and n.node_id != primary)

    def _up_count(self) -> int:
        from repro.cluster.node import NodeState
        return sum(1 for n in self.cluster.nodes.values()
                   if n.state is NodeState.UP)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _store(self, record: CheckpointRecord) -> None:
        """Enter ``record`` in the repository."""
        self._records[(record.app_id, record.rank, record.version)] = record
        self._m_writes.inc()
        self._m_bytes.inc(record.nbytes)

    def write(self, node, record: CheckpointRecord,
              bandwidth: Optional[float] = None):
        """Process generator: dump ``record`` through the tier stack.

        The record is registered before its first remote copy ships, or
        right after the writer's local disk write when that comes first.
        Write-through waits for every configured tier; write-back
        returns after the fastest and leaves the rest to the flusher.
        """
        self._deltify(record)
        record.tier = self.home_tier
        if self.promotion == WRITE_BACK:
            inline, deferred = self.tiers[:1], self.tiers[1:]
        else:
            inline, deferred = self.tiers, ()
        local_first = inline[0] in (TIER_GLOBAL, TIER_DISK)
        if not local_first:
            self._store(record)
        for tier in inline:
            yield from self._write_into(node, record, tier, bandwidth)
            if local_first and tier == inline[0]:
                self._store(record)
        if deferred:
            key = (record.app_id, record.rank, record.version)
            self._backlog.append((node.node_id, key, record, deferred))
            self._flush_wake.put(True)

    def _write_into(self, node, record: CheckpointRecord, tier: str,
                    bandwidth: Optional[float] = None):
        """Process generator: land one tier's copies of ``record``."""
        if tier in (TIER_GLOBAL, TIER_DISK):
            yield from node.disk.write(record.nbytes, bandwidth=bandwidth)
            if tier == TIER_DISK and self.node_up(node.node_id):
                record.add_holder(TIER_DISK, node.node_id)
                self._m_tier_writes[TIER_DISK].inc()
            return
        # replicas() hands back k-1 picks: the fabric tier's k counts the
        # primary's own disk, but the writer's RAM dies with the writer,
        # so the memory tier asks for k FULL partner copies.
        copies = self.k + 1 if tier == TIER_MEMORY else self.k
        targets = self.policy.replicas(
            (record.app_id, record.rank, record.version),
            node.node_id, self.candidates(node.node_id), copies)
        yield from self._replicate(node, record, tier, targets)
        self._m_tier_writes[tier].inc()

    def _replicate(self, node, record: CheckpointRecord, tier: str,
                   targets: List[str]):
        """Stream copies of ``record`` into ``tier`` on ``targets``.

        The sender serializes each copy back to back on its NIC; wire
        latency and the holder-side write pipeline per target.  A holder
        lost mid-transfer is counted as a failed replica (repair closes
        the gap later).
        """
        if not targets:
            return
        engine = self.engine
        fabric = self.cluster.myrinet
        t0 = engine.now
        in_flight = []
        for target in targets:
            yield engine.timeout(record.nbytes / fabric.spec.bandwidth)
            tnode = self.cluster.nodes.get(target)
            if tnode is None or not tnode.is_up \
                    or not self.reachable(node.node_id, target):
                self._m_repl_failed.inc()
                continue
            proc = tnode.spawn(
                self._ingest(record, target, fabric, tier),
                name=f"replica:{record.app_id}:{record.rank}"
                     f":{record.version}:{target}"
                     if engine.tracer is not None else None)
            in_flight.append(proc)
        for proc in in_flight:
            yield proc
        self._h_fanout.observe(engine.now - t0)

    def _ingest(self, record: CheckpointRecord, target: str, fabric,
                tier: str):
        """Replica-holder side: wire latency, disk write (durable tiers
        only — a memory-tier copy lands in the holder's RAM), register."""
        try:
            yield self.engine.timeout(fabric.spec.layers.one_way_fixed)
            tnode = self.cluster.nodes.get(target)
            if tnode is None or not tnode.is_up:
                self._m_repl_failed.inc()
                return
            if tier != TIER_MEMORY:
                yield from tnode.disk.write(record.nbytes)
        except Interrupt:
            # The holder crashed mid-transfer: the copy is gone.
            self._m_repl_failed.inc()
            return
        key = (record.app_id, record.rank, record.version)
        if self._records.get(key) is not record or not self.node_up(target):
            self._m_repl_failed.inc()
            return
        record.add_holder(tier, target)
        self._m_repl_ok.inc()
        self._m_repl_bytes.inc(record.nbytes)

    def _flush_loop(self):
        """Write-back daemon: push deferred tiers in arrival order."""
        while True:
            yield self._flush_wake.get()
            while self._backlog:
                node_id, key, record, tiers = self._backlog.popleft()
                if self._records.get(key) is not record:
                    self._m_flush_dropped.inc()      # GCed before flush
                    continue
                node = self.cluster.nodes.get(node_id)
                ok = True
                for tier in tiers:
                    if node is None or not self.node_up(node_id):
                        ok = False                   # writer died first
                        break
                    yield from self._write_into(node, record, tier)
                if ok:
                    self._m_flushes.inc()
                else:
                    self._m_flush_dropped.inc()

    def write_tier(self, record: CheckpointRecord, tier: str,
                   node_id: str) -> None:
        """Register a copy of ``record`` in ``tier`` held on
        ``node_id``.

        A second copy of the same snapshot (same key and ``taken_at``)
        adds a holder — redundancy by mirroring.  No IO is charged here:
        the caller pays the transfer/disk costs appropriate to the tier;
        registration itself is free at this granularity.
        """
        key = (record.app_id, record.rank, record.version)
        existing = self._records.get(key)
        if existing is not None and existing.taken_at == record.taken_at:
            # A mirror copy of the same snapshot: one more holder.
            existing.add_holder(tier, node_id)
            return
        if tier == TIER_MEMORY:
            record.tier = TIER_MEMORY
        record.holders[tier] = [node_id]
        self._store(record)

    def commit(self, app_id: str, version: int) -> None:
        """Mark a coordinated version as a recovery line."""
        self._committed.setdefault(app_id, []).append(version)

    # ------------------------------------------------------------------
    # delta capture
    # ------------------------------------------------------------------

    def _deltify(self, record: CheckpointRecord) -> None:
        """Turn ``record`` into an incremental image when it can be one.

        Only ``bytes`` images (the VM checkpointers) are delta-able;
        native live-object dumps always go full.  The diff base is the
        rank's previous full content, cached writer-side — rebuilding it
        from the store would charge a read we never perform.
        """
        if self.delta_depth <= 0 \
                or not isinstance(record.image, (bytes, bytearray)):
            return
        from repro.store.delta import delta_encode
        rkey = (record.app_id, record.rank)
        full = bytes(record.image)
        prev = self._base_cache.get(rkey)
        chain = self._chain_len.get(rkey, 0)
        self._base_cache[rkey] = (record.version, full)
        if prev is None or not self.has(record.app_id, record.rank, prev[0]):
            self._chain_len[rkey] = 0
            return
        if chain >= self.delta_depth:
            # Chain squash: cut a fresh full base.
            self._chain_len[rkey] = 0
            self._m_squashes.inc()
            return
        prev_version, prev_full = prev
        delta = delta_encode(prev_full, full)
        record.delta_of = prev_version
        record.full_nbytes = record.nbytes
        record.image = delta
        record.nbytes = max(delta.nbytes, MIN_DELTA_NBYTES)
        self._chain_len[rkey] = chain + 1
        self._m_deltas.inc()
        self._m_delta_saved.inc(max(0, record.full_nbytes - record.nbytes))

    def _chain(self, app_id: str, rank: int, version: int):
        """The record chain newest-first down to its full base.

        Raises :class:`NoCheckpoint` when a link is gone entirely.
        """
        out = []
        v = version
        while True:
            rec = self.peek(app_id, rank, v)
            out.append(((app_id, rank, v), rec))
            if rec.delta_of is None:
                return out
            v = rec.delta_of

    def _chain_needed(self, app_id: str, floor: int) -> set:
        """Keys below ``floor`` still needed as delta bases by records at
        or above it (or read-pinned).  Empty without delta capture."""
        needed: set = set()
        if not self.delta_depth:
            return needed
        for key, rec in self._records.items():
            if key[0] != app_id:
                continue
            if key[2] < floor and not self._pins.get(key):
                continue
            base = rec.delta_of
            while base is not None:
                bkey = (app_id, key[1], base)
                if bkey in needed:
                    break
                needed.add(bkey)
                r = self._records.get(bkey)
                base = r.delta_of if r is not None else None
        return needed

    # ------------------------------------------------------------------
    # membership reactions (wired as a cluster watcher)
    # ------------------------------------------------------------------

    def drop_volatile(self, node_id: str) -> int:
        """A node crashed: the in-memory copies it held are gone.

        Strips the node from every record's memory-tier holder list and
        drops memory-home records whose LAST copy (across all tiers) it
        was.  Returns the number of records lost outright.
        """
        lost = 0
        for key, rec in list(self._records.items()):
            held = rec.holders.get(TIER_MEMORY)
            if held and node_id in held:
                held.remove(node_id)
                if rec.tier == TIER_MEMORY and not rec.all_holders():
                    del self._records[key]
                    self._m_volatile_lost.inc()
                    lost += 1
        return lost

    def drop_disk_holders(self, node_id: str) -> int:
        """A node (and its disk) left the cluster for good.

        Strips the node from every record's durable (disk/fabric) holder
        lists; a record with no copy left in ANY tier is gone.  Returns
        the number of records lost outright."""
        lost = 0
        for key, rec in list(self._records.items()):
            hit = False
            for tier in DURABLE_TIERS:
                held = rec.holders.get(tier)
                if held and node_id in held:
                    held.remove(node_id)
                    hit = True
            if hit and not rec.all_holders():
                del self._records[key]
                self._m_repl_lost.inc()
                lost += 1
        return lost

    def on_membership(self, node_id: str, event: str) -> None:
        """Cluster watcher: keep availability honest, wake the repairer.

        Runs synchronously inside the crash/recover call — in the same
        sim instant the node goes down, its in-memory copies are gone
        and its disk copies stop counting (via :meth:`node_up`)."""
        if event in ("crash", "remove"):
            self.drop_volatile(node_id)
        if event == "remove":
            self.drop_disk_holders(node_id)
        if event in ("crash", "remove"):
            self._record_breaches()
        if self.repair is not None and event in ("crash", "remove",
                                                 "recover", "add"):
            self.repair.kick(reason=f"{event}:{node_id}")

    def _record_breaches(self) -> None:
        """Log every committed line that just became non-restorable.

        Invariant checkers can only observe the store after the cluster
        re-settles — by which point a restarted app has recommitted a
        fresh, fully-replicated line and the loss is invisible.  The
        breach log captures it at the instant of the membership change;
        each entry carries the down-set so a checker can apply its own
        ``k-1`` contract window."""
        from repro.cluster.node import NodeState
        down = tuple(nid for nid, node in sorted(self.cluster.nodes.items())
                     if node.state is not NodeState.UP) \
            if self.cluster is not None else ()
        for app_id in sorted(self._committed):
            committed = self.latest_committed(app_id)
            if committed is None:
                continue
            ranks = sorted({key[1] for key in self._records
                            if key[0] == app_id and key[2] == committed})
            restorable = self.latest_restorable(app_id, ranks)
            if restorable != committed:
                self.breaches.append({
                    "time": self.engine.now, "app_id": app_id,
                    "committed": committed, "restorable": restorable,
                    "down": down})

    # ------------------------------------------------------------------
    # sender-based message logs (logging protocols)
    # ------------------------------------------------------------------

    def log_append(self, app_id: str, sender: int, dest: int, ssn: int,
                   entry: Tuple, nbytes: int = 0) -> bool:
        """Append one sent message to the (sender → dest) channel log.

        ``ssn`` is the sender's per-channel sequence number; the log is
        append-only and strictly ascending.  Re-appending an ssn the log
        already covers is a no-op returning ``False`` — a restarted
        sender re-executing from its checkpoint re-sends with identical
        ssns, and those duplicates must cost neither log space nor IO.
        """
        log = self._msg_logs.setdefault((app_id, sender, dest), [])
        if log and log[-1][0] >= ssn:
            return False
        log.append((ssn, entry))
        self._m_log_appends.inc()
        self._m_log_bytes.inc(nbytes)
        return True

    def log_end(self, app_id: str, sender: int, dest: int) -> int:
        """Highest logged ssn on the (sender → dest) channel (0 = none)."""
        log = self._msg_logs.get((app_id, sender, dest))
        return log[-1][0] if log else 0

    def log_tail(self, app_id: str, sender: int, dest: int,
                 after_ssn: int = 0) -> List[Tuple[int, Tuple]]:
        """Logged ``(ssn, entry)`` pairs with ``ssn > after_ssn``."""
        log = self._msg_logs.get((app_id, sender, dest), [])
        return [(ssn, entry) for ssn, entry in log if ssn > after_ssn]

    def log_senders(self, app_id: str, dest: int) -> List[int]:
        """All ranks with a non-empty log toward ``dest``, ascending."""
        return sorted(s for (a, s, d) in self._msg_logs
                      if a == app_id and d == dest)

    # ------------------------------------------------------------------
    # GC: read-pinned, never collects a base a retained delta needs
    # ------------------------------------------------------------------

    def gc_committed(self, app_id: str, keep: int = 1) -> int:
        """Garbage-collect checkpoints superseded by committed lines.

        Keeps the last ``keep`` committed versions (and anything newer,
        e.g. in-flight uncommitted records); drops everything older.
        Returns the number of records removed.  Only meaningful for
        coordinated protocols — uncoordinated recovery lines may reach
        arbitrarily far back, so their stores are never GCed here.
        """
        committed = self._committed.get(app_id)
        if not committed or keep < 1 or len(committed) <= keep:
            return 0
        floor = sorted(committed)[-keep]
        self._gc_floor[app_id] = max(floor, self._gc_floor.get(app_id, 0))
        # Read-pinned records are skipped: a concurrent restart may be
        # mid-read on an old version — collecting it would hand the
        # reader a NoCheckpoint for a record it already located.  The
        # pin's release sweeps them (same floor).
        needed = self._chain_needed(app_id, floor)
        victims = [k for k in self._records
                   if k[0] == app_id and k[2] < floor
                   and not self._pins.get(k) and k not in needed]
        for key in victims:
            del self._records[key]
        self._committed[app_id] = [v for v in committed if v >= floor]
        return len(victims)

    def _pin(self, key: Tuple[str, int, int]) -> None:
        self._pins[key] = self._pins.get(key, 0) + 1

    def _unpin(self, key: Tuple[str, int, int]) -> None:
        count = self._pins.get(key, 0) - 1
        if count > 0:
            self._pins[key] = count
            return
        self._pins.pop(key, None)
        # Finish any GC this pin deferred.
        floor = self._gc_floor.get(key[0])
        if floor is not None and key[2] < floor \
                and key not in self._chain_needed(key[0], floor):
            self._records.pop(key, None)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def read(self, node, app_id: str, rank: int, version: int,
             bandwidth: Optional[float] = None):
        """Process generator: load a record at ``node``.

        Every chain link is read-pinned and fetched by the read rule
        (:meth:`_fetch`).  A delta chain replays onto its base; the
        returned record is then a full-image VIEW of the stored head
        (callers see ``image``/``nbytes`` as if the dump had been full).
        """
        chain = self._chain(app_id, rank, version)
        for key, _rec in chain:
            self._pin(key)
        try:
            for _key, rec in reversed(chain):
                yield from self._fetch(node, rec, bandwidth)
            self._m_reads.inc()
            head = chain[0][1]
            if head.delta_of is None:
                return head
            from repro.store.delta import squash
            base = chain[-1][1].image
            deltas = [rec.image for _k, rec in reversed(chain[:-1])]
            return replace(
                head, image=squash(base, deltas),
                nbytes=head.full_nbytes or head.nbytes,
                delta_of=None, full_nbytes=None,
                holders={t: list(h) for t, h in head.holders.items()})
        finally:
            for key, _rec in chain:
                self._unpin(key)

    def _fetch(self, node, rec: CheckpointRecord,
               bandwidth: Optional[float] = None):
        """Process generator: pull ONE chain link.

        A memory copy first (latency + image at BIP bandwidth); a global
        record through the reader's own disk; else a durable copy on the
        reader's node; else the first reachable durable holder's disk
        plus the wire.
        """
        by_tier = self.available_by_tier(rec, from_node=node.node_id)
        if TIER_MEMORY in by_tier:
            from repro.calibration import BIP_BANDWIDTH, US
            yield self.engine.timeout(200 * US
                                      + rec.nbytes / BIP_BANDWIDTH)
            self._m_tier_reads[TIER_MEMORY].inc()
            return
        if rec.tier == TIER_GLOBAL:
            yield from node.disk.read(rec.nbytes, bandwidth=bandwidth)
            self._m_tier_reads[TIER_GLOBAL].inc()
            return
        durable = [(t, h) for t in DURABLE_TIERS for h in by_tier.get(t, ())]
        local = [t for t, h in durable if h == node.node_id]
        if local:
            yield from node.disk.read(rec.nbytes, bandwidth=bandwidth)
            self._m_tier_reads[local[0]].inc()
            return
        if durable:
            tier, source = durable[0]
            yield from self.cluster.nodes[source].disk.read(rec.nbytes)
            yield self.engine.timeout(
                self.cluster.myrinet.spec.one_way(rec.nbytes))
            self._m_remote_reads.inc()
            self._m_tier_reads[tier].inc()
            return
        raise NoCheckpoint(
            f"no reachable replica of (app={rec.app_id}, rank={rec.rank}, "
            f"version={rec.version}); holders={rec.holders}")

    def peek(self, app_id: str, rank: int, version: int) -> CheckpointRecord:
        """Metadata access without IO cost (no image restore)."""
        record = self._records.get((app_id, rank, version))
        if record is None:
            raise NoCheckpoint(f"no checkpoint (app={app_id}, rank={rank}, "
                               f"version={version})")
        return record

    def has(self, app_id: str, rank: int, version: int) -> bool:
        return (app_id, rank, version) in self._records

    # ------------------------------------------------------------------
    # availability
    # ------------------------------------------------------------------

    def _holder_ok(self, node_id: str,
                   from_node: Optional[str] = None) -> bool:
        """Can ``from_node`` read a copy held on ``node_id``?"""
        return self.node_up(node_id) and (
            from_node is None or self.reachable(from_node, node_id))

    def available_holders(self, record: CheckpointRecord,
                          from_node: Optional[str] = None) -> List[str]:
        """Usable holders of ``record``, fastest tier first, deduped."""
        return [h for h in record.all_holders()
                if self._holder_ok(h, from_node)]

    def available_by_tier(self, record: CheckpointRecord,
                          from_node: Optional[str] = None
                          ) -> Dict[str, List[str]]:
        """Per-tier usable holders — the tier-by-tier fallback order a
        restore walks (and the CLI dumps)."""
        out: Dict[str, List[str]] = {}
        for tier in TIER_ORDER:
            held = [h for h in record.holders.get(tier, ())
                    if self._holder_ok(h, from_node)]
            if held:
                out[tier] = held
        return out

    def record_available(self, app_id: str, rank: int, version: int,
                         from_node: Optional[str] = None) -> bool:
        """Is this record actually usable for a restore *right now*?

        Every chain link down to its full base must be global or keep a
        live copy reachable from ``from_node`` (the prospective reader).
        """
        rec = self._records.get((app_id, rank, version))
        while rec is not None:
            if rec.tier != TIER_GLOBAL \
                    and not self.available_holders(rec, from_node=from_node):
                return False
            if rec.delta_of is None:
                return True
            rec = self._records.get((app_id, rank, rec.delta_of))
        return False

    # ------------------------------------------------------------------
    # repair bookkeeping
    # ------------------------------------------------------------------

    def repair_tier(self, record: CheckpointRecord) -> str:
        """Which tier re-replication tops up for this record: the most
        durable configured tier, or memory for a memory-home record."""
        return TIER_MEMORY if record.tier == TIER_MEMORY else self.tiers[-1]

    def repair_sources(self, record: CheckpointRecord,
                       tier: str) -> List[str]:
        """Live holders credited against the replication target for
        ``tier`` — and usable as copy sources.  Every durable copy
        counts toward a durable target."""
        tiers = (TIER_MEMORY,) if tier == TIER_MEMORY else DURABLE_TIERS
        return [h for h in record.all_holders(tiers) if self.node_up(h)]

    def replica_deficit(self) -> int:
        """Total missing copies across all records (the repair backlog).

        The target per record is ``min(k, up nodes)`` — a 2-node cluster
        with k=3 is honestly under-provisioned, not infinitely broken.
        Global storage misses nothing."""
        if self.tiers == (TIER_GLOBAL,):
            return 0
        target = min(self.k, max(1, self._up_count()))
        deficit = 0
        for rec in self._records.values():
            live = self.repair_sources(rec, self.repair_tier(rec))
            deficit += max(0, target - len(live))
        return deficit

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def iter_records(self, app_id: Optional[str] = None):
        """Iterate ``(key, record)`` pairs in key order — the public
        repository walk (repair, CLI dumps, invariant checkers)."""
        for key in sorted(self._records):
            if app_id is None or key[0] == app_id:
                yield key, self._records[key]

    def committed_versions(self, app_id: str) -> List[int]:
        return list(self._committed.get(app_id, []))

    def latest_restorable(self, app_id: str, ranks,
                          from_node: Optional[str] = None) -> Optional[int]:
        """Most recent committed version with every rank's record usable.

        For global records this equals :meth:`latest_committed`; other
        copies can have been wiped by the crash itself (their holders'
        memory or disks), so recovery must fall back to an older intact
        line.  ``from_node`` names the prospective reader — only copies
        reachable from its partition count.
        """
        ranks = list(ranks)
        for version in sorted(self._committed.get(app_id, []),
                              reverse=True):
            if all(self.record_available(app_id, r, version,
                                         from_node=from_node)
                   for r in ranks):
                return version
        return None

    def latest_committed(self, app_id: str) -> Optional[int]:
        versions = self._committed.get(app_id)
        return versions[-1] if versions else None

    def versions_of(self, app_id: str, rank: int) -> List[int]:
        """All stored versions for one rank, ascending."""
        return sorted(v for (a, r, v) in self._records
                      if a == app_id and r == rank)

    def max_version(self, app_id: str) -> int:
        """Highest version stored by ANY rank (0 if none) — restarted
        coordinated protocols resume numbering above this."""
        versions = [v for (a, _r, v) in self._records if a == app_id]
        versions += self._committed.get(app_id, [])
        return max(versions, default=0)

    def drop_app(self, app_id: str) -> None:
        """Garbage-collect all of an application's checkpoints."""
        for key in [k for k in self._records if k[0] == app_id]:
            del self._records[key]
        for key in [k for k in self._msg_logs if k[0] == app_id]:
            del self._msg_logs[key]
        self._committed.pop(app_id, None)

    def __repr__(self) -> str:
        return (f"<CheckpointStore tiers={'+'.join(self.tiers)} k={self.k} "
                f"{len(self._records)} records "
                f"writes={self._m_writes.value} reads={self._m_reads.value}>")
