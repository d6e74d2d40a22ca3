"""Checkpoint stable storage.

Each application process dumps through *its own node's* disk (the paper's
measurements are of local IDE disks), and records are registered in a
cluster-wide repository reachable after the writer's node dies — the
standard stable-storage assumption of rollback-recovery (a restarting
process reads the image back at the reader's disk speed).

Versioning:

* coordinated protocols store one record per (rank, version) and *commit*
  a version once every rank's record is stored — the committed version is
  the recovery line;
* the uncoordinated protocol stores per-rank indices plus each record's
  dependency vector; recovery lines are computed on demand
  (:mod:`repro.ckpt.recovery_line`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, NoCheckpoint
from repro.obs.registry import get_registry

#: Checkpoint storage tiers, fastest first.  L1 lives in partner nodes'
#: RAM (ReStore-style: written at memory/network speed, lost with its
#: holders), L2 is the writer's local disk (the paper's measured IDE
#: path), L3 is the replicated fabric (k-way remote disk copies).
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_FABRIC = "fabric"
TIER_ORDER: Tuple[str, ...] = (TIER_MEMORY, TIER_DISK, TIER_FABRIC)


@dataclass
class CheckpointRecord:
    """One stored local checkpoint.

    Where the copies live is first-class: ``tier`` names the record's
    *home* tier (what kind of storage the writer targeted) and
    ``holders`` maps each tier to the node ids holding a copy there.  A
    record written through a :class:`~repro.store.tiers.TieredStore` can
    have copies in several tiers at once; the legacy stores populate a
    single tier.  ``in_memory`` / ``holder_nodes`` remain as read/write
    views of the home tier for older call sites.
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
    #: and read, but a copy dies with its holder), ``disk`` otherwise.
    tier: str = TIER_DISK
    #: Per-tier holder map: tier name -> node ids holding a copy there.
    #: Empty for the idealized legacy disk store (global stable storage).
    holders: Dict[str, List[str]] = field(default_factory=dict)
    #: Delta checkpointing: the version this incremental image applies on
    #: top of (``None`` = a full image).  The chain ends at a full base;
    #: restores replay base + deltas (:mod:`repro.store.delta`).
    delta_of: Optional[int] = None
    #: Logical full-image size for delta records (``nbytes`` is then the
    #: delta payload actually written).
    full_nbytes: Optional[int] = None

    #: Node-liveness probe bound by the registering store (see
    #: :meth:`CheckpointStore._register`); ``None`` = assume up.
    _live = None

    # -- per-tier holder accessors -------------------------------------

    def tier_holders(self, tier: str) -> List[str]:
        """The (mutable) holder list for one tier."""
        return self.holders.setdefault(tier, [])

    def add_holder(self, tier: str, node_id: str) -> None:
        held = self.tier_holders(tier)
        if node_id not in held:
            held.append(node_id)

    def all_holders(self) -> List[str]:
        """Every holder across all tiers, fastest tier first, deduped."""
        out: List[str] = []
        for tier in TIER_ORDER:
            for h in self.holders.get(tier, ()):
                if h not in out:
                    out.append(h)
        return out

    @property
    def is_delta(self) -> bool:
        return self.delta_of is not None

    # -- legacy views (home tier) --------------------------------------

    @property
    def in_memory(self) -> bool:
        """Legacy flag view: is the home tier volatile (diskless)?"""
        return self.tier == TIER_MEMORY

    @in_memory.setter
    def in_memory(self, value: bool) -> None:
        self.tier = TIER_MEMORY if value else TIER_DISK

    @property
    def holder_nodes(self) -> List[str]:
        """Legacy view: the (mutable) home-tier holder list."""
        return self.tier_holders(self.tier)

    @holder_nodes.setter
    def holder_nodes(self, nodes) -> None:
        self.holders[self.tier] = list(nodes)

    @property
    def holder_node(self) -> Optional[str]:
        """First *live* home-tier holder (None for idealized disk records
        or when every holder is DOWN).

        Routed through the registering store's liveness probe, exactly
        like ``record_available`` — a holder whose node has crashed never
        names itself as the place to read from.
        """
        for h in self.holders.get(self.tier, ()):
            if self._live is None or self._live(h):
                return h
        return None


class CheckpointStore:
    """Cluster-wide stable storage for checkpoint records."""

    def __init__(self, engine):
        self.engine = engine
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
        #: Optional node-liveness probe ``(node_id) -> bool``.  When set
        #: (the Starfish layer wires it to the cluster's node table),
        #: in-memory copies on a DOWN node stop counting as restorable in
        #: the same sim instant as the crash — there is no window where
        #: a volatile-only copy on a dead node looks usable just because
        #: the drop_volatile watcher has not run yet.
        self.node_liveness = None
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
        #: Sender-based message logs: (app_id, sender, dest) -> ascending
        #: [(ssn, entry)] — the logging protocols' replay source.  Like
        #: the checkpoint records, the log is part of idealized stable
        #: storage: it survives the sender's crash.
        self._msg_logs: Dict[Tuple[str, int, int],
                             List[Tuple[int, Tuple]]] = {}
        self._m_log_appends = reg.counter(
            "ckpt.store.log_appends", help="message-log entries appended")
        self._m_log_bytes = reg.counter(
            "ckpt.store.log_bytes", help="message-log payload bytes logged")

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _holder_live(self, node_id: str) -> bool:
        """Liveness of one holder under this store's probe (no probe =
        assume up, the idealized stable-storage default)."""
        return self.node_liveness is None or bool(self.node_liveness(node_id))

    def _register(self, key: Tuple[str, int, int],
                  record: CheckpointRecord) -> None:
        """Enter ``record`` in the repository and bind the liveness probe
        so ``record.holder_node`` never names a DOWN holder."""
        record._live = self._holder_live
        self._records[key] = record

    def write(self, node, record: CheckpointRecord,
              bandwidth: Optional[float] = None):
        """Process generator: dump ``record`` through ``node``'s disk."""
        yield from node.disk.write(record.nbytes, bandwidth=bandwidth)
        self._register((record.app_id, record.rank, record.version), record)
        self._m_writes.inc()
        self._m_bytes.inc(record.nbytes)

    def write_tier(self, record: CheckpointRecord, tier: str,
                   holder_node: str) -> None:
        """Register a copy of ``record`` in ``tier`` held on
        ``holder_node``.

        A second copy of the same snapshot (same key and ``taken_at``)
        adds a holder — redundancy by mirroring.  No IO is charged here:
        the caller pays the transfer/disk costs appropriate to the tier;
        registration itself is free at this granularity.
        """
        key = (record.app_id, record.rank, record.version)
        existing = self._records.get(key)
        if existing is not None and existing.taken_at == record.taken_at:
            # A mirror copy of the same snapshot: one more holder.
            existing.add_holder(tier, holder_node)
            return
        if tier == TIER_MEMORY:
            record.tier = TIER_MEMORY
        record.holders[tier] = [holder_node]
        self._register(key, record)
        self._m_writes.inc()
        self._m_bytes.inc(record.nbytes)

    def write_memory(self, record: CheckpointRecord,
                     holder_node: str) -> None:
        """Register a diskless (in-memory) copy held on ``holder_node``."""
        self.write_tier(record, TIER_MEMORY, holder_node)

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
                if rec.tier == TIER_MEMORY and not any(
                        rec.holders.get(t) for t in TIER_ORDER):
                    del self._records[key]
                    self._m_volatile_lost.inc()
                    lost += 1
        return lost

    def on_membership(self, node_id: str, event: str) -> None:
        """Membership upcall (``crash`` / ``recover`` / ``remove``).

        The base store only cares that a crashed node's RAM is gone;
        subclasses add repair and breach accounting.
        """
        if event == "crash":
            self.drop_volatile(node_id)

    def commit(self, app_id: str, version: int) -> None:
        """Mark a coordinated version as a recovery line."""
        self._committed.setdefault(app_id, []).append(version)

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

    def gc_committed(self, app_id: str, keep: int = 1) -> int:
        """Garbage-collect checkpoints superseded by committed lines.

        Keeps the last ``keep`` committed versions (and anything newer,
        e.g. in-flight uncommitted records); drops everything older.
        Returns the number of records removed.  Only meaningful for
        coordinated protocols — uncoordinated recovery lines may reach
        arbitrarily far back, so their stores are never GCed here.
        """
        committed = self._committed.get(app_id)
        if not committed or keep < 1:
            return 0
        if len(committed) <= keep:
            return 0
        floor = sorted(committed)[-keep]
        self._gc_floor[app_id] = max(floor, self._gc_floor.get(app_id, 0))
        # Read-pinned records are skipped: a concurrent restart may be
        # mid-read on an old version — collecting it would hand the
        # reader a NoCheckpoint for a record it already located.  The
        # pin's release sweeps them (same floor).
        victims = [k for k in self._records
                   if k[0] == app_id and k[2] < floor
                   and not self._pins.get(k)]
        for key in victims:
            del self._records[key]
        self._committed[app_id] = [v for v in committed if v >= floor]
        return len(victims)

    # ------------------------------------------------------------------
    # read pins (GC vs concurrent restart)
    # ------------------------------------------------------------------

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
        if floor is not None and key[2] < floor:
            self._records.pop(key, None)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def read(self, node, app_id: str, rank: int, version: int,
             bandwidth: Optional[float] = None):
        """Process generator: load a record at ``node``.

        Disk records charge the reader's disk; in-memory (diskless)
        records charge a fast-network fetch from the holder instead.
        """
        record = self.peek(app_id, rank, version)
        key = (app_id, rank, version)
        self._pin(key)
        try:
            if record.in_memory:
                from repro.calibration import BIP_BANDWIDTH, US
                yield self.engine.timeout(200 * US
                                          + record.nbytes / BIP_BANDWIDTH)
            else:
                yield from node.disk.read(record.nbytes,
                                          bandwidth=bandwidth)
            self._m_reads.inc()
            return record
        finally:
            self._unpin(key)

    def peek(self, app_id: str, rank: int, version: int) -> CheckpointRecord:
        """Metadata access without IO cost (no image restore)."""
        record = self._records.get((app_id, rank, version))
        if record is None:
            raise NoCheckpoint(f"no checkpoint (app={app_id}, rank={rank}, "
                               f"version={version})")
        return record

    def has(self, app_id: str, rank: int, version: int) -> bool:
        return (app_id, rank, version) in self._records

    def record_available(self, app_id: str, rank: int, version: int,
                         from_node: Optional[str] = None) -> bool:
        """Is this record actually usable for a restore *right now*?

        Disk records are (idealized global stable storage — the
        replicated store overrides this with real holder/partition
        checks).  In-memory records need a live holder: with the
        liveness probe wired, a copy whose holder is DOWN stops counting
        in the same instant the node does, independent of when the
        drop_volatile watcher fires.
        """
        record = self._records.get((app_id, rank, version))
        if record is None:
            return False
        if not record.in_memory:
            return True
        if self.node_liveness is None:
            return bool(record.holder_nodes)
        return any(self.node_liveness(h) for h in record.holder_nodes)

    def _holder_ok(self, node_id: str,
                   from_node: Optional[str] = None) -> bool:
        """Can ``from_node`` read a copy held on ``node_id``?  The base
        store has no partition model so this is pure liveness; the
        replicated store additionally requires fabric reachability."""
        return self._holder_live(node_id)

    def available_holders(self, record: CheckpointRecord,
                          from_node: Optional[str] = None) -> List[str]:
        """Usable holders of ``record``, fastest tier first, deduped."""
        out: List[str] = []
        for tier in TIER_ORDER:
            for h in record.holders.get(tier, ()):
                if h not in out and self._holder_ok(h, from_node):
                    out.append(h)
        return out

    def available_by_tier(self, record: CheckpointRecord,
                          from_node: Optional[str] = None
                          ) -> Dict[str, List[str]]:
        """Per-tier usable holders — the tier-by-tier fallback order a
        shrink-to-fit restore walks (and the CLI dumps)."""
        out: Dict[str, List[str]] = {}
        for tier in TIER_ORDER:
            held = [h for h in record.holders.get(tier, ())
                    if self._holder_ok(h, from_node)]
            if held:
                out[tier] = held
        return out

    def repair_tier(self, record: CheckpointRecord) -> str:
        """Which tier re-replication should top up for this record."""
        return record.tier

    def mirror_fanout(self) -> int:
        """Diskless in-memory copies per record.

        The idealized store double-mirrors (Plank-style diskless
        checkpointing's simple variant); the replicated store returns
        its configured ``k``.
        """
        return 2

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

        For disk records this equals :meth:`latest_committed`; diskless
        records can have been wiped by the crash itself (their holders'
        memory), so recovery must fall back to an older intact line.
        ``from_node`` names the prospective reader — the replicated
        store only counts replicas reachable from its partition.
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
        return (f"<CheckpointStore {len(self._records)} records "
                f"writes={self._m_writes.value} reads={self._m_reads.value}>")
