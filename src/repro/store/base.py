"""The public checkpoint-store contract.

:class:`StoreBackend` is the ``typing.Protocol`` the
:class:`~repro.ckpt.storage.CheckpointStore` implements in every tier
configuration.  Protocol code (the C/R roles in
``repro.ckpt.protocols``, the restart planners, the check harness, the
CLI) programs against THIS surface only; reaching into ``_records`` /
``_committed`` privates is a bug, and ``tests/test_store_tiers.py``
asserts conformance for the global, replicated and tiered configs.

Tier names (:data:`TIER_MEMORY` / :data:`TIER_DISK` / :data:`TIER_FABRIC`
/ :data:`TIER_GLOBAL`) are defined next to
:class:`~repro.ckpt.storage.CheckpointRecord` and re-exported here so
store users need only this package.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Protocol,
                    Tuple, runtime_checkable)

from repro.ckpt.storage import (CheckpointRecord, TIER_DISK, TIER_FABRIC,
                                TIER_GLOBAL, TIER_MEMORY, TIER_ORDER)

__all__ = [
    "CheckpointRecord",
    "StoreBackend",
    "TIER_DISK",
    "TIER_FABRIC",
    "TIER_GLOBAL",
    "TIER_MEMORY",
    "TIER_ORDER",
]


@runtime_checkable
class StoreBackend(Protocol):
    """What a checkpoint store owes the rest of the system.

    Writes and reads are *process generators* (they yield sim events and
    charge disk/network time); everything else is synchronous metadata.
    ``isinstance(store, StoreBackend)`` checks the surface structurally —
    the conformance test checks every tier configuration against it.
    """

    #: The configured tiers, fastest first (``("global",)`` = idealized
    #: stable storage).
    tiers: Tuple[str, ...]
    #: Copies per record: the memory tier's fan-out (and the diskless
    #: protocol's mirror count) and the fabric tier's total copies.
    k: int
    #: Committed lines that became non-restorable at a membership change.
    breaches: list

    # -- writing -------------------------------------------------------

    def write(self, node, record: CheckpointRecord,
              bandwidth: Optional[float] = None):
        """Process generator: make ``record`` durable via ``node``."""
        ...

    def write_tier(self, record: CheckpointRecord, tier: str,
                   node_id: str) -> None:
        """Register a copy of ``record`` in ``tier`` on ``node_id``
        (no IO charged; mirrors of the same snapshot add holders)."""
        ...

    def commit(self, app_id: str, version: int) -> None:
        """Mark a coordinated version as a recovery line."""
        ...

    # -- reading -------------------------------------------------------

    def read(self, node, app_id: str, rank: int, version: int,
             bandwidth: Optional[float] = None):
        """Process generator: load a record at ``node``, preferring the
        fastest tier holding a usable copy."""
        ...

    def peek(self, app_id: str, rank: int,
             version: int) -> CheckpointRecord:
        """Metadata access without IO cost (raises ``NoCheckpoint``)."""
        ...

    def has(self, app_id: str, rank: int, version: int) -> bool:
        ...

    # -- availability --------------------------------------------------

    def available_holders(self, record: CheckpointRecord,
                          from_node: Optional[str] = None) -> List[str]:
        """Usable holders, fastest tier first."""
        ...

    def available_by_tier(self, record: CheckpointRecord,
                          from_node: Optional[str] = None
                          ) -> Dict[str, List[str]]:
        """Per-tier usable holders (the shrink-to-fit fallback order)."""
        ...

    def record_available(self, app_id: str, rank: int, version: int,
                         from_node: Optional[str] = None) -> bool:
        ...

    def latest_restorable(self, app_id: str, ranks: Iterable[int],
                          from_node: Optional[str] = None
                          ) -> Optional[int]:
        ...

    def latest_committed(self, app_id: str) -> Optional[int]:
        ...

    def committed_versions(self, app_id: str) -> List[int]:
        ...

    def versions_of(self, app_id: str, rank: int) -> List[int]:
        ...

    def max_version(self, app_id: str) -> int:
        ...

    # -- membership & GC -----------------------------------------------

    def on_membership(self, node_id: str, event: str) -> None:
        """Cluster watcher upcall (``crash``/``recover``/``add``/
        ``remove``), synchronous with the membership change."""
        ...

    def drop_volatile(self, node_id: str) -> int:
        ...

    def gc_committed(self, app_id: str, keep: int = 1) -> int:
        ...

    def drop_app(self, app_id: str) -> None:
        ...

    def iter_records(self, app_id: Optional[str] = None
                     ) -> Iterator[Tuple[Tuple[str, int, int],
                                         CheckpointRecord]]:
        """Public repository walk in deterministic key order."""
        ...

    def repair_tier(self, record: CheckpointRecord) -> str:
        """Which tier re-replication tops up for this record."""
        ...
