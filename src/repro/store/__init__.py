"""Checkpoint storage: the tier-configured store and its services.

The public store surface:

* :class:`~repro.store.base.StoreBackend` — the ``typing.Protocol``
  the store implements; protocol code programs against it only;
* :class:`~repro.ckpt.storage.CheckpointStore` — the one store.  Its
  ``tiers`` and ``k`` decide what it models: ``("global",)`` is the
  paper's idealized stable storage (the default), ``("disk", "fabric")``
  keeps k copies on real disks, and any selection of ``memory`` /
  ``disk`` / ``fabric`` builds the L1/L2/L3 hierarchy with
  write-through/write-back promotion and delta checkpoints
  (:mod:`~repro.store.delta`);
* :class:`~repro.store.repair.RepairService` — failure-driven, budgeted
  re-replication, run by every replicating store (``k > 1``);
* :mod:`~repro.store.placement` — placement policies (ring successor,
  seeded-random, partition-aware) and the diskless protocol's
  :func:`rotating_mirrors` rule.

A cluster derives its store from ``ClusterSpec``: ``store_tiers`` picks
the tiers, otherwise ``replication_factor`` means ``("disk",
"fabric")``, otherwise the store is global — byte-identical to previous
releases.
"""


from repro.ckpt.storage import (CheckpointRecord, CheckpointStore,
                                DEFAULT_REPAIR_BANDWIDTH, MIN_DELTA_NBYTES,
                                PROMOTIONS, TIER_DISK, TIER_FABRIC,
                                TIER_GLOBAL, TIER_MEMORY, TIER_ORDER,
                                WRITE_BACK, WRITE_THROUGH, normalize_tiers)
from repro.store.base import StoreBackend
from repro.store.delta import (BLOCK, Delta, delta_apply, delta_encode,
                               squash)
from repro.store.placement import (PartitionAwarePlacement, PlacementPolicy,
                                   POLICIES, RandomPlacement, RingPlacement,
                                   make_placement, rotating_mirrors)
from repro.store.repair import RepairService

__all__ = [
    "BLOCK",
    "CheckpointRecord",
    "CheckpointStore",
    "DEFAULT_REPAIR_BANDWIDTH",
    "Delta",
    "MIN_DELTA_NBYTES",
    "PartitionAwarePlacement",
    "PlacementPolicy",
    "POLICIES",
    "PROMOTIONS",
    "RandomPlacement",
    "RepairService",
    "RingPlacement",
    "StoreBackend",
    "TIER_DISK",
    "TIER_FABRIC",
    "TIER_GLOBAL",
    "TIER_MEMORY",
    "TIER_ORDER",
    "WRITE_BACK",
    "WRITE_THROUGH",
    "delta_apply",
    "delta_encode",
    "make_placement",
    "normalize_tiers",
    "rotating_mirrors",
    "squash",
]
