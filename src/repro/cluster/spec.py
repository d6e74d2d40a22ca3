"""The one cluster-construction surface: :class:`ClusterSpec`.

Historically the three builders — ``Engine(...)``, ``Cluster.build(...)``
and ``StarfishCluster.build(...)`` — each grew their own positional/kwarg
signature, and they drifted.  A :class:`ClusterSpec` is the single
keyword-only description of a simulated cluster that all three consume:

    spec = ClusterSpec(nodes=8, seed=42)
    sf = StarfishCluster.build(spec=spec)          # system
    cluster = Cluster.build(spec=spec)             # bare hardware
    engine = Engine.from_spec(spec)                # just the kernel

The legacy kwarg forms keep working but funnel through a spec internally,
so there is exactly one place where defaults and validation live.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # avoid a cluster -> gcs import at runtime (layering)
    from repro.cluster.arch import Architecture


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """Everything needed to build a simulated cluster, in one place.

    The fields cover all three construction layers: the simulation kernel
    (``seed``, ``trace``, ``telemetry``; its event list is always the
    engine's one binary heap), the hardware substrate
    (``nodes``, ``archs``, ``loss_prob``) and the Starfish system on top
    (``gcs_config``, ``settle``, ``users`` — ignored by the lower layers).
    """

    #: Number of workstations (named ``n0`` .. ``n{nodes-1}``).
    nodes: int = 4
    #: Master seed of the engine's named RNG streams.
    seed: int = 0
    #: Architecture cycle for heterogeneous clusters (``None`` = all
    #: :data:`~repro.cluster.arch.DEFAULT_ARCH`).
    archs: Optional[Tuple["Architecture", ...]] = None
    #: Ambient frame-loss probability on both fabrics (seeded stream
    #: ``net.loss``).  For a *windowed* loss fault, prefer
    #: :class:`repro.faults.FrameLossWindow`.
    loss_prob: float = 0.0
    #: Record a per-event trace (``repro.obs`` Chrome export).
    trace: bool = False
    #: Enable the metrics registry (``False`` swaps in no-op instruments).
    telemetry: bool = True
    #: Group-communication tunables (``None`` = ``GcsConfig()`` defaults).
    gcs_config: Optional[Any] = None
    #: Run the simulation until the daemon group converges after boot.
    settle: bool = True
    #: Client accounts as ``{user: (password, is_mgmt)}`` (``None`` =
    #: :data:`repro.daemon.daemon.DEFAULT_USERS`).
    users: Optional[Dict[str, Tuple[str, bool]]] = None
    #: The checkpoint store (:class:`repro.ckpt.CheckpointStore`) is one
    #: class configured by its tiers and copy count ``k``, derived by
    #: :func:`repro.core.starfish.store_tiers_of`: ``store_tiers`` when
    #: set; otherwise ``("disk", "fabric")`` when ``replication_factor``
    #: is set; otherwise the paper's idealized global stable storage
    #: (the default, byte-identical behaviour).
    #:
    #: Copies per record (``k``).  ``None`` keeps ``k = 2``, which only
    #: sets the memory-tier fan-out (the diskless protocol's double
    #: mirror) unless ``store_tiers`` replicates; an int ``>= 1`` alone
    #: selects ``("disk", "fabric")``: k copies on real nodes, placed by
    #: ``placement_policy``, repaired after failures when ``k >= 2``.
    replication_factor: Optional[int] = None
    #: Replica placement policy (see :data:`PLACEMENT_POLICIES`).
    placement_policy: str = "ring"
    #: Repair-service re-replication budget, bytes/second.
    repair_bandwidth: float = 4.0e6
    #: Checkpoint tiers drawn from :data:`STORE_TIERS` (e.g.
    #: ``("memory", "disk", "fabric")`` for the L1/L2/L3 hierarchy).
    #: ``None`` (default) derives them from ``replication_factor``.
    store_tiers: Optional[Tuple[str, ...]] = None
    #: Delta-checkpoint chain depth (needs ``store_tiers``): ``0`` dumps
    #: full images; ``n > 0`` stores up to ``n`` incremental images
    #: between full bases.
    delta_depth: int = 0
    #: Tier promotion policy (needs ``store_tiers``): ``write-through``
    #: waits for every tier inside the dump; ``write-back`` returns
    #: after the fastest tier and flushes the rest in the background.
    tier_policy: str = "write-through"
    #: Schedule-perturbation seed (``repro.check``).  ``None`` (default)
    #: keeps the untouched deterministic schedule; an int installs a
    #: :class:`repro.check.SchedulePerturbation` on the engine that
    #: shuffles same-instant event ordering.  Independent of ``seed``.
    perturb_seed: Optional[int] = None
    #: Per-frame delivery jitter bound in simulated seconds (requires
    #: ``perturb_seed``); ``0.0`` leaves wire times untouched.
    delivery_jitter: float = 0.0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"ClusterSpec.nodes must be >= 1, got {self.nodes}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(
                f"ClusterSpec.loss_prob must be in [0, 1), got {self.loss_prob}")
        if self.archs is not None and not isinstance(self.archs, tuple):
            object.__setattr__(self, "archs", tuple(self.archs))
        if self.replication_factor is not None \
                and self.replication_factor < 1:
            raise ValueError(
                "ClusterSpec.replication_factor must be None or >= 1, "
                f"got {self.replication_factor}")
        if self.placement_policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"ClusterSpec.placement_policy must be one of "
                f"{PLACEMENT_POLICIES}, got {self.placement_policy!r}")
        if self.repair_bandwidth <= 0:
            raise ValueError(
                "ClusterSpec.repair_bandwidth must be > 0, "
                f"got {self.repair_bandwidth}")
        if self.delivery_jitter < 0:
            raise ValueError(
                "ClusterSpec.delivery_jitter must be >= 0, "
                f"got {self.delivery_jitter}")
        if self.delivery_jitter > 0 and self.perturb_seed is None:
            raise ValueError(
                "ClusterSpec.delivery_jitter needs a perturb_seed (the "
                "jitter draws come from the perturbation's seeded stream)")
        if self.store_tiers is not None:
            if not isinstance(self.store_tiers, tuple):
                object.__setattr__(self, "store_tiers",
                                   tuple(self.store_tiers))
            if not self.store_tiers:
                raise ValueError(
                    "ClusterSpec.store_tiers must name at least one tier "
                    "(or be None to derive them)")
            for t in self.store_tiers:
                if t not in STORE_TIERS:
                    raise ValueError(
                        f"ClusterSpec.store_tiers entries must be drawn "
                        f"from {STORE_TIERS}, got {t!r}")
            if len(set(self.store_tiers)) != len(self.store_tiers):
                raise ValueError(
                    f"ClusterSpec.store_tiers has duplicates: "
                    f"{self.store_tiers}")
        if self.delta_depth < 0:
            raise ValueError(
                f"ClusterSpec.delta_depth must be >= 0, got "
                f"{self.delta_depth}")
        if self.delta_depth > 0 and self.store_tiers is None:
            raise ValueError(
                "ClusterSpec.delta_depth needs store_tiers (delta "
                "checkpoints are a tiered-store feature)")
        if self.tier_policy not in TIER_POLICIES:
            raise ValueError(
                f"ClusterSpec.tier_policy must be one of {TIER_POLICIES}, "
                f"got {self.tier_policy!r}")
        if self.tier_policy != "write-through" and self.store_tiers is None:
            raise ValueError(
                "ClusterSpec.tier_policy needs store_tiers (promotion "
                "policies are a tiered-store feature)")

    def with_(self, **overrides) -> "ClusterSpec":
        """A copy with some fields replaced (specs are frozen)."""
        return replace(self, **overrides)

    @classmethod
    def coalesce(cls, spec: Optional["ClusterSpec"] = None,
                 **legacy) -> "ClusterSpec":
        """Funnel a legacy kwarg call into a spec.

        ``spec`` wins if given (any explicitly passed legacy kwargs are an
        error then — mixing the two forms is ambiguous); otherwise the
        legacy kwargs override the defaults.
        """
        legacy = {k: v for k, v in legacy.items() if v is not _UNSET}
        if spec is not None:
            if legacy:
                raise TypeError(
                    "pass either spec= or legacy kwargs, not both "
                    f"(got spec and {sorted(legacy)})")
            return spec
        return cls(**legacy)


#: Valid ``placement_policy`` names (kept in sync with
#: :data:`repro.store.placement.POLICIES` by a unit test — this module
#: must not import the store package at runtime, layering).
PLACEMENT_POLICIES = ("ring", "random", "partition-aware")

#: Valid ``store_tiers`` entries (kept in sync with
#: :data:`repro.ckpt.storage.TIER_ORDER` by the same unit test).
STORE_TIERS = ("memory", "disk", "fabric")

#: Valid ``tier_policy`` names (sync:
#: :data:`repro.ckpt.storage.PROMOTIONS`).
TIER_POLICIES = ("write-through", "write-back")

#: Sentinel distinguishing "kwarg not passed" from an explicit default.
_UNSET = object()
