"""Group communication substrate (system S4) — the Ensemble substitute.

Starfish runs all its daemons as one *process group* managed by the Ensemble
toolkit; Ensemble gives it reliable totally-ordered multicast, automatic
failure detection, and virtually-synchronous membership views.  This package
implements those guarantees over the simulated cluster:

* :class:`~repro.gcs.member.GroupMember` — one endpoint of a process group:
  heartbeat failure detection, coordinator-based view agreement with a
  flush protocol (virtual synchrony), sequencer-based total-order multicast,
  point-to-point sends, state transfer to joiners, and gossip-based view
  merge after partitions heal.

Failure detection runs through two *monitors*, the view's coordinator and
its successor (``view.members[:2]``).  Each monitor heartbeats every other
member and every other member heartbeats only the monitors: 4n-6 frames
per ``heartbeat_period`` instead of the n(n-1) of an all-to-all detector.
Monitors suspect any member silent for ``suspect_timeout``; every other
member suspects only the monitors and counts the rest alive.  The lowest
unsuspected member starts the flush; a non-monitor that lost both
monitors starts one itself, and the flush's lowest-sender tie-break picks
among such proposers.  Any single crash and any simultaneous pair is thus
seen by a survivor within ``suspect_timeout + heartbeat_period``, as with
all-to-all heartbeats.  Each first suspicion emits a ``gcs.suspect``
event.

Guarantees (property-tested in ``tests/test_gcs_properties.py``):

1. **Total order** — all members deliver casts in a common order (every
   member's delivery sequence is a prefix of the longest one).
2. **Virtual synchrony** — members that transition together between two
   views deliver exactly the same set of messages in the first view.
3. **FIFO** — casts from one sender are delivered in send order.
4. **Self-delivery** — a sender delivers its own casts, totally ordered.
5. **No loss, no duplication** — across view changes, a surviving sender's
   message is delivered exactly once at every surviving member (re-cast
   after the view change if the old view could not order it).

The protocol tolerates crash failures and network partitions (partitionable
membership with merge-on-heal); like real Ensemble it assumes the transport
below it does not silently drop frames between live, connected nodes.
"""

from repro.gcs.endpoint import EndpointId, View
from repro.gcs.config import GcsConfig
from repro.gcs.events import CastEvent, GcsEvent, P2pEvent, ViewEvent
from repro.gcs.member import GroupMember

__all__ = [
    "CastEvent",
    "EndpointId",
    "GcsConfig",
    "GcsEvent",
    "GroupMember",
    "P2pEvent",
    "View",
    "ViewEvent",
]
