"""Tunables of the group-communication protocols."""

from __future__ import annotations

from dataclasses import dataclass

from repro.calibration import (ENSEMBLE_PER_MEMBER, ENSEMBLE_ROUND_BASE,
                               HEARTBEAT_PERIOD, SUSPECT_TIMEOUT)


@dataclass(frozen=True)
class GcsConfig:
    """Protocol timing knobs.

    The defaults follow ``repro.calibration``.  Failure-detection traffic
    is linear in the group size (4n-6 heartbeats per period through the
    two monitors, see :mod:`repro.gcs`), so one setting serves every
    cluster size; only benchmarks that simulate hours (the once-an-hour
    checkpoint claim) raise the period to save events.
    """

    #: Period of the heartbeats between the two monitors (coordinator and
    #: successor) and every other member.
    heartbeat_period: float = HEARTBEAT_PERIOD
    #: Silence after which a watched member is suspected (monitors watch
    #: everyone, every other member watches the monitors).
    suspect_timeout: float = SUSPECT_TIMEOUT
    #: How long a flush coordinator waits for FLUSH_OK before dropping
    #: non-responders and installing the view from the replies in hand.
    flush_timeout: float = 0.25
    #: Gossip period for coordinator ANNOUNCE messages (partition merge).
    announce_period: float = 0.5
    #: Join-retry cadence for members that have no view yet (independent
    #: of the heartbeat period, which may be slow on long-running setups).
    join_retry: float = 0.1
    #: Enable gossip-based merge of concurrent views.
    gossip: bool = True
    #: Sequencer processing cost per multicast: base + per-member term.
    sequencer_base: float = ENSEMBLE_ROUND_BASE
    sequencer_per_member: float = ENSEMBLE_PER_MEMBER
    #: Modelled wire size of protocol control frames.
    control_size: int = 192
    #: Base retransmit timeout of the reliable-delivery (``Rel``) sublayer;
    #: doubles per retry up to :attr:`rel_backoff_max`.
    rel_retry: float = 0.1
    #: Cap of the exponential retransmit backoff.
    rel_backoff_max: float = 0.8
    #: Retries before giving a destination up for dead (failure suspicion
    #: and the next flush handle it from there).
    rel_max_tries: int = 20
