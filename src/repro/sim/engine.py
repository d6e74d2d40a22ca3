"""The discrete-event engine.

A single :class:`Engine` owns the virtual clock and the event queue.  The
queue orders events by ``(time, priority, sequence)`` where the sequence
number is a global insertion counter — two events scheduled for the same
instant with the same priority are always processed in the order they were
scheduled, which makes every simulation in this repository fully
deterministic and reproducible.

Hot-path layout: the heap entries are bare ``(time, priority, seq, event)``
tuples, event triggering pushes them through the engine's pre-bound
``_push`` callable (see :mod:`repro.sim.events`), and :meth:`Engine.run`
inlines the per-event work of :meth:`Engine.step` with the queue, clock,
and tracer bound to locals — the tracer branch is hoisted out of the loop
entirely by selecting the traced or untraced loop body once per
:meth:`run` call.  :meth:`step` remains the single-event reference
implementation; both must dispatch events identically.

The future event list is one binary heap, ``Engine._queue``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.errors import SimulationError, StopSimulation
from repro.obs.registry import MetricsRegistry
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer

#: Priority for ordinary events.
NORMAL = 1
#: Priority for events that must run before ordinary ones at the same time.
URGENT = 0


class Engine:
    """Deterministic discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Master seed for the per-subsystem random streams (see
        :class:`~repro.sim.rng.RngStreams`).
    trace:
        When true, every processed event is recorded by a
        :class:`~repro.sim.trace.Tracer` (used by the Figure 6 bench).
    telemetry:
        When true (default) the engine carries an enabled
        :class:`~repro.obs.registry.MetricsRegistry` that every subsystem
        emits instruments into; when false the registry hands out no-op
        instruments (the zero-cost-ish ablation path).
    """

    __slots__ = ("_now", "_queue", "_seq", "active_process", "rng",
                 "tracer", "_nprocessed", "metrics", "_perturb",
                 "_tie_pending", "_push")

    def __init__(self, seed: int = 0, trace: bool = False,
                 telemetry: bool = True):
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0
        self._push = partial(heappush, self._queue)
        self.active_process: Optional[Process] = None
        self.rng = RngStreams(seed)
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self._nprocessed = 0
        self.metrics = MetricsRegistry(enabled=telemetry)
        # Schedule perturbation (repro.check): when installed, same-instant
        # same-priority event runs are dispatched in a seeded shuffled
        # order instead of insertion order.  ``None`` keeps the untouched
        # deterministic fast path (byte-identical to pre-perturbation
        # engines).  ``_tie_pending`` holds the already-shuffled remainder
        # of the current tie group.
        self._perturb = None
        self._tie_pending: deque = deque()
        # Live engine internals surface as sampled gauges: no per-event
        # registry work on the hot path, always-current at collect time.
        self.metrics.gauge_fn("sim.events_processed",
                              lambda: self._nprocessed)
        self.metrics.gauge_fn(
            "sim.queue_depth",
            lambda: len(self._queue) + len(self._tie_pending))
        self.metrics.gauge_fn(
            "sim.trace.events_dropped",
            lambda: self.tracer.events_dropped if self.tracer else 0)

    @classmethod
    def from_spec(cls, spec) -> "Engine":
        """Build an engine from a :class:`~repro.cluster.spec.ClusterSpec`.

        Duck-typed on the kernel-relevant fields (``seed``, ``trace``,
        ``telemetry``, and the optional ``perturb_seed`` /
        ``delivery_jitter`` pair) so the sim layer does not import the
        cluster layer.
        """
        eng = cls(seed=spec.seed, trace=spec.trace, telemetry=spec.telemetry)
        perturb_seed = getattr(spec, "perturb_seed", None)
        if perturb_seed is not None:
            from repro.check.perturb import SchedulePerturbation
            eng.set_perturbation(SchedulePerturbation(
                perturb_seed,
                jitter=getattr(spec, "delivery_jitter", 0.0)))
        return eng

    def set_perturbation(self, perturb) -> None:
        """Install (or clear, with ``None``) a schedule perturbation.

        ``perturb`` must provide ``shuffle_ties(entries)`` (in-place
        shuffle of a list of same-``(time, priority)`` heap entries) and a
        ``delivery_jitter`` float attribute read by the network layer; see
        :class:`repro.check.perturb.SchedulePerturbation`.  Installing one
        mid-group (``_tie_pending`` non-empty) is refused — order of the
        already-shuffled remainder would be ambiguous.
        """
        if self._tie_pending:
            raise SimulationError(
                "cannot change perturbation with a tie group in flight")
        self._perturb = perturb

    # -- clock & queue ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (a work measure)."""
        return self._nprocessed

    def _enqueue(self, event: Event, priority: Optional[int],
                 delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        self._push((self._now + delay,
                    NORMAL if priority is None else priority,
                    seq, event))

    # -- factories ---------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None,
                name: Optional[str] = None) -> Timeout:
        """Create an event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a simulated process; returns it."""
        return Process(self, generator, name=name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------

    def _pop_perturbed(self):
        """Pop the next heap entry under an installed perturbation.

        A run of entries tying on ``(time, priority)`` at the heap head is
        drained as one group, shuffled by the perturbation's seeded RNG,
        and dispatched from ``_tie_pending``.  Events scheduled *while* the
        group dispatches form later groups of their own, so every shuffled
        schedule is still causally valid; URGENT never mixes with NORMAL
        (unequal priority ends the group).
        """
        pending = self._tie_pending
        if pending:
            return pending.popleft()
        queue = self._queue
        entry = heappop(queue)
        if queue and queue[0][0] == entry[0] and queue[0][1] == entry[1]:
            group = [entry]
            when, prio = entry[0], entry[1]
            while queue and queue[0][0] == when and queue[0][1] == prio:
                group.append(heappop(queue))
            self._perturb.shuffle_ties(group)
            pending.extend(group)
            return pending.popleft()
        return entry

    def step(self) -> None:
        """Process exactly one event; raise
        :class:`~repro.errors.SimulationError` if the queue is empty.

        Reference implementation of event dispatch — the inlined loop in
        :meth:`run` must stay behaviorally identical to this.
        """
        if self._perturb is not None:
            if not self._queue and not self._tie_pending:
                raise SimulationError("event queue is empty")
            when, _prio, _seq, event = self._pop_perturbed()
        elif not self._queue:
            raise SimulationError("event queue is empty")
        else:
            when, _prio, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event queue went back in time")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        self._nprocessed += 1
        if self.tracer is not None:
            self.tracer.record(when, event)
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # A failure nobody was waiting on: surface it loudly.
            exc = event.value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed; its value is returned — a failed event re-raises).

        The tracer is sampled once on entry: assigning ``engine.tracer``
        takes effect on the next :meth:`run` call, not mid-loop.
        """
        stop_at: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            def _halt(ev: Event) -> None:
                if not ev.ok:
                    ev.defuse()
                raise StopSimulation(ev)
            if until.processed:
                if not until.ok:
                    raise until.value
                return until.value
            until.callbacks.append(_halt)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})")

        if self._perturb is not None:
            return self._run_perturbed(until, stop_at)

        queue = self._queue
        pop = heappop
        tracer = self.tracer
        record = tracer.record if tracer is not None else None
        nprocessed = self._nprocessed
        try:
            # Two copies of the dispatch loop: the run-to-event/drain case
            # (no deadline) skips the per-event deadline peek entirely.
            if stop_at is None:
                while queue:
                    when, _prio, _seq, event = pop(queue)
                    if when < self._now:
                        raise SimulationError("event queue went back in time")
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    nprocessed += 1
                    if record is not None:
                        record(when, event)
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        raise exc
            else:
                while queue:
                    if queue[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    when, _prio, _seq, event = pop(queue)
                    if when < self._now:
                        raise SimulationError("event queue went back in time")
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    nprocessed += 1
                    if record is not None:
                        record(when, event)
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        raise exc
        except StopSimulation as stop:
            ev: Event = stop.value
            if not ev.ok:
                raise ev.value from None
            return ev.value
        finally:
            self._nprocessed = nprocessed
        if isinstance(until, Event):
            raise SimulationError(
                f"simulation ran dry before {until!r} triggered")
        if stop_at is not None:
            self._now = stop_at
        return None

    def _run_perturbed(self, until: Any, stop_at: Optional[float]) -> Any:
        """The :meth:`run` loop under an installed perturbation.

        Same epilogue semantics as the fast loops; dispatch goes through
        :meth:`_pop_perturbed`.  A ``StopSimulation`` mid-group is safe:
        the shuffled remainder stays parked in ``_tie_pending`` and the
        next call (or :meth:`step`) continues from it.
        """
        queue = self._queue
        pending = self._tie_pending
        try:
            while queue or pending:
                if stop_at is not None:
                    nxt = pending[0][0] if pending else queue[0][0]
                    if nxt > stop_at:
                        self._now = stop_at
                        return None
                when, _prio, _seq, event = self._pop_perturbed()
                if when < self._now:
                    raise SimulationError("event queue went back in time")
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                self._nprocessed += 1
                if self.tracer is not None:
                    self.tracer.record(when, event)
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            ev: Event = stop.value
            if not ev.ok:
                raise ev.value from None
            return ev.value
        if isinstance(until, Event):
            raise SimulationError(
                f"simulation ran dry before {until!r} triggered")
        if stop_at is not None:
            self._now = stop_at
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._tie_pending:
            return self._tie_pending[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def __repr__(self) -> str:
        return (f"<Engine t={self._now:.9g} "
                f"queued={len(self._queue) + len(self._tie_pending)} "
                f"processed={self._nprocessed}>")
