"""Host timing that survives this machine's speed drift.

The host's speed swings between regimes up to 2x apart, for seconds to
minutes at a time (other tenants contend for caches and memory); no number
of repetitions averages that out.  The simulator slows down with a fixed
memory-bound kernel (:class:`SpeedProbe`), so a host time ``t`` measured
while the kernel took ``p`` is reported normalized, as ``t * REFERENCE / p``:
the time it would take with the kernel at its reference speed.  A timed
phase is measured in slices of simulated time with a probe between slices
(:class:`PhaseClock`), because a regime can change within one phase.
Raw times are reported beside the normalized ones.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter


class SpeedProbe:
    """A fixed kernel of the simulator's kind, independent of the program
    under test: random walks over a 150k-object arena, short-lived
    allocations and heap operations.  Measured against it, the
    simulator's slowdowns scale with exponent 0.9 (halo) to 1.06 (churn);
    a cache-resident kernel, or one without allocations, tracks them far
    worse."""

    #: About the kernel's time in the fast regime of the 2-core Xeon VM
    #: the benchmark was tuned on (CPython 3.11).
    REFERENCE_S = 0.017
    SIZE = 150_000

    def __init__(self, seed: int = 1):
        rng = random.Random(seed)
        self._cells = [[i, rng.randrange(self.SIZE), 0]
                       for i in range(self.SIZE)]
        self._order = list(range(self.SIZE))
        rng.shuffle(self._order)
        self._pos = 0
        self._ring = [None] * 2048
        #: Every probe's result (seconds), in order.
        self.times = []

    def _kernel(self, steps: int = 8_000) -> int:
        cells, order, size = self._cells, self._order, self.SIZE
        ring, heap, acc, pos = self._ring, [], 0, self._pos
        for step in range(steps):
            cell = cells[order[pos]]
            pos = (pos + 1) % size
            cell[2] = step
            ring[step & 2047] = {"k": step, "v": [cell[1], step],
                                 "t": (step, acc)}
            acc += cell[1] & 7
            heapq.heappush(heap, (cell[1], step))
            if len(heap) > 256:
                heapq.heappop(heap)
        self._pos = pos
        return acc

    def probe(self, runs: int = 3) -> float:
        """The kernel's best of ``runs`` (spikes shorter than one run are
        ignored)."""
        best = float("inf")
        for _ in range(runs):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.times.append(best)
        return best

    def last(self) -> float:
        return self.times[-1] if self.times else self.probe()

    def normalize(self, seconds: float, before: float, after: float):
        return seconds * self.REFERENCE_S * 2 / (before + after)


class PhaseClock:
    """Times one phase: from :meth:`start` to :meth:`stop`, with the engine
    advanced by :meth:`run_until` in slices of ``slice_sim_s`` simulated
    seconds and the machine's speed probed between slices.

    With a tracer the slices are not probed (a probe would land inside the
    traced frames); ``normalized`` is then ``None``.
    """

    def __init__(self, speed: SpeedProbe, slice_sim_s: float, tracer=None):
        self.speed = speed
        self.slice_sim_s = slice_sim_s
        self.tracer = tracer
        self.raw = 0.0
        self.normalized = None if tracer is not None else 0.0
        #: Benchmark events the engine processed: slice ends and the
        #: awaited event.
        self.own_events = 0

    def start(self, engine) -> None:
        self.engine = engine
        self._probe = self.speed.last()
        if self.tracer is not None:
            self.tracer.start(engine)
        self._mark = perf_counter()

    def _segment(self) -> None:
        elapsed = perf_counter() - self._mark
        self.raw += elapsed
        if self.tracer is None:
            probe = self.speed.probe(runs=1)
            self.normalized += self.speed.normalize(elapsed, self._probe,
                                                    probe)
            self._probe = probe
        self._mark = perf_counter()

    def run_until(self, event, limit: float) -> bool:
        """Run until ``event`` is processed or ``limit`` simulated seconds
        have passed; True if it was processed."""
        engine = self.engine
        deadline = engine.now + limit
        while not event.processed and engine.now < deadline:
            end = engine.timeout(min(self.slice_sim_s,
                                     deadline - engine.now))
            stop = engine.any_of([event, end])
            engine.run(until=stop)
            self.own_events += end.processed + stop.processed
            self._segment()
        self.own_events += event.processed
        return event.processed

    def stop(self) -> None:
        if self.tracer is not None:
            self.tracer.stop()
        self._segment()
