"""The four benchmark workloads, driven through the public API only.

Each workload turns the ``--seed`` into inputs (rod length, which host
crashes, the job stream), builds a cluster (``setup``), runs one timed
phase (``run``) and checks the outputs.  A workload's simulated results
and counters depend only on the seed: every repetition in a run must
reproduce them exactly.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import AppSpec, ClusterSpec, StarfishCluster
from repro.apps import Jacobi1D
from repro.apps.traffic import ShortTask
from repro.core import CheckpointConfig, FaultPolicy
from repro.faults import CrashNode, FaultPlan, RecoverNode
from repro.fleet import FleetController, FleetOracle

#: Relative tolerance of the Jacobi result against the NumPy reference.
#: The sweeps are the same float64 operations; only the order of the
#: residual and total reductions differs.
JACOBI_RTOL = 1e-9
#: Simulated-time cap on one timed phase (a hang is a failure, not a wait).
SIM_LIMIT = 600.0

#: Registry counters read as per-layer counts (summed over labels; the
#: delta over the timed phase is reported).
COUNTERS = (
    "vni.sent", "vni.bytes_sent",
    "net.frames_sent", "net.bytes_sent", "net.frames_dropped",
    "net.conn.retransmits",
    "gcs.heartbeats", "gcs.casts", "gcs.p2p", "gcs.delivered",
    "gcs.rel_retransmits", "gcs.views",
    "ckpt.protocol.checkpoints", "ckpt.protocol.bytes",
    "repl.casts", "repl.delivered", "repl.dups_suppressed",
    "ckpt.store.writes", "ckpt.store.reads", "ckpt.store.bytes_written",
    "store.replica.bytes", "store.repair.bytes",
    "daemon.view_changes", "daemon.restarts", "daemon.ranks_restarted",
    "app.steps", "app.aborted_steps",
    "fleet.jobs_submitted", "fleet.jobs_admitted", "fleet.jobs_completed",
    "fleet.jobs_rejected",
)
#: Registry histograms read as (count, sum) over the timed phase.
HISTOGRAMS = ("mpi.p2p.latency_seconds", "ckpt.protocol.sync_seconds")


def registry_snapshot(registry) -> Dict[str, float]:
    out = dict.fromkeys(COUNTERS, 0)
    for name in HISTOGRAMS:
        out[name + ".count"] = out[name + ".sum"] = 0
    for inst in registry.instruments():
        if inst.name in HISTOGRAMS:
            out[inst.name + ".count"] += inst.count
            out[inst.name + ".sum"] += inst.sum
        elif inst.name in out:
            out[inst.name] += inst.value
    return out


def jacobi_reference(n: int, nprocs: int, iterations: int):
    """Rank 0's ``Jacobi1D`` result, from one NumPy sweep of the whole rod:
    ``(iterations, residual, total)``, the residual being the sum over the
    ranks' blocks of each block's largest change in the last sweep."""
    u = np.zeros(n + 2)
    u[0] = 1.0
    change = np.zeros(n)
    for _ in range(iterations):
        new = 0.5 * (u[:-2] + u[2:])
        change = np.abs(new - u[1:-1])
        u[1:-1] = new
    residual = float(change.reshape(nprocs, n // nprocs).max(axis=1).sum())
    return iterations, residual, float(u[1:-1].sum())


def jacobi_matches(result, reference) -> bool:
    if not isinstance(result, tuple) or len(result) != 3:
        return False
    return result[0] == reference[0] and all(
        abs(a - b) <= JACOBI_RTOL * max(abs(b), 1e-300)
        for a, b in zip(result[1:], reference[1:]))


@dataclass
class RepResult:
    """One timed phase: host time, deterministic results, failures."""

    #: Host seconds of the timed phase, raw and normalized (see
    #: ``timing.py``; ``None`` when the phase was traced).
    host_s: float
    host_norm_s: Optional[float]
    #: Simulated-time results (identical for every repetition of a seed).
    sim: Dict[str, float]
    #: Per-layer counts over the timed phase (identical likewise).
    counts: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)


class _Recorder:
    """Finish and step instants of one application, reported by a
    benchmark-owned subclass of its program (see :meth:`program`)."""

    def __init__(self, engine, expected_finishes: int):
        self.expected = expected_finishes
        self.finishes = 0
        self.done = engine.event("perfbench:app-finished")
        #: rank -> instant its first step after a restore completed.
        self.first_restored_step: Dict[int, float] = {}

    def program(self, base):
        rec = self

        class Recorded(base):
            def step(self, ctx):
                yield from base.step(self, ctx)
                if ctx.restarted and ctx.rank not in rec.first_restored_step:
                    rec.first_restored_step[ctx.rank] = ctx.now

            def finalize(self, ctx):
                result = yield from base.finalize(self, ctx)
                rec.finishes += 1
                if rec.finishes == rec.expected:
                    rec.done.succeed(ctx.now)
                return result

        Recorded.__name__ = base.__name__
        return Recorded


class Workload:
    """One named workload; ``BENCHMARK.json`` says why each was chosen."""

    name = ""
    nodes = 0
    #: Simulated seconds per timed slice (see ``timing.PhaseClock``):
    #: about a tenth of a host second each.
    slice_sim_s = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(nodes=self.nodes, seed=self.seed)

    def setup(self) -> StarfishCluster:
        return StarfishCluster.build(spec=self.cluster_spec())

    def prepare(self) -> None:
        """Untimed work done once per run (references, twins)."""

    def run(self, sf: StarfishCluster, clock) -> RepResult:
        """The timed phase, timed by ``clock`` (a ``timing.PhaseClock``)."""
        raise NotImplementedError


class JacobiWorkload(Workload):
    """``Jacobi1D`` as one application; the timed phase runs from
    submission to the instant its last rank finishes."""

    nprocs = 0
    copies = 1
    iterations = 40
    cells_per_rank = (56, 72)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.n = self.nprocs * self.rng.randint(*self.cells_per_rank)

    def prepare(self) -> None:
        self.reference = jacobi_reference(self.n, self.nprocs,
                                          self.iterations)

    def app_spec(self, program) -> AppSpec:
        return AppSpec(program=program, nprocs=self.nprocs,
                       params={"n": self.n, "iterations": self.iterations})

    def inject(self, sf: StarfishCluster, submitted_at: float) -> None:
        """Schedule faults (none for failure-free workloads)."""

    def run(self, sf: StarfishCluster, clock) -> RepResult:
        engine = sf.engine
        rec = _Recorder(engine, self.nprocs * self.copies)
        spec = self.app_spec(rec.program(Jacobi1D))
        before = registry_snapshot(engine.metrics)
        events0 = engine.events_processed
        clock.start(engine)
        s0 = engine.now
        handle = sf.submit(spec)
        self.inject(sf, s0)
        finished = clock.run_until(rec.done, SIM_LIMIT)
        clock.stop()
        counts = _delta(registry_snapshot(engine.metrics), before)
        counts["sim.events"] = (engine.events_processed - events0
                                - clock.own_events)

        failures = []
        app_sim_s = (rec.done.value - s0) if finished else SIM_LIMIT
        if not finished:
            failures.append("application did not finish")
        else:
            # Untimed: let the daemons collect the ranks' results.
            while not handle.finished and engine.now < s0 + SIM_LIMIT:
                engine.run(until=engine.now + 0.001)
            if handle.status.value != "done":
                failures.append(f"application ended {handle.status.value}")
            else:
                failures += self.check(handle.result(0), counts, rec)
        sim = {"app_sim_s": app_sim_s,
               # One application is one job.
               "turnaround_p50_sim_s": app_sim_s,
               "turnaround_p95_sim_s": app_sim_s}
        sim.update(self.extra_sim(rec, s0))
        return RepResult(clock.raw, clock.normalized, sim, counts,
                         attempted=1, failures=failures)

    def check(self, result, counts, rec) -> List[str]:
        if not jacobi_matches(result, self.reference):
            return [f"result {result!r} != reference {self.reference!r}"]
        return []

    def extra_sim(self, rec, s0) -> Dict[str, float]:
        return {}


class Halo(JacobiWorkload):
    name = "halo"
    nodes = 64
    slice_sim_s = 0.01
    nprocs = 64


class ReplicaHalo(JacobiWorkload):
    name = "replica-halo"
    nodes = 16
    slice_sim_s = 0.1
    nprocs = 8
    copies = 2
    cells_per_rank = (448, 576)

    def __init__(self, seed: int):
        super().__init__(seed)
        # The GCS total order quantizes a replicated run's simulated time:
        # the rod length alone leaves it unchanged, so the seed also picks
        # the sweep count.
        self.iterations += self.rng.randint(0, 1)

    def app_spec(self, program) -> AppSpec:
        return AppSpec(program=program, nprocs=self.nprocs,
                       params={"n": self.n, "iterations": self.iterations},
                       ft_policy=FaultPolicy.RESTART,
                       checkpoint=CheckpointConfig(protocol="replication",
                                                   replicas=self.copies))

    def check(self, result, counts, rec) -> List[str]:
        failures = super().check(result, counts, rec)
        if counts["daemon.ranks_restarted"] != 0:
            failures.append("a failure-free replicated run restarted ranks")
        return failures


class CrashRestart(JacobiWorkload):
    name = "crash-restart"
    nodes = 12
    slice_sim_s = 1.0
    nprocs = 8
    iterations = 100
    cells_per_rank = (508, 516)
    #: Simulated cost of one cell update: stretches the run past the crash.
    ns_per_cell = 100_000.0
    checkpoint_interval = 1.0
    #: The crashed host is rank 3's (a rank with two halo neighbours), at
    #: a fixed instant; the node recovers later (simulated seconds after
    #: submission).
    victim_rank = 3
    crash_after = 2.5
    recover_after = 4.0

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(nodes=self.nodes, seed=self.seed,
                           store_tiers=("memory", "disk", "fabric"))

    def app_spec(self, program) -> AppSpec:
        return AppSpec(
            program=program, nprocs=self.nprocs,
            params={"n": self.n, "iterations": self.iterations,
                    "compute_ns_per_cell": self.ns_per_cell},
            ft_policy=FaultPolicy.RESTART,
            placement={r: f"n{r}" for r in range(self.nprocs)},
            checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                        interval=self.checkpoint_interval))

    def prepare(self) -> None:
        super().prepare()
        # The failure-free twin: same cluster, same app, no crash.
        sf = self.setup()
        handle = sf.submit(self.app_spec(Jacobi1D))
        self.failure_free = sf.run_to_completion(handle).get(0)

    def inject(self, sf: StarfishCluster, submitted_at: float) -> None:
        victim = f"n{self.victim_rank}"
        self.crash_at = submitted_at + self.crash_after
        (FaultPlan()
         .at(self.crash_at, CrashNode(node=victim))
         .at(submitted_at + self.recover_after, RecoverNode(node=victim))
         .apply_to(sf))

    def check(self, result, counts, rec) -> List[str]:
        failures = super().check(result, counts, rec)
        if result != self.failure_free:
            failures.append(f"result {result!r} != failure-free "
                            f"{self.failure_free!r}")
        if len(rec.first_restored_step) != self.nprocs:
            failures.append("the world did not restart from a checkpoint")
        return failures

    def extra_sim(self, rec, s0) -> Dict[str, float]:
        if len(rec.first_restored_step) != self.nprocs:
            return {"recovery_sim_s": SIM_LIMIT}
        return {"recovery_sim_s":
                max(rec.first_restored_step.values()) - self.crash_at}


class _StoppingController(FleetController):
    """Fires ``stopped`` on the tick that makes the last of ``expected``
    jobs terminal."""

    def __init__(self, sf: StarfishCluster, expected: int):
        super().__init__(sf)
        self.expected = expected
        self.stopped = sf.engine.event("perfbench:jobs-terminal")

    def step(self) -> None:
        super().step()
        if (len(self.scheduler.jobs) == self.expected
                and not self.pending_work() and not self.stopped.triggered):
            self.stopped.succeed(self.engine.now)


class Churn(Workload):
    name = "churn"
    nodes = 16
    slice_sim_s = 0.5
    jobs = 200
    #: Arrival window (simulated seconds): a Poisson stream of ``jobs``
    #: arrivals conditioned on this window, i.e. 20 jobs per second.
    window = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        gen = np.random.default_rng(self.rng.getrandbits(63))
        self.arrivals = np.sort(gen.uniform(0.0, self.window, self.jobs))
        # The job mix is the same for every seed (1-4 ranks, 2-4 steps of
        # 0.02 s, in equal shares); the seed orders it and times it.
        self.sizes = gen.permutation(np.resize([1, 2, 3, 4], self.jobs))
        self.steps = gen.permutation(np.resize([2, 3, 4], self.jobs))

    def setup(self) -> StarfishCluster:
        sf = super().setup()
        self.controller = _StoppingController(sf, self.jobs)
        return sf

    def _arrive(self, engine, controller, start, submitted):
        for due, size, steps in zip(self.arrivals, self.sizes, self.steps):
            yield engine.timeout(start + float(due) - engine.now)
            submitted.append(controller.submit(AppSpec(
                program=ShortTask, nprocs=int(size),
                params={"steps": int(steps), "step_time": 0.02},
                tenant="churn")))

    def run(self, sf: StarfishCluster, clock) -> RepResult:
        engine = sf.engine
        controller = self.controller
        submitted: List[Any] = []
        before = registry_snapshot(engine.metrics)
        events0 = engine.events_processed
        clock.start(engine)
        s0 = engine.now
        engine.process(self._arrive(engine, controller, s0, submitted),
                       name="perfbench-arrivals")
        finished = clock.run_until(controller.stopped, SIM_LIMIT)
        clock.stop()
        counts = _delta(registry_snapshot(engine.metrics), before)
        counts["sim.events"] = (engine.events_processed - events0
                                - clock.own_events)

        failures = []
        if not finished:
            failures.append(f"{sum(not j.terminal for j in submitted)} "
                            "jobs still pending at the simulated cap")
        failures += [f"fleet oracle: {v}" for v in
                     FleetOracle().check(controller.scheduler,
                                         require_terminal=finished)]
        for job, steps in zip(submitted, self.steps):
            if job.state != "done":
                failures.append(f"{job.job_id} ended {job.state}")
            elif controller.handles[job.job_id].result(0) != steps:
                failures.append(f"{job.job_id} returned a wrong step count")
        done = [j for j in submitted if j.finished_at is not None]
        turnaround = sorted(j.finished_at - j.submit_time for j in done)
        if len(turnaround) < 2:          # already a failure
            turnaround = [SIM_LIMIT] * 2
        waits = [j.admitted_at - j.submit_time for j in done
                 if j.admitted_at is not None] or [SIM_LIMIT]
        sim = {
            "app_sim_s": (controller.stopped.value - s0 if finished
                          else SIM_LIMIT),
            "turnaround_p50_sim_s": statistics.median(turnaround),
            # 200 jobs: 10 samples lie beyond the 95th percentile.
            "turnaround_p95_sim_s":
                statistics.quantiles(turnaround, n=20)[18],
            "admit_wait_p50_sim_s": statistics.median(waits),
            "generator_lateness_sim_s": max(
                j.submit_time - s0 - float(due)
                for j, due in zip(submitted, self.arrivals)),
        }
        return RepResult(clock.raw, clock.normalized, sim, counts,
                         attempted=self.jobs,
                         failures=failures)


def _delta(after: Dict[str, float], before: Dict[str, float]):
    return {k: after[k] - before[k] for k in after}


WORKLOADS = {w.name: w for w in (Halo, ReplicaHalo, CrashRestart, Churn)}
