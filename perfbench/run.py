"""The repository's benchmark: four workloads, end-to-end and per-layer.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload halo --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (see ``tracing.py``) and the tracing overhead.

Run every workload and print one table::

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

A run repeats the workload's timed phase until ``--seconds`` have passed
(at least ``MIN_REPS`` times), each time on a freshly built cluster, and
reports medians of host times normalized for the machine's drifting speed
(``timing.py``; the raw medians are printed too).  Simulated results and
counters must be identical across repetitions, across runs of the same
code and seed, and between traced and untraced repetitions; any
difference is a failure.  Result sets go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from timing import PhaseClock, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

#: Timed repetitions per run at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Cluster builds per run at least (``setup_s`` is their median).
MIN_SETUPS = 7
#: Largest allowed gap between the traced host time and the sum of all
#: self times (sim + layers + unattributed), as a share of the former.
SELF_TIME_TOLERANCE = 0.01

#: Printed per workload beside the end-to-end metrics: not defined on
#: every workload, zero on a correct run, or (``app_sim_s`` of ``churn``,
#: which the fixed arrival window sets) not a result of the system.
DETAIL = {
    "app_sim_s": "sim_s",
    "recovery_sim_s": "sim_s",
    "admit_wait_p50_sim_s": "sim_s",
    "generator_lateness_sim_s": "sim_s",
    "fail_frac": "ratio",
    "host_raw_s": "s",
    "setup_raw_s": "s",
}


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them
    (``kind``: ``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _tree_hash() -> str:
    """Identifies the code under test: the program's and the benchmark's
    sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """Repetitions of one workload, their checks and their metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.reps = []           # untraced RepResults
        self.traced = []         # (RepResult, Tracer)
        #: Host seconds: (raw, normalized) per timed phase, and per
        #: cluster build (raw, probe before, probe after).
        self.hosts = []
        self.traced_hosts = []
        self.setups = []
        self.speed = SpeedProbe()
        self.attempted = 0
        self.failures = []

    def _one(self, tracer=None):
        gc.collect()
        try:
            if tracer is not None:
                tracer.install()
            try:
                c0 = self.speed.last()
                t0 = perf_counter()
                sf = self.workload.setup()
                setup_s = perf_counter() - t0
                c1 = self.speed.probe()
                rep = self.workload.run(sf, PhaseClock(
                    self.speed, self.workload.slice_sim_s, tracer))
            finally:
                if tracer is not None:
                    tracer.close()
        except Exception:        # a crashed repetition is a failed one
            self.attempted += 1
            self.failures.append("repetition raised:\n"
                                 + traceback.format_exc())
            return None
        self.attempted += rep.attempted
        self.failures += rep.failures
        if tracer is None:
            self.setups.append((setup_s, c0, c1))
            self.hosts.append((rep.host_s, rep.host_norm_s))
        else:
            self.traced_hosts.append((rep.host_s, self.speed.normalize(
                rep.host_s, c1, self.speed.probe())))
        return rep

    def measure(self, seconds: float) -> None:
        """Repeat until another repetition would end past ``seconds``
        (but at least ``MIN_REPS`` times)."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            rep = self._one()
            if rep is not None:
                self.reps.append(rep)
            elif not self.reps and len(self.failures) >= MIN_REPS:
                break
            now = perf_counter()
            if (len(self.reps) >= MIN_REPS
                    and now - start + (now - t0) > seconds):
                break
        self._extra_setups()

    def measure_traced(self, seconds: float) -> None:
        """Alternate untraced and traced repetitions until another pair
        would end past ``seconds`` (at least one pair)."""
        from tracing import Tracer
        start = perf_counter()
        while True:
            t0 = perf_counter()
            rep = self._one()
            if rep is not None:
                self.reps.append(rep)
            tracer = Tracer()
            rep = self._one(tracer)
            if rep is not None:
                self._reconcile(rep, tracer)
                if self.traced:
                    self._compare_traces(self.traced[0][1], tracer)
                    self.traced[-1][1].spans.clear()   # only the last kept
                self.traced.append((rep, tracer))
            if not self.traced and len(self.failures) >= MIN_REPS:
                break
            now = perf_counter()
            if self.traced and now - start + (now - t0) > seconds:
                break

    def _extra_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            gc.collect()
            c0 = self.speed.last()
            t0 = perf_counter()
            self.workload.setup()
            setup_s = perf_counter() - t0
            self.setups.append((setup_s, c0, self.speed.probe()))

    # -- checks -------------------------------------------------------------

    def check_determinism(self, fingerprint_dir: Path) -> dict:
        """Every repetition (traced or not) reproduces the first one's
        simulated results and counts, and so does every earlier run of the
        same code and seed."""
        reps = self.reps + [rep for rep, _ in self.traced]
        if not reps:
            return {}
        first = {**reps[0].sim, **reps[0].counts}
        for i, rep in enumerate(reps[1:], 1):
            other = {**rep.sim, **rep.counts}
            diff = sorted(k for k in first if first[k] != other.get(k))
            if diff:
                self.failures.append(
                    f"repetition {i} differs from repetition 0 in {diff}")
        fingerprint_dir.mkdir(parents=True, exist_ok=True)
        path = fingerprint_dir / (f"{self.workload.name}-seed"
                                  f"{self.workload.seed}.json")
        text = json.dumps(first, sort_keys=True)
        if not path.exists():
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(text)
            os.replace(tmp, path)
        elif path.read_text() != text:
            self.failures.append(
                f"simulated results differ from an earlier run of the "
                f"same code and seed ({path})")
        return first

    def _compare_traces(self, first, other) -> None:
        """Traced counts and simulated waits repeat exactly."""
        for name in ("method_calls", "layer_calls", "sim_wait"):
            if getattr(first, name) != getattr(other, name):
                self.failures.append(f"traced {name} differ between "
                                     "repetitions")

    def _reconcile(self, rep, tracer) -> None:
        """Wrapper counts equal the program's own counters, and the self
        times add up to the traced host time."""
        vni_calls = tracer.instance_calls["vni.Vni.send"]
        # A restarted process reuses its VNI port, and the port's
        # ``vni.sent`` series restarts from zero with the new VNI: only the
        # sends of each port's latest VNI remain counted.
        latest = {tracer.instances[key].port: key for key in
                  tracer.instances if key in vni_calls}
        vni_sends = sum(vni_calls[key] for key in latest.values())
        tracer.instances.clear()             # release the traced cluster
        transmits = tracer.method_calls["net.Fabric.transmit"]
        for calls, counter in ((vni_sends, "vni.sent"),
                               (transmits, "net.frames_sent")):
            if calls != rep.counts[counter]:
                self.failures.append(f"{calls} wrapped calls != {counter} "
                                     f"{rep.counts[counter]}")
        total = sum(tracer.self_ns.values()) / 1e9
        if abs(total - rep.host_s) > SELF_TIME_TOLERANCE * rep.host_s:
            self.failures.append(f"self times sum to {total:.6f} s, traced "
                                 f"host time is {rep.host_s:.6f} s")

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        sim = self.reps[0].sim if self.reps else {}
        out = {
            "host_s": _median([norm for _, norm in self.hosts]),
            "setup_s": _median([self.speed.normalize(*s)
                                for s in self.setups]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name in ("turnaround_p50_sim_s", "turnaround_p95_sim_s"):
            out[name] = sim.get(name, float("nan"))
        return out

    def detail(self) -> dict:
        sim = self.reps[0].sim if self.reps else {}
        out = {k: sim[k] for k in DETAIL if k in sim}
        out["fail_frac"] = (min(len(self.failures), self.attempted)
                            / max(self.attempted, 1))
        if self.hosts:
            out["host_raw_s"] = _median([raw for raw, _ in self.hosts])
            out["setup_raw_s"] = _median([raw for raw, _, _ in self.setups])
        return out

    def per_layer(self) -> dict:
        from tracing import LAYERS, PROC_OWNERS
        rep, _ = self.traced[0]
        c = rep.counts
        tracers = [t for _, t in self.traced]
        traced_host = _median([norm for _, norm in self.traced_hosts])
        host = _median([norm for _, norm in self.hosts])

        def calls(layer):
            return tracers[0].layer_calls[layer]

        def wait(layer, method=""):
            return sum(v for k, v in tracers[0].sim_wait.items()
                       if k.startswith(layer + ".") and k.endswith(method))

        def ratio(num, den):
            return num / den if den else 0.0

        p2p = "mpi.p2p.latency_seconds"
        out = {
            "sim.events": c["sim.events"],
            "sim.events_per_host_s": c["sim.events"] / host,
            "mpi.calls": calls("mpi"),
            "mpi.wait_sim_s": wait("mpi"),
            "mpi.p2p.count": c[p2p + ".count"],
            "mpi.p2p.latency_mean_sim_s":
                ratio(c[p2p + ".sum"], c[p2p + ".count"]),
            "vni.sent": c["vni.sent"], "vni.bytes_sent": c["vni.bytes_sent"],
            "lwg.calls": calls("lwg"),
            "ckpt.checkpoints": c["ckpt.protocol.checkpoints"],
            "ckpt.bytes": c["ckpt.protocol.bytes"],
            "ckpt.sync_sim_s": c["ckpt.protocol.sync_seconds.sum"],
            "repl.dup_ratio": ratio(c["repl.dups_suppressed"],
                                    c["repl.delivered"]),
            "store.writes": c["ckpt.store.writes"],
            "store.reads": c["ckpt.store.reads"],
            "store.bytes_written": c["ckpt.store.bytes_written"],
            "store.write_sim_s": wait("store", ".write"),
            "store.read_sim_s": wait("store", ".read"),
            "daemon.spawns": tracers[0].method_calls["core.AppProcess.start"],
            "core.useful_step_ratio": ratio(
                c["app.steps"], c["app.steps"] + c["app.aborted_steps"]),
            "fleet.admit_wait_p50_sim_s":
                rep.sim.get("admit_wait_p50_sim_s", 0.0),
            "trace.host_s": traced_host,
            "trace.overhead_s": traced_host - host,
        }
        for name in ("net.frames_sent", "net.bytes_sent",
                     "net.frames_dropped", "net.conn.retransmits",
                     "gcs.heartbeats", "gcs.casts", "gcs.p2p",
                     "gcs.delivered", "gcs.rel_retransmits", "gcs.views",
                     "repl.casts", "repl.delivered", "repl.dups_suppressed",
                     "store.replica.bytes", "store.repair.bytes",
                     "daemon.view_changes", "daemon.restarts",
                     "daemon.ranks_restarted", "app.steps",
                     "app.aborted_steps", "fleet.jobs_submitted",
                     "fleet.jobs_admitted", "fleet.jobs_completed",
                     "fleet.jobs_rejected"):
            out[name] = c[name]

        def pct(ns_of):
            return _median([100.0 * ns_of(t) / t.root_ns for t in tracers])

        for layer in LAYERS:
            out[f"{layer}.self_pct"] = pct(
                lambda t: t.self_ns.get(layer, 0))
        for owner in PROC_OWNERS:
            out[f"{owner}.proc_pct"] = pct(
                lambda t: t.self_ns.get(owner + ".proc", 0))
        out["unattributed_pct"] = pct(lambda t: t.unattributed_ns())
        return out


def host_metadata() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "machine": platform.machine()}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload)
    meta = host_metadata()
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} host={meta}")
    try:
        workload.prepare()
    except Exception:
        run.attempted += 1
        run.failures.append("prepare raised:\n" + traceback.format_exc())
    else:
        if args.trace:
            run.measure_traced(args.seconds)
        else:
            run.measure(args.seconds)
    tree = _tree_hash()
    fingerprint = run.check_determinism(OUT_DIR / "fingerprints" / tree)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {}
    if args.trace and run.traced:
        metrics = run.per_layer()
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz"
        run.traced[-1][1].dump(spans)
        print(f"spans of the last traced repetition: {spans}")
    elif not args.trace and run.reps:
        metrics = run.end_to_end()
        for name, value in run.detail().items():
            print(f"  {name:<28} {value:<22.12g} {DETAIL[name]}")
    if metrics and set(metrics) != set(units):
        run.failures.append("metrics differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ set(units))}")
        metrics = {k: v for k, v in metrics.items() if k in units}
    for name, value in metrics.items():
        print(f"  {name:<28} {value:<22.12g} {units[name]}")
    print(f"  reps={len(run.reps)} traced={len(run.traced)} "
          f"setups={len(run.setups)} attempted={run.attempted} "
          f"failures={len(run.failures)}")
    for failure in run.failures:
        print(f"FAILURE: {failure}", file=sys.stderr)

    correct = bool(metrics) and not run.failures
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}"
               f"-trace{args.trace}.json").write_text(json.dumps({
                   "workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "code": tree, "host": meta, "correct": correct,
                   "metrics": metrics, "detail": run.detail(),
                   "host_s": run.hosts, "traced_host_s": run.traced_hosts,
                   "setup_s": run.setups,
                   "speed_probes": run.speed.times,
                   "fingerprint": fingerprint,
                   "failures": run.failures}, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": min(len(run.failures), max(run.attempted, 1)),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process; one table."""
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        saved = json.loads((OUT_DIR / f"result-{name}-seed{args.seed}"
                            f"-trace{args.trace}.json").read_text())
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<28} {m['value']:<22.12g} {m['unit']}")
        if not args.trace:
            for metric, unit in DETAIL.items():
                value = saved["detail"].get(metric)
                shown = "n/a" if value is None else f"{value:.12g}"
                print(f"  {metric:<28} {shown:<22} {unit}")
        if not result["correct"]:
            print(proc.stderr[-2000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
