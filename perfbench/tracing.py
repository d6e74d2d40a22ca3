"""Benchmark-owned tracing: spans around the calls into each layer.

Nothing here touches the program's source.  :meth:`Tracer.install` replaces
public methods of each layer's classes with wrappers that time every call
(plain functions) or every resume (generator functions, the simulated
processes' data path) and restores the originals on :meth:`Tracer.close`.

Accounting.  Every timed region is a frame on one stack: a layer span's
resume, a simulated process body's resume, ``Engine.run``, and the root
frame that covers the whole timed phase.  A frame's self time is its
duration minus that of the frames nested in it, so the self times of all
frames add up to the root frame's duration exactly.  Host time of

* a layer span counts to that layer (``mpi``, ``vni``, ``net``, ...);
* ``Engine.run`` outside any other frame counts to ``sim`` (the kernel's
  dispatch loop, and event callbacks that enter no layer span);
* a simulated process body outside any layer span (a GCS heartbeat loop, a
  daemon's main loop, an application's own computation), and benchmark
  code in the root frame, counts to ``unattributed``.  The process-body
  part is also split by the module that defines the process's generator
  function: ``<layer>.proc`` (``other.proc`` outside the layers).

Spans are recorded per call with their parent span, kept in memory and
written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: Layer -> (class import path, public methods) wrapped for the traced run.
#: Methods are wrapped on the named class and on every subclass that
#: overrides them (C/R protocols and stores specialise ``write``/``read``).
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "sim": [("repro.sim.engine:Engine", ("run",))],
    "mpi": [("repro.mpi.communicator:Communicator",
             ("send", "recv", "sendrecv", "allreduce"))],
    "vni": [("repro.vni.interface:Vni", ("send",))],
    "net": [("repro.net.nic:Nic", ("send",)),
            ("repro.net.fabric:Fabric", ("transmit",)),
            ("repro.net.conn:Connection", ("send",))],
    "gcs": [("repro.gcs.member:GroupMember", ("cast", "send"))],
    "lwg": [("repro.lwg.manager:LwgManager",
             ("create", "join", "leave", "destroy", "cast", "send"))],
    "daemon": [("repro.daemon.daemon:StarfishDaemon",
                ("submit", "request_spawn", "cr_cast", "coord_cast",
                 "heartbeat"))],
    "core": [("repro.core.runtime:AppProcess", ("start",))],
    "ckpt": [("repro.ckpt.protocols.base:CrProtocol",
              ("start", "stop", "deliver", "on_membership_change",
               "request_checkpoint"))],
    "store": [("repro.ckpt.storage:CheckpointStore", ("write", "read"))],
    "fleet": [("repro.fleet.controller:FleetController", ("submit", "step"))],
}

#: Every layer a self time is reported for.
LAYERS = tuple(LAYER_ENTRY_POINTS)
#: Owners of simulated process bodies reported: the layers that run
#: processes, and everything else.
PROC_OWNERS = ("mpi", "vni", "net", "gcs", "daemon", "core", "ckpt",
               "store", "fleet", "other")

SPAN_FIELDS = ("id", "parent", "layer", "name", "host_start_ns",
               "host_end_ns", "self_ns", "sim_start", "sim_end")


def _load(path: str):
    import importlib
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def _with_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Frame stack, per-layer self time, call counts and spans."""

    def __init__(self):
        self.active = False
        self.engine = None
        #: Open frames: [layer, start_ns, child_ns, span_id].
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Calls per wrapped method, e.g. ``"vni.Vni.send"``, every call.
        self.method_calls: Counter = Counter()
        #: Calls that enter a layer from outside it (nested calls within
        #: one layer, such as ``sendrecv`` -> ``recv``, are not counted).
        self.layer_calls: Counter = Counter()
        #: Calls per wrapped method per instance (``id`` of ``self``), and
        #: the instances in the order they were first called.
        self.instance_calls: Dict[str, Counter] = defaultdict(Counter)
        self.instances: Dict[int, Any] = {}
        #: Simulated seconds from first resume to return, per method,
        #: summed over calls that enter the layer from outside it.
        self.sim_wait: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self._restore: List[Tuple[type, str, Any]] = []
        self._owners: Dict[str, str] = {}
        self._next_id = 1
        self.root_ns = 0

    # -- install / remove -------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point and every new simulated process body."""
        for layer, targets in LAYER_ENTRY_POINTS.items():
            for path, methods in targets:
                for cls in _with_subclasses(_load(path)):
                    for name in methods:
                        fn = cls.__dict__.get(name)
                        if fn is None:
                            continue
                        self._patch(cls, name, self._wrap(
                            fn, layer, f"{layer}.{cls.__name__}.{name}"))
        engine_cls = _load("repro.sim.engine:Engine")
        process = engine_cls.process
        tracer = self

        @functools.wraps(process)
        def traced_process(engine, generator, name=None):
            return process(engine, tracer._body(generator),
                           name=name or generator.__name__)

        self._patch(engine_cls, "process", traced_process)
        return self

    def _patch(self, cls, name, new) -> None:
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, new)

    def close(self) -> None:
        """Restore every wrapped method."""
        self.active = False
        for cls, name, old in reversed(self._restore):
            setattr(cls, name, old)
        self._restore.clear()

    # -- the timed phase --------------------------------------------------

    def start(self, engine) -> None:
        """Open the root frame: the timed phase begins."""
        self.engine = engine
        self.active = True
        self._stack.append(["bench", perf_counter_ns(), 0, 0])

    def stop(self) -> None:
        layer, t0, child, _ = self._stack.pop()
        elapsed = perf_counter_ns() - t0
        self.self_ns[layer] += elapsed - child
        self.root_ns = elapsed
        self.active = False
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} trace frames left open")

    # -- frames -------------------------------------------------------------

    def _push(self, layer: str, span_id: int) -> None:
        self._stack.append([layer, perf_counter_ns(), 0, span_id])

    def _pop(self) -> int:
        layer, t0, child, _ = self._stack.pop()
        elapsed = perf_counter_ns() - t0
        self_ns = elapsed - child
        self.self_ns[layer] += self_ns
        if self._stack:
            self._stack[-1][2] += elapsed
        return self_ns

    def _open_span(self, layer: str, name: str, obj):
        parent = self._stack[-1] if self._stack else None
        outer = parent is None or parent[0] != layer
        self.method_calls[name] += 1
        self.instances.setdefault(id(obj), obj)
        self.instance_calls[name][id(obj)] += 1
        if outer:
            self.layer_calls[layer] += 1
        span_id = self._next_id
        self._next_id += 1
        return [span_id, parent[3] if parent else 0, layer, name,
                perf_counter_ns(), 0, 0, self.engine.now, 0.0, outer]

    def _close_span(self, span) -> None:
        if not self.active:      # ended after the phase, e.g. closed by gc
            return
        span[5] = perf_counter_ns()
        span[8] = self.engine.now
        if span[9]:
            self.sim_wait[span[3]] += span[8] - span[7]
        self.spans.append(tuple(span[:9]))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    return (yield from gen)
                span = tracer._open_span(layer, name, args[0])
                try:
                    return (yield from tracer._drive(gen, layer, span))
                finally:
                    tracer._close_span(span)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open_span(layer, name, args[0])
            tracer._push(layer, span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[6] = tracer._pop()
                tracer._close_span(span)
        return traced

    def _drive(self, gen, layer: str, span):
        """Resume ``gen`` like ``yield from`` would, timing each resume."""
        value, exc = None, None
        while True:
            timed = self.active
            if timed:
                self._push(layer, span[0] if span else 0)
            try:
                if exc is not None:
                    event = gen.throw(exc)
                else:
                    event = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if timed:
                    ns = self._pop()
                    if span:
                        span[6] += ns
            try:
                value, exc = (yield event), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:   # delivered into ``gen`` next
                value, exc = None, err

    def _body(self, gen):
        """A simulated process body, owned by its generator's module."""
        return (yield from self._drive(gen, self._owner(gen), None))

    def _owner(self, gen) -> str:
        module = gen.gi_frame.f_globals.get("__name__", "")
        owner = self._owners.get(module)
        if owner is None:
            package = module.split(".")[1] \
                if module.startswith("repro.") else ""
            owner = (package if package in LAYERS else "other") + ".proc"
            self._owners[module] = owner
        return owner

    # -- results ------------------------------------------------------------

    def unattributed_ns(self) -> int:
        """Process bodies outside layer spans, plus the benchmark's own
        code in the root frame."""
        return sum(ns for key, ns in self.self_ns.items()
                   if key.endswith(".proc") or key == "bench")

    def dump(self, path) -> None:
        """Write the spans of the last traced phase (gzip JSON)."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
