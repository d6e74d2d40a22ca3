"""Ablation — lightweight groups vs one full process group per app.

Paper §2.1: "it would have been possible to allocate a separate full blown
process group for each application.  But ... the lightweight group
approach is more efficient."

This bench measures the network cost of (a) the steady-state overhead and
(b) per-application multicast, under the two designs, on an 8-node cluster
hosting an application spanning only 2 nodes:

* **lightweight** (Starfish): the app's casts are sequenced and relayed
  point-to-point among the 2 member daemons only; there is ONE
  heartbeat-bearing group for the whole cluster;
* **full-group-per-app**: a second full process group is created for the
  app — every multicast costs a full Ensemble round among its members,
  and the group adds its own heartbeat/membership traffic for as long as
  the application lives.
"""

import pytest

from repro.cluster import Cluster
from repro.gcs import GcsConfig, GroupMember
from repro.lwg import LwgManager

from bench_helpers import fast_or, print_table

N_NODES = 8
APP_SPAN = 2
N_CASTS = fast_or(10, 50)
WINDOW = fast_or(5.0, 10.0)      # seconds of steady state measured


def build_main_group(cluster, cfg):
    members = []
    for i in range(N_NODES):
        gm = GroupMember(cluster.engine, cluster.node(f"n{i}"), config=cfg)
        members.append(gm)
    members[0].start()
    for gm in members[1:]:
        gm.start(contact=members[0].endpoint)
    cluster.engine.run(until=cluster.engine.now + 3.0)
    return members


def drain(members, lwgs=None):
    for gm in members:
        gm.events.drain() if hasattr(gm.events, "drain") else None


def eth_frames(cluster) -> int:
    """Frames handed to the Ethernet so far (the control fabric)."""
    return int(cluster.engine.metrics.sum("net.frames_sent",
                                          fabric="tcp-ethernet"))


def run_lightweight():
    cfg = GcsConfig(heartbeat_period=0.25, suspect_timeout=2.0)
    cluster = Cluster.build(nodes=N_NODES)
    members = build_main_group(cluster, cfg)
    lwgs = [LwgManager(cluster.engine, gm) for gm in members]
    for i, gm in enumerate(members):
        def pump(gm=gm, mgr=lwgs[i]):
            while True:
                ev = yield gm.events.get()
                mgr.on_main_event(ev)
        cluster.node(f"n{i}").spawn(pump())
    lwgs[0].create("app", [members[0].endpoint, members[1].endpoint])
    cluster.engine.run(until=cluster.engine.now + 1.0)

    base = eth_frames(cluster)
    for k in range(N_CASTS):
        lwgs[0].cast("app", ("payload", k))
    cluster.engine.run(until=cluster.engine.now + 2.0)
    cast_frames = eth_frames(cluster) - base

    base = eth_frames(cluster)
    cluster.engine.run(until=cluster.engine.now + WINDOW)
    idle_frames = eth_frames(cluster) - base
    return cast_frames, idle_frames


def run_full_group():
    cfg = GcsConfig(heartbeat_period=0.25, suspect_timeout=2.0)
    cluster = Cluster.build(nodes=N_NODES)
    members = build_main_group(cluster, cfg)
    # A dedicated, full process group for the 2-node application.
    app_members = [GroupMember(cluster.engine, cluster.node(f"n{i}"),
                               name="appgrp", group="app", config=cfg)
                   for i in range(APP_SPAN)]
    app_members[0].start()
    app_members[1].start(contact=app_members[0].endpoint)
    cluster.engine.run(until=cluster.engine.now + 2.0)

    base = eth_frames(cluster)
    for k in range(N_CASTS):
        app_members[0].cast(("payload", k))
    cluster.engine.run(until=cluster.engine.now + 2.0)
    cast_frames = eth_frames(cluster) - base

    base = eth_frames(cluster)
    cluster.engine.run(until=cluster.engine.now + WINDOW)
    idle_frames = eth_frames(cluster) - base
    return cast_frames, idle_frames


def run_ablation():
    return run_lightweight(), run_full_group()


def test_ablation_lightweight_groups(benchmark):
    (lw_cast, lw_idle), (fg_cast, fg_idle) = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1)
    print_table(
        f"Lightweight vs full group ({N_NODES}-node cluster, "
        f"{APP_SPAN}-node app)",
        ["design", f"frames for {N_CASTS} casts",
         f"idle frames per {WINDOW:.0f}s"],
        [["lightweight group (Starfish)", lw_cast, lw_idle],
         ["full process group per app", fg_cast, fg_idle]])
    extra_per_app = fg_idle - lw_idle
    print(f"\nextra steady-state frames per app per {WINDOW:.0f}s under the "
          f"full-group design: {extra_per_app} "
          f"(x N_apps on a shared cluster)")
    benchmark.extra_info.update(lw_cast=lw_cast, lw_idle=lw_idle,
                                fg_cast=fg_cast, fg_idle=fg_idle)
    # The full-group design pays extra steady-state traffic (a second
    # failure-detection/membership layer) for EVERY application, while
    # lightweight groups add none; the gap scales with the number of
    # applications sharing the cluster.
    assert extra_per_app >= WINDOW / 0.25  # at least its own heartbeats
    # Cast traffic is in the same ballpark (both sequencer-relayed among
    # 2 members) — the lightweight design wins on overheads, not per-cast.
    assert lw_cast <= fg_cast * 1.5
