"""Print the CI smoke matrix: one cell per exercised (campaign, protocol) pair.

Cells are enumerated from the ``CAMPAIGNS`` and ``PROTOCOLS`` registries,
so every campaign/protocol name is checked against the code: a pair in
``RUNS`` that a registry no longer knows fails the plan instead of
silently leaving CI.  Each cell's ``runs`` are ``python -m repro``
argument lines.

Run:  PYTHONPATH=src python .github/smoke_matrix.py
"""

import json
import sys

from repro.ckpt.protocols import PROTOCOLS
from repro.faults.campaigns import CAMPAIGNS


def chaos(seed: int) -> str:
    return f"chaos --seed {seed} --policy restart"


#: (campaign, protocol) -> chaos/check runs for that pair.
RUNS = {
    **{("standard", p): [chaos(7)] for p in (
        "stop-and-sync", "chandy-lamport", "uncoordinated", "diskless",
        "sender-logging", "replication")},
    ("blackout", "stop-and-sync"): [chaos(0)],
    **{("store-crash-burst", p): [chaos(3)] for p in (
        "stop-and-sync", "chandy-lamport", "uncoordinated")},
    ("store-crash-burst", "diskless"): [chaos(3), "check --seeds 5"],
    **{("tier-failover", p): [chaos(3)] for p in (
        "stop-and-sync", "chandy-lamport", "uncoordinated", "diskless",
        "sender-logging", "causal-logging")},
    **{("solo-crash", p): [chaos(7), "check --seeds 5"] for p in (
        "sender-logging", "causal-logging")},
    ("replica-failover", "replication"): [
        chaos(7), "check --seeds 20", "check --seeds 5 --jitter 1e-6"],
    ("fleet-churn", "stop-and-sync"): [chaos(7)],
    ("crash-recover", "stop-and-sync"): [
        "check --seeds 5", "check --seeds 3 --jitter 1e-6"],
    ("crash-recover", "chandy-lamport"): ["check --seeds 5"],
    ("partition-flap", "uncoordinated"): ["check --seeds 5"],
    ("partition-flap", "diskless"): ["check --replay 4"],
}

#: Whole-cluster CLI surfaces, run in the cell of the pair they belong to.
EXTRA = {
    ("store-crash-burst", "stop-and-sync"): [
        "store --nodes 5 --k 2 --seed 3 --crash"],
    ("tier-failover", "stop-and-sync"): [
        "store --nodes 5 --k 2 --seed 3 --tiers memory,disk,fabric "
        "--delta-depth 3 --crash tiers"],
    ("fleet-churn", "stop-and-sync"): [
        "fleet churn --nodes 16 --seeds 20",
        "fleet serve --self-test"],
}


def matrix() -> list:
    known = {(c, p) for c in CAMPAIGNS for p in PROTOCOLS}
    unknown = sorted((set(RUNS) | set(EXTRA)) - known)
    if unknown:
        sys.exit(f"smoke pairs not in the CAMPAIGNS x PROTOCOLS "
                 f"registries: {unknown}")
    return [{"campaign": c, "protocol": p,
             "runs": [f"{run} --campaign {c} --protocol {p}"
                      for run in RUNS.get((c, p), [])]
             + EXTRA.get((c, p), [])}
            for c in CAMPAIGNS for p in PROTOCOLS
            if (c, p) in RUNS or (c, p) in EXTRA]


if __name__ == "__main__":
    print(json.dumps(matrix()))
