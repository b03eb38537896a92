"""The per-layer split: which metric belongs to which layer, and what it moves.

``BENCHMARK.json`` holds every metric's name and unit; this table adds the
layer (a module of ``src/repro``), the end-to-end metric and workload the
layer metric is predicted to move (every other workload is predicted not
to move), and whether the value is an exact count that repeats run to run
for a seed or a measured time/rate that has spread.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

VERBS = ("read", "write", "cas", "faa", "rpc")
SYSTEMS = ("ditto", "ditto-lru", "ditto-lfu")
TRACES = ("webmail", "ibm", "cloudphysics", "twitter-transient",
          "twitter-storage")
#: cProfile self time is reported per group; anything unmatched is "other".
PROFILE_GROUPS = (
    "repro.core", "repro.runtime", "repro.rdma", "repro.memory", "repro.sim",
    "repro.workloads", "repro.cachesim", "repro.obs", "repro.bench",
    "asyncio", "socket", "poll", "numpy", "other",
)
E2E = ("ops_per_s", "get_p50_us", "get_p95_us", "set_mean_us", "set_p95_us",
       "hit_rate", "setup_s", "wall_s")

#: (layer, predicted move, metric names) in report order.
LAYERS: List[Tuple[str, str, List[str]]] = [
    (
        "runtime.client + runtime.wire + asyncio (load process)",
        "ops_per_s, get_p50_us, get_p95_us -> live-churn",
        ["client.cpu_us_per_op", "client.sys_us_per_op", "net.ping_us_p50"]
        + [f"verb.{v}_us_p50" for v in VERBS]
        + ["transport.us_per_verb", "loop.lag_us_p99"],
    ),
    (
        "runtime.client retries",
        "error rate (the run's failed count) -> live-churn, expected 0",
        ["client.resends", "client.verb_timeouts", "client.cas_fate_resolved",
         "client.breaker_trips"],
    ),
    (
        "runtime.server (memory-node process)",
        "ops_per_s, get_p50_us -> live-churn",
        ["server.cpu_us_per_op", "server.frames_per_op"]
        + [f"server.service_us.{v}" for v in VERBS],
    ),
    (
        "core.client + core.cache",
        "get_p50_us, set_mean_us, hit_rate -> live-churn; wall_s -> sim-ycsb",
        [f"verbs.{v}_per_op" for v in VERBS]
        + ["cache.evictions_per_kop", "cache.regrets_per_kop",
           "client.self_us_per_op"],
    ),
    (
        "workloads (request and trace generation)",
        "setup_s, wall_s -> sim-ycsb (YCSB-D); ~0 on live-churn",
        ["gen_s"],
    ),
    (
        "sim engine + rdma.verbs",
        "wall_s -> sim-ycsb",
        ["preload_s", "pump_s", "pump.sim_ops_per_s", "sim.ops", "sim.mops",
         "events"],
    ),
    (
        "cachesim",
        "wall_s, get_p50_us, set_mean_us, hit_rate -> sim-replay",
        [f"replay_s.{s}" for s in SYSTEMS]
        + ["replay.accesses_per_s", "replay.fastpath_share"]
        + [f"hit_rate.{t}" for t in TRACES],
    ),
    (
        "all layers, cProfile self time of the measured phase",
        "locates a saving claimed on any row above",
        [f"self_s.{g}" for g in PROFILE_GROUPS],
    ),
    (
        "host: CPU time other guests of the machine took (/proc/stat steal)",
        "none: explains spread in every e2e metric",
        ["host.steal_share"],
    ),
    (
        "tracing overhead (traced minus untraced pass)",
        "none: the cost of the traced run itself",
        [f"overhead.{m}" for m in E2E],
    ),
]

#: Metrics that repeat exactly for a seed (reported as counts, not speeds).
#: Verb and eviction counts per op repeat only on the sim: a live pass ends
#: after a fixed time, so its op count, and with two clients on one loop
#: its interleaving, differ from run to run.
EXACT = {
    "sim.ops", "sim.mops", "events", "hit_rate.webmail", "hit_rate.ibm",
    "hit_rate.cloudphysics", "hit_rate.twitter-transient",
    "hit_rate.twitter-storage", "client.resends", "client.verb_timeouts",
    "client.cas_fate_resolved", "client.breaker_trips",
    "replay.fastpath_share",
}
EXACT_ON_SIM = {f"verbs.{v}_per_op" for v in VERBS} | {
    "cache.evictions_per_kop", "cache.regrets_per_kop",
}


def all_names() -> List[str]:
    return [name for _layer, _moves, names in LAYERS for name in names]


def kind(name: str, workload: str) -> str:
    if name in EXACT:
        return "count"
    if name in EXACT_ON_SIM and workload.startswith("sim-"):
        return "count"
    return "measured"


def layer_of() -> Dict[str, Tuple[str, str]]:
    return {name: (layer, moves) for layer, moves, names in LAYERS
            for name in names}
