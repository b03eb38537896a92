"""Live workload: a real memory-node process driven over loopback sockets.

One memory-node server process (spawned by ``RealClusterHarness``) and one
load process (this one) running ``DittoClient``s on a single asyncio loop,
both pinned to one CPU (see :func:`run`).  Clients run closed loops: each
sends its next op only after the previous one completed.  A missed Get is
filled cache-aside (the Get's latency includes the fill Set).  Values
encode their key id, so every Get hit is checked against the bytes written
for that key.

``live-churn``: 50% Get, Zipf 0.99 over 16 000 keys, two clients on one
loop, 1 024-object cache, no preload; a warm-up fills the cache before
the measured window, which then evicts constantly.
"""

from __future__ import annotations

import asyncio
import cProfile
import glob
import itertools
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.client import CacheOperationError
from repro.rdma.verbs import RdmaFaultError
from repro.runtime import RealCluster, RealClusterHarness, drive, wire
from repro.runtime.client import Connection
from repro.workloads import ZipfianGenerator

from .common import (Outcome, median, out_path, overhead, pct, steal_share,
                     steal_ticks)
from .layers import VERBS
from .tracing import SpanRecorder, TracedCluster, profile_groups

VALUE_BYTES = 232
OBJECT_BYTES = 256
THETA = 0.99
#: Ops drawn per client up front (cycled if a run outlasts them).
STREAM_LEN = 1 << 16
#: Full set-ups per run; setup_s is their median.
SETUPS = 5
#: Load run before each measured window, so the cache is full and the
#: window sees steady eviction (about 1.5 s fills 1 024 objects).
WARM_S = 3.0
PINGS = 200
#: The measured window is cut into slices this long (see quiet_slices).
SLICE_S = 0.2

CONFIGS = {
    "live-churn": dict(clients=2, capacity=1024, keys=16000, read_ratio=0.5),
}

_COUNTERS = ("rdma_read", "rdma_write", "rdma_cas", "rdma_faa", "rdma_rpc")
_RETRIES = {
    "client.resends": "conn_resend",
    "client.verb_timeouts": "fault_verb_timeout",
    "client.cas_fate_resolved": "cas_fate_resolved",
    "client.breaker_trips": "breaker_trip",
}


def value_for(key_id: int) -> bytes:
    """The value stored under ``key_id``: the id, repeated, 232 bytes."""
    return (b"%07d;" % key_id * (VALUE_BYTES // 8 + 1))[:VALUE_BYTES]


@dataclass
class Streams:
    """Per-client op streams: key ids and Get/Set flags, drawn in blocks.

    ``pos`` is each client's next op: a measured window continues the
    stream where the warm-up left it, so it does not replay keys the
    warm-up has just cached.
    """

    keys: List[np.ndarray]
    reads: List[np.ndarray]
    gen_s: float
    pos: List[int]


def make_streams(cfg: Dict, seed: int) -> Streams:
    t0 = time.perf_counter()
    keys, reads = [], []
    for index in range(cfg["clients"]):
        stream_seed = seed * 1_000_003 + index
        keys.append(ZipfianGenerator(cfg["keys"], theta=THETA,
                                     seed=stream_seed).sample(STREAM_LEN))
        draws = np.random.default_rng(stream_seed + 1).random(STREAM_LEN)
        reads.append(draws < cfg["read_ratio"])
    return Streams(keys, reads, time.perf_counter() - t0,
                   [0] * cfg["clients"])


@dataclass
class Deployment:
    harness: RealClusterHarness
    cluster: RealCluster
    setup_s: float


@dataclass
class Pass:
    """One measured window on one deployment."""

    ops: int = 0
    gets: int = 0
    hits: int = 0
    wrong: int = 0
    failed: int = 0
    get_us: List[float] = field(default_factory=list)
    set_us: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    evictions: int = 0
    regrets: int = 0
    lags_us: List[float] = field(default_factory=list)
    #: Completion times (perf_counter seconds) of the Gets and the Sets.
    get_at: List[float] = field(default_factory=list)
    set_at: List[float] = field(default_factory=list)
    #: (perf_counter seconds, host steal ticks) at every slice edge.
    marks: List[tuple] = field(default_factory=list)


class RunState:
    """Failed output checks and launched harnesses of one run."""

    def __init__(self) -> None:
        #: CPUs this run may use, read before the run pins itself to one.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.problems: List[str] = []
        self.retries: Dict[str, int] = {name: 0 for name in _RETRIES}
        #: Harnesses launched and not yet torn down (stopped on any error).
        self.owned: List[RealClusterHarness] = []

    def leaks(self, harness: RealClusterHarness) -> None:
        report = harness.leak_report()
        if not report["clean"]:
            self.problems.append(f"leak report not clean: {report}")
        left = glob.glob(f"/dev/shm/ditto-{harness.run_id}-*")
        if left:
            self.problems.append(f"leftover shared-memory segments: {left}")


async def setup(cfg: Dict, seed: int, state: RunState,
                recorder: Optional[SpanRecorder] = None) -> Deployment:
    """Launch the memory node and connect every client."""
    t0 = time.perf_counter()
    harness = RealClusterHarness(
        capacity_objects=cfg["capacity"], object_bytes=OBJECT_BYTES,
        num_clients=cfg["clients"], num_memory_nodes=1, seed=seed,
    )
    state.owned.append(harness)
    descriptor = harness.launch()
    t1 = time.perf_counter()
    if recorder is not None:
        recorder.add("launch", "phase", t0, t1)
        cluster = TracedCluster(descriptor, recorder)
    else:
        cluster = RealCluster(descriptor)
    clients = cluster.add_clients(cfg["clients"])
    # A Get of a key the workload never uses opens each connection.
    for client in clients:
        await drive(client.get(b"connect"))
    t2 = time.perf_counter()
    if recorder is not None:
        recorder.add("connect", "phase", t1, t2)
    return Deployment(harness, cluster, t2 - t0)


async def teardown(dep: Deployment, state: RunState) -> float:
    """Close clients, stop the node, check for leaks; returns the wall
    seconds of the deployment's set-up and teardown, without whatever ran
    between them."""
    t0 = time.perf_counter()
    try:
        counters = dep.cluster.counters.as_dict()
        for name, key in _RETRIES.items():
            state.retries[name] += counters.get(key, 0)
        await dep.cluster.aclose()
    finally:
        dep.harness.shutdown()
        state.owned.remove(dep.harness)
        state.leaks(dep.harness)
        dep.harness.unlink_leaked()
    return dep.setup_s + time.perf_counter() - t0


async def _client_loop(client, keys: np.ndarray, reads: np.ndarray,
                       key_bytes: List[bytes], values: List[bytes],
                       start: int, deadline: float, out: Pass,
                       recorder: Optional[SpanRecorder], op_ids) -> int:
    """Run ops from stream position ``start`` until ``deadline``; returns
    the position after the last op."""
    n = len(keys)
    get_us, set_us = out.get_us, out.set_us
    get_at, set_at = out.get_at, out.set_at
    ep = client.ep
    lane = ep.lane if recorder is not None else 0
    i = start
    perf = time.perf_counter
    while perf() < deadline:
        key_id = int(keys[i % n])
        is_read = bool(reads[i % n])
        i += 1
        key = key_bytes[key_id]
        value = values[key_id]
        op_id = 0
        if recorder is not None:
            op_id = next(op_ids)
            ep.op_id = op_id
        t0 = perf()
        try:
            if is_read:
                got = await drive(client.get(key))
                if got is None:
                    await drive(client.set(key, value))
                elif got == value:
                    out.hits += 1
                else:
                    out.wrong += 1
            else:
                await drive(client.set(key, value))
        except (CacheOperationError, RdmaFaultError):
            out.failed += 1
            continue
        finally:
            out.ops += 1
            out.gets += is_read
        t1 = perf()
        if is_read:
            get_us.append((t1 - t0) * 1e6)
            get_at.append(t1)
        else:
            set_us.append((t1 - t0) * 1e6)
            set_at.append(t1)
        if recorder is not None:
            recorder.add("op.get" if is_read else "op.set", "op", t0, t1,
                         lane, {"op": op_id})
    return i


async def _ticker(stop: asyncio.Event, lags: List[float]) -> None:
    """Loop-lag probe: how late a 1 ms sleep wakes up."""
    while not stop.is_set():
        t0 = time.perf_counter()
        await asyncio.sleep(0.001)
        lags.append((time.perf_counter() - t0 - 0.001) * 1e6)


async def _slice_edges(deadline: float, marks: List[tuple]) -> None:
    marks.append((time.perf_counter(), steal_ticks()))
    while time.perf_counter() < deadline:
        await asyncio.sleep(min(SLICE_S, deadline - time.perf_counter()))
        marks.append((time.perf_counter(), steal_ticks()))


def quiet_slices(marks: List[tuple]) -> List[tuple]:
    """Slices whose steal rate is at or below the median slice's.

    On a shared host, other guests can take a third of the CPU for a
    second at a time, which moves the tail latency of a run by several
    times and its throughput by far more than a change to the program
    would.  The end-to-end metrics of a live run are taken over the slices
    that lost least; when nothing is stolen every slice qualifies.
    """
    spans = [(a, b, (sb - sa) / (b - a))
             for (a, sa), (b, sb) in zip(marks, marks[1:]) if b > a]
    cut = median([rate for _a, _b, rate in spans])
    return [(a, b) for a, b, rate in spans if rate <= cut]


def _in_slices(at: List[float], slices: List[tuple]) -> np.ndarray:
    at = np.asarray(at, dtype=np.float64)
    keep = np.zeros(at.shape, dtype=bool)
    for a, b in slices:
        keep |= (at >= a) & (at < b)
    return keep


async def measure(dep: Deployment, cfg: Dict, streams: Streams,
                  seconds: float, recorder: Optional[SpanRecorder] = None
                  ) -> Pass:
    """Run every client's closed loop for ``seconds`` of wall time."""
    out = Pass()
    cluster = dep.cluster
    key_bytes = [b"key-%d" % k for k in range(cfg["keys"])]
    values = [value_for(k) for k in range(cfg["keys"])]
    before = cluster.counters.as_dict()
    ev0 = sum(c.evictions for c in cluster.clients)
    rg0 = sum(c.regrets for c in cluster.clients)
    op_ids = itertools.count(1)
    stop = asyncio.Event()
    ticker = (asyncio.ensure_future(_ticker(stop, out.lags_us))
              if recorder is not None else None)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    _edges, *streams.pos = await asyncio.gather(
        _slice_edges(deadline, out.marks), *(
            _client_loop(client, streams.keys[i], streams.reads[i],
                         key_bytes, values, streams.pos[i], deadline, out,
                         recorder, op_ids)
            for i, client in enumerate(cluster.clients)
        ))
    t1 = time.perf_counter()
    # The last ops finish after the deadline: close the final slice.
    out.marks.append((t1 + 1e-6, steal_ticks()))
    if ticker is not None:
        stop.set()
        await ticker
        recorder.add("measure", "phase", t0, t1)
    after = cluster.counters.as_dict()
    out.counters = {k: after.get(k, 0) - before.get(k, 0) for k in _COUNTERS}
    out.evictions = sum(c.evictions for c in cluster.clients) - ev0
    out.regrets = sum(c.regrets for c in cluster.clients) - rg0
    return out


async def warm(dep: Deployment, cfg: Dict, streams: Streams,
               recorder: Optional[SpanRecorder] = None) -> Pass:
    """Fill the cache; the warm-up's Gets are checked but not timed."""
    t0 = time.perf_counter()
    p = await measure(dep, cfg, streams, WARM_S)
    if recorder is not None:
        recorder.add("warm", "phase", t0, time.perf_counter())
    return p


def e2e_of(p: Pass, setup_s: float, wall_s: float
           ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metrics over the quiet slices, and their sample counts."""
    slices = quiet_slices(p.marks)
    gets = np.asarray(p.get_us)[_in_slices(p.get_at, slices)]
    sets = np.asarray(p.set_us)[_in_slices(p.set_at, slices)]
    samples = {"get": len(gets), "set": len(sets), "slices": len(slices),
               "of_slices": len(p.marks) - 1}
    return {
        "ops_per_s": (len(gets) + len(sets)) / sum(b - a for a, b in slices),
        "get_p50_us": pct(gets, 50),
        "get_p95_us": pct(gets, 95),
        "set_mean_us": float(np.mean(sets)) if len(sets) else 0.0,
        "set_p95_us": pct(sets, 95),
        "hit_rate": p.hits / p.gets if p.gets else 0.0,
        "setup_s": setup_s,
        "wall_s": wall_s,
    }, samples


def _cpu_ticks(pid: int) -> int:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


async def _ping_p50(dep: Deployment) -> float:
    """Raw OP_PING round trips on a fresh connection, before any load."""
    entry = dep.harness.node_entries[0]
    reader, writer = await asyncio.open_connection(entry["host"],
                                                   entry["port"])
    conn = Connection(reader, writer)
    samples = []
    try:
        for _ in range(PINGS):
            t0 = time.perf_counter()
            await conn.request(wire.OP_PING, b"", 5.0)
            samples.append((time.perf_counter() - t0) * 1e6)
    finally:
        await conn.close()
    return pct(samples, 50)


def _server_stats(dep: Deployment) -> Dict:
    return dep.harness.raw_rpc(dep.harness.node_entries[0], "__stats__", None)


def _untraced_layers(p: Pass, cpu0, cpu1, srv0, srv1,
                     frames: int) -> Dict[str, float]:
    ops = max(p.ops, 1)
    tick_us = 1e6 / os.sysconf("SC_CLK_TCK")
    layers = {
        "client.cpu_us_per_op": (cpu1.ru_utime - cpu0.ru_utime) * 1e6 / ops,
        "client.sys_us_per_op": (cpu1.ru_stime - cpu0.ru_stime) * 1e6 / ops,
        "server.cpu_us_per_op": (srv1 - srv0) * tick_us / ops,
        "server.frames_per_op": frames / ops,
        "cache.evictions_per_kop": p.evictions * 1e3 / ops,
        "cache.regrets_per_kop": p.regrets * 1e3 / ops,
    }
    for verb in VERBS:
        layers[f"verbs.{verb}_per_op"] = p.counters[f"rdma_{verb}"] / ops
    return layers


def _traced_layers(recorder: SpanRecorder, p: Pass, stats: Dict
                   ) -> Dict[str, float]:
    spans = recorder.by_name("verb.")
    service = {
        row["labels"]["verb"]: row
        for row in (stats.get("metrics") or {}).get("histograms", ())
        if row["name"] == "verb.service_us"
    }
    layers: Dict[str, float] = {}
    gap_us, n_verbs, verb_us = 0.0, 0, 0.0
    for verb in VERBS:
        durations = spans.get(f"verb.{verb}", [])
        layers[f"verb.{verb}_us_p50"] = pct(durations, 50)
        row = service.get(verb)
        layers[f"server.service_us.{verb}"] = row["p50"] if row else 0.0
        if durations:
            svc_mean = row["mean"] if row and row["count"] else 0.0
            gap_us += sum(durations) - svc_mean * len(durations)
            n_verbs += len(durations)
            verb_us += sum(durations)
    op_us = sum(sum(v) for v in recorder.by_name("op.").values())
    layers["transport.us_per_verb"] = gap_us / n_verbs if n_verbs else 0.0
    layers["client.self_us_per_op"] = (op_us - verb_us) / max(p.ops, 1)
    layers["loop.lag_us_p99"] = pct(p.lags_us, 99)
    return layers


async def _run(name: str, seed: int, seconds: float, trace: bool,
               root: str, state: RunState) -> Outcome:
    cfg = CONFIGS[name]
    streams = make_streams(cfg, seed)
    if not trace:
        setups, lifecycles = [], []
        for index in range(SETUPS):
            dep = await setup(cfg, seed, state)
            setups.append(dep.setup_s)
            if index < SETUPS - 1:
                lifecycles.append(await teardown(dep, state))
        w = await warm(dep, cfg, streams)
        p = await measure(dep, cfg, streams, seconds)
        lifecycles.append(await teardown(dep, state))
        return _outcome(e2e_of(p, median(setups), median(lifecycles)),
                        state, [w, p])

    third = seconds / 3
    # Untraced pass: the baseline for the overhead rows, plus the
    # counter, getrusage and /proc figures that tracing would inflate.
    dep = await setup(cfg, seed, state)
    ping = await _ping_p50(dep)
    w_u = await warm(dep, cfg, streams)
    srv_pid = dep.harness.procs[0].pid
    frames0 = _server_stats(dep)["ops_served"]
    cpu0, srv0 = resource.getrusage(resource.RUSAGE_SELF), _cpu_ticks(srv_pid)
    p_u = await measure(dep, cfg, streams, third)
    cpu1, srv1 = resource.getrusage(resource.RUSAGE_SELF), _cpu_ticks(srv_pid)
    frames = _server_stats(dep)["ops_served"] - frames0 - 1
    layers = _untraced_layers(p_u, cpu0, cpu1, srv0, srv1, frames)
    layers["net.ping_us_p50"] = ping
    layers["gen_s"] = streams.gen_s
    (t0, s0), (t1, s1) = p_u.marks[0], p_u.marks[-1]
    layers["host.steal_share"] = steal_share(s1 - s0, t1 - t0)
    e2e_u = e2e_of(p_u, dep.setup_s, await teardown(dep, state))

    # Traced pass: spans per phase, op and foreground verb; server
    # service histograms armed through __stats_arm__.
    recorder = SpanRecorder()
    dep = await setup(cfg, seed, state, recorder)
    w_t = await warm(dep, cfg, streams, recorder)
    dep.harness.raw_rpc(dep.harness.node_entries[0], "__stats_arm__", None)
    p_t = await measure(dep, cfg, streams, third, recorder)
    layers.update(_traced_layers(recorder, p_t, _server_stats(dep)))
    e2e_t, _ = e2e_of(p_t, dep.setup_s, await teardown(dep, state))
    layers.update(overhead(e2e_t, e2e_u[0]))

    # Profiled pass: cProfile around the measured window only.
    dep = await setup(cfg, seed, state)
    w_p = await warm(dep, cfg, streams)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        p_p = await measure(dep, cfg, streams, third)
    finally:
        profiler.disable()
    await teardown(dep, state)
    groups, _stats = profile_groups(profiler)
    layers.update({f"self_s.{g}": s for g, s in groups.items()})
    layers.update(state.retries)

    outcome = _outcome(e2e_u, state, [w_u, p_u, w_t, p_t, w_p, p_p])
    outcome.layers = layers
    outcome.trace_path = out_path(root, f"{name}-seed{seed}.trace.json")
    recorder.export(outcome.trace_path)
    return outcome


def _outcome(e2e: Tuple[Dict[str, float], Dict[str, int]], state: RunState,
             passes: List[Pass]) -> Outcome:
    wrong = sum(x.wrong for x in passes)
    problems = list(state.problems)
    if wrong:
        problems.append(f"{wrong} Get hits returned bytes other than the "
                        "value written for their key")
    metrics, samples = e2e
    return Outcome(
        e2e=metrics,
        attempted=sum(x.ops for x in passes),
        failed=sum(x.failed for x in passes) + wrong,
        samples=samples,
        problems=problems,
    )


def run(name: str, seed: int, seconds: float, trace: bool, root: str
        ) -> Outcome:
    state = RunState()
    # The load process and every memory node it launches (children inherit
    # the mask) share one CPU.  Split across the two vCPUs of a shared
    # virtual machine, every verb waits for the other vCPU to be woken, which
    # costs milliseconds whenever the host is busy: Get p99 then spread from
    # 3 to 11 ms over six runs, against 0.86 to 1.02 ms on one CPU.
    os.sched_setaffinity(0, state.cpus[:1])
    try:
        return asyncio.run(_run(name, seed, seconds, trace, root, state))
    finally:
        for harness in state.owned:
            harness.shutdown()
            harness.unlink_leaked()
        os.sched_setaffinity(0, state.cpus)
