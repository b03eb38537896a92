"""Simulator workloads: the discrete-event Ditto cluster and the cachesim tier.

``sim-ycsb``: a 1-MN simulated cluster with 64 clients and fig14's
quick-scale 5 000 preloaded keys runs a YCSB-A phase, then a YCSB-D phase,
each with a warm window and a measured window.  Latencies are the
simulated cluster's (simulated µs) in the YCSB-A window, the phase with
both Gets and Sets; speeds are host wall time.

``sim-replay``: the fig17 protocol at one cache size — the five catalog
traces replayed through ``ditto``, ``ditto-lru`` and ``ditto-lfu`` at 10%
of each trace's footprint.  Every replayed access is a Get, so ``get_*`` is
host µs per trace access.  After each trace, a stream of keys the trace
never used is replayed into the same warm cache: every access misses and
is filled (insert, eviction, regret), so ``set_*`` is host µs per fill.
Both are taken over one unit's fifteen replays: the mean, or a percentile
across the (trace, system) pairs (p95 is near the slowest pair), not a
per-access tail.

Both repeat a *unit* (set-up plus the whole protocol, with a per-unit seed)
until the run's seconds are used, and report medians over units.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bench.hitrate import make_hit_cache, replay
from repro.bench.runner import Feed, Harness, preload
from repro.bench.systems import build_ditto
from repro.core import invariants
from repro.sim import LatencyStats
from repro.workloads import WORKLOAD_CATALOG, footprint, make_ycsb

from .common import (Outcome, median, out_path, overhead, pct, steal_share,
                     steal_ticks)
from .layers import SYSTEMS, TRACES, VERBS
from .tracing import SpanRecorder, call_count, profile_groups

# sim-ycsb shape.
N_KEYS = 5_000
CLIENTS = 64
VALUE_BYTES = 232
REQUESTS_PER_CLIENT = 2_000
WARM_US = 1_000.0
WINDOW_US = 2_500.0
PHASES = ("A", "D")

# sim-replay shape.
TRACE_REQUESTS = 80_000
SIZE_FRAC = 0.1
#: Fresh keys replayed into each warm cache after its trace: all misses.
FILL_REQUESTS = 4_096
#: Trace prefix replayed key by key to cross-check the batched replay.
CROSSCHECK_REQUESTS = 8_192

#: Units per run at least, whatever the seconds (setup_s is their median).
MIN_UNITS = 3

_COUNTERS = tuple(f"rdma_{verb}" for verb in VERBS)


class _NoSpans:
    """Stand-in recorder for untraced units: phases cost nothing."""

    @staticmethod
    def phase(name, **args):
        return nullcontext()


@dataclass
class YcsbUnit:
    gen_s: float = 0.0
    build_s: float = 0.0
    preload_s: float = 0.0
    pump_s: float = 0.0
    measure_s: float = 0.0
    wall_s: float = 0.0
    ops: int = 0
    sim_us: float = 0.0
    hits: int = 0
    misses: int = 0
    get: LatencyStats = field(default_factory=LatencyStats)
    put: LatencyStats = field(default_factory=LatencyStats)
    verbs: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_COUNTERS, 0))
    evictions: int = 0
    regrets: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.build_s + self.preload_s + self.gen_s

    @property
    def attempted(self) -> int:
        return self.ops

    def e2e(self) -> Dict[str, float]:
        return {
            "ops_per_s": self.ops / self.measure_s,
            "get_p50_us": self.get.percentile(50),
            "get_p95_us": self.get.percentile(95),
            "set_mean_us": self.put.mean(),
            "set_p95_us": self.put.percentile(95),
            "hit_rate": self.hits / (self.hits + self.misses),
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
        }


def ycsb_unit(seed: int, spans=None) -> YcsbUnit:
    """Build, preload, generate, then run the A and D phases."""
    spans = spans or _NoSpans()
    unit = YcsbUnit()
    t_unit = time.perf_counter()
    with spans.phase("setup"):
        t0 = time.perf_counter()
        with spans.phase("build"):
            cluster = build_ditto(2 * N_KEYS, CLIENTS, seed=seed)
        t1 = time.perf_counter()
        with spans.phase("preload"):
            preload(cluster.engine, cluster.clients, range(N_KEYS),
                    value_size=VALUE_BYTES)
        t2 = time.perf_counter()
        with spans.phase("gen"):
            feeds = {
                phase: [
                    Feed.from_requests(make_ycsb(
                        phase, n_keys=N_KEYS, seed=seed * 1_000 + 2 * i + k,
                        client_id=i,
                    ).requests(REQUESTS_PER_CLIENT))
                    for i in range(CLIENTS)
                ]
                for k, phase in enumerate(PHASES)
            }
        t3 = time.perf_counter()
    unit.build_s, unit.preload_s, unit.gen_s = t1 - t0, t2 - t1, t3 - t2
    engine = cluster.engine
    for phase in PHASES:
        harness = Harness(engine, value_size=VALUE_BYTES)
        harness.launch_all(cluster.clients, feeds[phase])
        t0 = time.perf_counter()
        with spans.phase(f"{phase}.warm"):
            harness.warm(WARM_US)
        t1 = time.perf_counter()
        before = cluster.counters.as_dict()
        ev0 = sum(c.evictions for c in cluster.clients)
        rg0 = sum(c.regrets for c in cluster.clients)
        with spans.phase(f"{phase}.measure"):
            result = harness.measure(WINDOW_US)
        t2 = time.perf_counter()
        after = cluster.counters.as_dict()
        for key in _COUNTERS:
            unit.verbs[key] += after.get(key, 0) - before.get(key, 0)
        unit.evictions += sum(c.evictions for c in cluster.clients) - ev0
        unit.regrets += sum(c.regrets for c in cluster.clients) - rg0
        # Let every driver finish its in-flight op, then sweep.
        harness.stop_all()
        with spans.phase(f"{phase}.sweep"):
            engine.run()
            try:
                invariants.sweep(cluster)
            except invariants.InvariantViolation as err:
                unit.problems.append(f"YCSB-{phase} invariant sweep: {err}")
        unit.pump_s += t2 - t0
        unit.measure_s += t2 - t1
        unit.ops += result.ops
        unit.sim_us += result.duration_us
        unit.hits += result.hits
        unit.misses += result.misses
        if phase == "A":
            unit.get, unit.put = result.get_latency, result.set_latency
    unit.wall_s = time.perf_counter() - t_unit
    return unit


@dataclass
class ReplayRow:
    trace: str
    system: str
    seconds: float
    accesses: int
    hits: int
    misses: int
    fill_seconds: float


@dataclass
class ReplayUnit:
    gen_s: float = 0.0
    wall_s: float = 0.0
    rows: List[ReplayRow] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def hit_rate(self, trace: str, system: str = "ditto") -> float:
        row = next(r for r in self.rows
                   if r.trace == trace and r.system == system)
        return row.hits / row.accesses

    def seconds(self, system: Optional[str] = None) -> float:
        return sum(r.seconds for r in self.rows
                   if system is None or r.system == system)

    @property
    def accesses(self) -> int:
        return sum(r.accesses for r in self.rows)

    @property
    def attempted(self) -> int:
        return self.accesses + FILL_REQUESTS * len(self.rows)

    def e2e(self) -> Dict[str, float]:
        per_access = [r.seconds * 1e6 / r.accesses for r in self.rows]
        per_fill = [r.fill_seconds * 1e6 / FILL_REQUESTS for r in self.rows]
        return {
            "ops_per_s": self.accesses / self.seconds(),
            "get_p50_us": pct(per_access, 50),
            "get_p95_us": pct(per_access, 95),
            "set_mean_us": float(np.mean(per_fill)),
            "set_p95_us": pct(per_fill, 95),
            "hit_rate": float(np.mean([self.hit_rate(t) for t in TRACES])),
            "setup_s": self.gen_s,
            "wall_s": self.wall_s,
        }


def replay_unit(seed: int, spans=None) -> ReplayUnit:
    """Generate the five traces, then replay each through every system,
    followed by a stream of fresh keys that all miss."""
    spans = spans or _NoSpans()
    unit = ReplayUnit()
    t_unit = time.perf_counter()
    with spans.phase("gen"):
        traces = {name: WORKLOAD_CATALOG[name].trace(TRACE_REQUESTS, seed=seed)
                  for name in TRACES}
    unit.gen_s = time.perf_counter() - t_unit
    for name, trace in traces.items():
        capacity = max(int(footprint(trace) * SIZE_FRAC), 8)
        fresh = np.arange(FILL_REQUESTS, dtype=trace.dtype) + trace.max() + 1
        for system in SYSTEMS:
            cache = make_hit_cache(system, capacity, seed=seed)
            t0 = time.perf_counter()
            with spans.phase(f"replay.{system}", trace=name):
                replay(cache, trace)
            t1 = time.perf_counter()
            hits, misses = cache.hits, cache.misses
            if hits + misses != len(trace):
                unit.problems.append(
                    f"{system} on {name}: hits {hits} + misses {misses} "
                    f"!= {len(trace)} accesses"
                )
            with spans.phase(f"fill.{system}", trace=name):
                replay(cache, fresh)
            t2 = time.perf_counter()
            if (cache.hits - hits, cache.misses - misses) != (0, len(fresh)):
                unit.problems.append(
                    f"{system} on {name}: {len(fresh)} fresh keys gave "
                    f"{cache.hits - hits} hits, {cache.misses - misses} misses"
                )
            unit.rows.append(ReplayRow(name, system, t1 - t0, len(trace),
                                       hits, misses, t2 - t1))
    unit.wall_s = time.perf_counter() - t_unit
    return unit


def crosscheck_replay(seed: int) -> List[str]:
    """Replay each trace's prefix batched and key by key on fresh caches.

    The batched replay may take the vectorized path, which promises the
    same hits, misses and evictions as the per-key ``access`` loop.
    """
    problems = []
    for name in TRACES:
        trace = WORKLOAD_CATALOG[name].trace(TRACE_REQUESTS, seed=seed)
        capacity = max(int(footprint(trace) * SIZE_FRAC), 8)
        prefix = trace[:CROSSCHECK_REQUESTS]
        for system in SYSTEMS:
            batched = make_hit_cache(system, capacity, seed=seed)
            replay(batched, prefix)
            scalar = make_hit_cache(system, capacity, seed=seed)
            for key in prefix.tolist():
                scalar.access(key)
            got = (batched.hits, batched.misses, batched.evictions)
            want = (scalar.hits, scalar.misses, scalar.evictions)
            if got != want:
                problems.append(
                    f"{system} on {name}: batched replay of "
                    f"{len(prefix)} accesses gave (hits, misses, evictions) "
                    f"{got}, the per-key loop {want}"
                )
    return problems


def units_e2e(units: list) -> Dict[str, float]:
    """Each end-to-end metric's median over the run's units."""
    rows = [unit.e2e() for unit in units]
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def _repeat(unit_fn, seed: int, seconds: float) -> list:
    units = []
    t0 = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - t0 < seconds:
        units.append(unit_fn(seed * 1_000 + len(units)))
    return units


def _profiled(unit_fn, unit_seed: int, recorder: SpanRecorder):
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        with recorder.phase("unit", seed=unit_seed):
            unit = unit_fn(unit_seed, recorder)
    finally:
        profiler.disable()
    groups, stats = profile_groups(profiler)
    layers = {f"self_s.{g}": s for g, s in groups.items()}
    return unit, layers, stats


def _ycsb_layers(unit: YcsbUnit) -> Dict[str, float]:
    ops = unit.ops
    layers = {
        "gen_s": unit.gen_s,
        "preload_s": unit.preload_s,
        "pump_s": unit.pump_s,
        "pump.sim_ops_per_s": ops / unit.measure_s,
        "sim.ops": ops,
        "sim.mops": ops / unit.sim_us,
        "cache.evictions_per_kop": unit.evictions * 1e3 / ops,
        "cache.regrets_per_kop": unit.regrets * 1e3 / ops,
    }
    for verb in VERBS:
        layers[f"verbs.{verb}_per_op"] = unit.verbs[f"rdma_{verb}"] / ops
    return layers


def _replay_layers(unit: ReplayUnit) -> Dict[str, float]:
    layers = {f"replay_s.{s}": unit.seconds(s) for s in SYSTEMS}
    layers["replay.accesses_per_s"] = unit.accesses / unit.seconds()
    layers.update({f"hit_rate.{t}": unit.hit_rate(t) for t in TRACES})
    layers["gen_s"] = unit.gen_s
    return layers


_WORKLOADS = {
    "sim-ycsb": (ycsb_unit, _ycsb_layers),
    "sim-replay": (replay_unit, _replay_layers),
}


def run(name: str, seed: int, seconds: float, trace: bool, root: str
        ) -> Outcome:
    unit_fn, layers_fn = _WORKLOADS[name]
    if not trace:
        units = _repeat(unit_fn, seed, seconds)
        outcome = Outcome(e2e=units_e2e(units), attempted=0)
    else:
        # One untraced unit and the same unit again with spans and
        # cProfile: the difference is the tracing overhead.
        unit_seed = seed * 1_000
        t0, steal0 = time.perf_counter(), steal_ticks()
        untraced = unit_fn(unit_seed)
        stolen = steal_share(steal_ticks() - steal0, time.perf_counter() - t0)
        recorder = SpanRecorder()
        traced, layers, stats = _profiled(unit_fn, unit_seed, recorder)
        units = [untraced, traced]
        layers.update(layers_fn(untraced))
        layers["host.steal_share"] = stolen
        if name == "sim-ycsb":
            layers["events"] = call_count(stats, "repro/sim/engine.py",
                                          "_step")
        else:
            # Share of the unit's replays (traces and fills) that took
            # the vectorized path, as the profile saw them.
            layers["replay.fastpath_share"] = call_count(
                stats, "repro/cachesim/vectorized.py", "replay"
            ) / (2 * len(traced.rows))
        e2e = untraced.e2e()
        layers.update(overhead(traced.e2e(), e2e))
        outcome = Outcome(e2e=e2e, attempted=0, layers=layers)
        outcome.trace_path = out_path(root, f"{name}-seed{seed}.trace.json")
        recorder.export(outcome.trace_path)
    outcome.attempted = sum(unit.attempted for unit in units)
    outcome.problems = [p for unit in units for p in unit.problems]
    if name == "sim-replay":
        outcome.problems += crosscheck_replay(seed * 1_000)
    if name == "sim-ycsb":
        outcome.samples = {"units": len(units),
                           "get_per_unit": units[0].get.count,
                           "set_per_unit": units[0].put.count}
    else:
        outcome.samples = {"units": len(units),
                           "replays_per_unit": len(units[0].rows)}
    return outcome
