"""Benchmark-side tracing: in-memory spans, Chrome export, cProfile groups.

Spans are recorded from the benchmark's own files only, around the calls
it makes into each layer: one per phase, one per live op, and one per
foreground verb of that op (the verb generators of the client's endpoint
are wrapped, see :class:`TracedEndpoint`).  Nothing is written until the
run ends; :meth:`SpanRecorder.export` then produces Chrome ``trace_event``
JSON that ``python -m repro.obs.report FILE --validate`` accepts.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.runtime.client import RealEndpoint
from repro.runtime.cluster import RealCluster

from .layers import PROFILE_GROUPS

#: Lane 0 holds phase spans; live clients get lanes 1..n.
PHASE_LANE = 0


class SpanRecorder:
    """Complete spans kept in memory: ``(name, cat, t0, t1, lane, args)``."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Tuple] = []
        self.lanes: Dict[int, str] = {PHASE_LANE: "phases"}

    def add(self, name: str, cat: str, t0: float, t1: float,
            lane: int = PHASE_LANE, args: Optional[Dict] = None) -> None:
        self.spans.append((name, cat, t0, t1, lane, args))

    @contextmanager
    def phase(self, name: str, **args):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, "phase", t0, time.perf_counter(), PHASE_LANE,
                     args or None)

    def verb_span(self, verb: str, gen, lane: int, op_id: int):
        """Drive ``gen`` and record its round trip as a child of the op."""
        t0 = time.perf_counter()
        try:
            return (yield from gen)
        finally:
            self.add(f"verb.{verb}", "verb", t0, time.perf_counter(), lane,
                     {"op": op_id})

    def by_name(self, prefix: str) -> Dict[str, List[float]]:
        """Durations in µs of the spans of measured ops (op id > 0) whose
        name starts with ``prefix``; set-up verbs carry op id 0."""
        out: Dict[str, List[float]] = {}
        for name, _cat, t0, t1, _lane, args in self.spans:
            if name.startswith(prefix) and args and args.get("op", 0) > 0:
                out.setdefault(name, []).append((t1 - t0) * 1e6)
        return out

    def export(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON; returns the span count."""
        events = [
            {"ph": "M", "name": "thread_name", "ts": 0, "pid": 1, "tid": lane,
             "args": {"name": label}}
            for lane, label in sorted(self.lanes.items())
        ]
        for name, cat, t0, t1, lane, args in self.spans:
            event = {
                "ph": "X", "name": name, "cat": cat,
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": 1, "tid": lane,
            }
            if args:
                event["args"] = args
            events.append(event)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
        return len(self.spans)


class TracedEndpoint(RealEndpoint):
    """A :class:`RealEndpoint` whose foreground verbs record spans.

    The public ``read``/``write``/``cas``/``faa``/``rpc`` generators are
    wrapped; posts (``post_write``/``post_faa``) run their verb unwrapped
    because they are background work, not part of the op that issued
    them.  The load loop sets :attr:`op_id` before driving each op.
    """

    def __init__(self, *args, recorder: SpanRecorder, lane: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = recorder
        self.lane = lane
        self.op_id = 0
        self._posting = False

    def _wrap(self, verb: str, gen):
        if self._posting:
            return gen
        return self.recorder.verb_span(verb, gen, self.lane, self.op_id)

    def read(self, addr, length):
        return self._wrap("read", super().read(addr, length))

    def write(self, addr, data):
        return self._wrap("write", super().write(addr, data))

    def cas(self, addr, expected, new):
        return self._wrap("cas", super().cas(addr, expected, new))

    def faa(self, addr, delta):
        return self._wrap("faa", super().faa(addr, delta))

    def rpc(self, node, op, payload=None, size=64):
        return self._wrap("rpc", super().rpc(node, op, payload, size))

    def post_write(self, addr, data):
        self._posting = True
        try:
            return super().post_write(addr, data)
        finally:
            self._posting = False

    def post_faa(self, addr, delta):
        self._posting = True
        try:
            return super().post_faa(addr, delta)
        finally:
            self._posting = False


class TracedCluster(RealCluster):
    """A :class:`RealCluster` handing each client a :class:`TracedEndpoint`."""

    def __init__(self, descriptor, recorder: SpanRecorder, **kwargs):
        super().__init__(descriptor, **kwargs)
        self.recorder = recorder

    def make_endpoint(self, client) -> TracedEndpoint:
        lane = len(self.recorder.lanes)
        self.recorder.lanes[lane] = f"client-{client.client_id}"
        return TracedEndpoint(
            self.engine, self.nodes, counters=self.counters,
            timeout_s=self.timeout_s, shm_reads=self.shm_reads,
            health=self.health, recorder=self.recorder, lane=lane,
        )


def _group(filename: str, func: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker in path:
        head = path.split(marker, 1)[1].split("/", 1)[0]
        group = "repro." + head.replace(".py", "")
        return group if group in PROFILE_GROUPS else "other"
    if "/asyncio/" in path:
        return "asyncio"
    if "numpy" in path or "numpy" in func:
        return "numpy"
    if "epoll" in func or "select" in func or path.endswith("selectors.py"):
        return "poll"
    if "socket" in func or path.endswith("socket.py"):
        return "socket"
    return "other"


def profile_groups(profiler: cProfile.Profile
                   ) -> Tuple[Dict[str, float], pstats.Stats]:
    """Self seconds per :data:`PROFILE_GROUPS` entry, plus the raw stats."""
    stats = pstats.Stats(profiler)
    out = {group: 0.0 for group in PROFILE_GROUPS}
    for (filename, _line, func), row in stats.stats.items():
        out[_group(filename, func)] += row[2]  # tottime: self seconds
    return out, stats


def call_count(stats: pstats.Stats, filename_suffix: str, func: str) -> int:
    """Exact call count of one function in a profile (0 if never called)."""
    total = 0
    for (filename, _line, name), row in stats.stats.items():
        path = filename.replace("\\", "/")
        if name == func and path.endswith(filename_suffix):
            total += row[1]  # ncalls including recursive
    return total
