"""The real-substrate memory-node server process.

One process per memory node (``python -m repro.runtime.server``): the
node's heap is a ``multiprocessing.shared_memory`` segment, verbs arrive
as :mod:`repro.runtime.wire` frames over a loopback TCP listener, and the
very same :class:`~repro.memory.node.MemoryNode` byte/atomic methods that
back the sim substrate execute them.  Segment management runs on
:class:`~repro.runtime.journal.DurableSegmentState`, which mirrors every
grant into a write-through journal at the tail of the same shared-memory
segment — so a SIGKILLed node can be restarted with ``--adopt`` against
the surviving heap and resume with its grant log (and alloc-dedup
tokens) intact.

Each client connection is served by an ``asyncio.Protocol`` whose
``data_received`` splits out every complete frame
(:class:`~repro.runtime.wire.FrameSplitter`) and executes them inline,
in arrival order, answering the whole batch with one ``transport.write``;
reading pauses while the connection's write buffer is over the
high-water mark.  Memory operations and RPC handlers contain no await
points, so CAS/FAA from any number of connections linearize by
construction on the single-threaded loop — the same serialization point
the sim models with the NIC pipe.  Only chaos-spiked verbs and the
``__sleep__`` debug RPC run as tasks, off the in-order path.

Node 0 additionally hosts the cluster-level metadata handlers (the
adaptive ``update_weights`` fold and ``get_membership``), mirroring the
sim cluster where node 0 carries the hash table and global structures.

Fault injection: a :class:`~repro.runtime.chaos.ChaosGate` can be armed
over RPC (``__chaos_load__``); it is consulted once per request frame,
*before* execution, so a dropped verb never ran — the wall-clock
equivalent of the sim's drop-at-the-NIC semantics.  A DOWN verdict (and
an ``OP_SHUTDOWN`` frame) flushes the responses already produced from
the same read and closes the connection; the frames behind it never
execute.

Lifecycle: the parent (``repro.runtime.harness``) spawns this module,
reads the ``DITTO-NODE ...`` ready line for the bound port and shared-
memory name, and later sends ``OP_SHUTDOWN`` (or SIGTERM/SIGINT, which
drain in-flight requests and close listeners first).  The shared-memory
segment is unlinked only on an *owned, clean* shutdown: a SIGKILL leaves
it behind on purpose (that is what restart-and-adopt rides on), and the
harness force-unlinks any survivor at teardown so nothing leaks.  The
segment is explicitly unregistered from the ``resource_tracker`` —
otherwise the tracker of a killed process (or of a client that merely
attached for direct reads) would unlink a heap that is still live.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pickle
import signal
import sys
import time
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Optional, Set

from ..core.adaptive import GlobalWeights
from ..core.elasticity import ACTIVE
from ..memory.controller import OutOfMemoryError
from ..memory.node import MemoryAccessError, MemoryNode
from ..obs import runtime as obs_runtime
from ..obs.metrics import MetricsRegistry
from ..rdma.verbs import StaleEpoch
from ..sim.faults import DOWN, DROP, FaultPlan
from . import wire
from .chaos import ChaosGate
from .journal import (
    DurableSegmentState,
    GrantJournal,
    journal_bytes,
    unregister_shm,
)

#: Seconds granted to in-flight requests (and spiked delayed responses)
#: on a graceful shutdown before connections are force-closed.
DRAIN_GRACE_S = 0.5

#: Memoized (status, body) results kept per node for RPC dedup tokens.
RPC_MEMO_LIMIT = 1024

_VERB_BY_OP = {
    wire.OP_READ: "read",
    wire.OP_WRITE: "write",
    wire.OP_CAS: "cas",
    wire.OP_FAA: "faa",
    wire.OP_RPC: "rpc",
    wire.OP_PING: "ping",
}


def shm_name(run_id: str, node_id: int) -> str:
    return f"ditto-{run_id}-mn{node_id}"


class _ServerObs:
    """Pre-bound instruments for the served-frame hot path.

    Built once when observability arms, so a hot frame performs only
    counter adds and histogram records — never a registry lookup or
    allocation.  ``proc`` (the trace-shard exporter) is optional:
    ``__stats_arm__`` can arm metrics-only introspection at runtime on a
    node that was launched without ``REPRO_TRACE``.
    """

    __slots__ = ("registry", "proc", "verb_count", "verb_us",
                 "frame_bytes", "verdict_drop", "verdict_down",
                 "verdict_spike", "journal_writes")

    def __init__(self, registry: MetricsRegistry,
                 proc: Optional["obs_runtime.ProcessObs"] = None):
        self.registry = registry
        self.proc = proc
        self.verb_count = {
            op: registry.counter("verbs", verb=verb)
            for op, verb in _VERB_BY_OP.items()
        }
        self.verb_us = {
            op: registry.histogram("verb.service_us", verb=verb)
            for op, verb in _VERB_BY_OP.items()
        }
        self.frame_bytes = registry.histogram("frame.bytes")
        self.verdict_drop = registry.counter("gate.verdicts", verdict="drop")
        self.verdict_down = registry.counter("gate.verdicts", verdict="down")
        self.verdict_spike = registry.counter("gate.verdicts",
                                              verdict="spike")
        self.journal_writes = registry.counter("journal.writes")


class NodeServer:
    """One memory node served over sockets + shared memory."""

    def __init__(
        self,
        node_id: int,
        base: int,
        size: int,
        reserve: int = 0,
        run_id: str = "dev",
        num_experts: int = 0,
        learning_rate: float = 0.1,
        membership: tuple = (),
        port: int = 0,
        adopt: bool = False,
    ):
        self.node_id = node_id
        self.run_id = run_id
        self.port = port
        total = size + journal_bytes()
        if adopt:
            self.shm = shared_memory.SharedMemory(
                name=shm_name(run_id, node_id), create=False
            )
            if self.shm.size < total:
                self.shm.close()
                raise ValueError(
                    f"surviving segment {self.shm.name} holds "
                    f"{self.shm.size} bytes, adoption needs {total}"
                )
        else:
            self.shm = shared_memory.SharedMemory(
                name=shm_name(run_id, node_id), create=True, size=total
            )
        unregister_shm(self.shm)
        self._owns_shm = True
        self.node = MemoryNode(
            None, size=size, base=base, node_id=node_id, buffer=self.shm.buf
        )
        self._jview = self.shm.buf[size:total]
        try:
            if adopt:
                self.segments = DurableSegmentState.adopt(
                    node_id, base + reserve, base + size, self._jview
                )
            else:
                self.segments = DurableSegmentState(
                    node_id, base + reserve, base + size,
                    GrantJournal(self._jview),
                )
        except ValueError:
            # Failed adoption: never unlink a heap we could not parse.
            self._release_views()
            self.shm.close()
            self.shm = None
            raise
        self.weights = (
            GlobalWeights(num_experts, learning_rate) if num_experts else None
        )
        #: Static membership advertised by get_membership (node 0 only);
        #: the real substrate does not yet run elastic node changes.
        self.membership = tuple(membership)
        self.gate: Optional[ChaosGate] = None
        self._rpc_memo: "OrderedDict[int, tuple]" = OrderedDict()
        self._stop = asyncio.Event()
        self._server = None
        self._conns: Set["_NodeConnection"] = set()
        self._delayed: Set[asyncio.Task] = set()
        self.ops_served = 0
        self.started_epoch = time.time()
        #: None until armed (launch-time via REPRO_TRACE, or runtime via
        #: the __stats_arm__ RPC).  Hot paths guard on this being None.
        self._obs: Optional[_ServerObs] = None
        #: Verdict counts of gates already disarmed (__chaos_stop__ folds
        #: them here so a post-drill __stats__ still sees the totals).
        self._chaos_verdicts: dict = {}
        self._conn_seq = 0

    # -- observability -----------------------------------------------------

    def arm_obs(self, proc: Optional["obs_runtime.ProcessObs"]) -> None:
        """Arm per-frame instrumentation; idempotent.

        With a :class:`~repro.obs.runtime.ProcessObs` (``REPRO_TRACE``
        set at launch) spans land in its trace shard; without one (the
        ``__stats_arm__`` RPC on a dark node) a standalone registry
        collects metrics for ``__stats__`` to report.
        """
        if self._obs is not None:
            return
        registry = proc.registry if proc is not None else MetricsRegistry()
        self._obs = _ServerObs(registry, proc)
        self.segments.journal.on_record = self._obs.journal_writes.add

    def _fold_gate_verdicts(self) -> None:
        if self.gate is not None:
            for kind, count in self.gate.verdicts.items():
                if count:
                    self._chaos_verdicts[kind] = (
                        self._chaos_verdicts.get(kind, 0) + count
                    )

    def _stats(self) -> dict:
        """The ``__stats__`` control-RPC payload: health + metrics."""
        verdicts = dict(self._chaos_verdicts)
        if self.gate is not None:
            for kind, count in self.gate.verdicts.items():
                if count:
                    verdicts[kind] = verdicts.get(kind, 0) + count
        out = {
            "node_id": self.node_id,
            "role": f"mn{self.node_id}",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_epoch,
            "ops_served": self.ops_served,
            "connections": len(self._conns),
            "inflight_delayed": len(self._delayed),
            "journal_entries": self.segments.journal.count,
            "grants": sum(
                len(pairs) for pairs in self.segments.grants.values()
            ),
            "chaos_armed": self.gate is not None,
            "chaos_verdicts": verdicts,
            "obs_armed": self._obs is not None,
            "metrics": (
                self._obs.registry.snapshot()
                if self._obs is not None else None
            ),
        }
        return out

    # -- RPC handlers (mirror Controller's registered operations) ---------

    def _rpc(self, op: str, payload, token: int = 0):
        seg = self.segments
        if op == "alloc_segment":
            if seg.draining:
                raise StaleEpoch(
                    f"node {self.node_id} is draining at epoch {seg.epoch}: "
                    "no new segment grants",
                    verb="rpc", node_id=self.node_id, epoch=seg.epoch,
                )
            if isinstance(payload, tuple):
                size, owner = payload
            else:
                size, owner = payload, -1
            return seg.alloc(size, owner, token)
        if op == "free_segment":
            addr, size = payload
            return seg.free(addr, size)
        if op == "list_segments":
            return seg.list_owner(payload)
        if op == "reassign_grants":
            from_owner, to_owner = payload
            return seg.reassign(from_owner, to_owner)
        if op == "granted_segments":
            return {
                owner: list(pairs)
                for owner, pairs in seg.grants.items() if pairs
            }
        if op == "update_weights":
            if self.weights is None:
                raise KeyError(
                    f"node {self.node_id} does not host the global weights"
                )
            return self.weights.handle_update(list(payload))
        if op == "get_membership":
            if not self.membership:
                raise KeyError(
                    f"node {self.node_id} does not host the membership table"
                )
            return (0, tuple((nid, ACTIVE) for nid in self.membership))
        if op == "__chaos_load__":
            plan_dict, t0 = payload
            self._fold_gate_verdicts()
            plan = FaultPlan.from_dict(plan_dict)
            gate = ChaosGate(plan, self.node_id)
            gate.arm(t0)
            self.gate = gate
            obs = self._obs
            if obs is not None and obs.proc is not None:
                # Overlay the armed windows on this node's trace shard so
                # the merged view shows faults against served verbs.
                obs_runtime.record_fault_windows(obs.proc, plan, gate.t0)
                obs.proc.tracer.instant_at(
                    "chaos.armed", "chaos", obs.proc.ts_from_epoch(gate.t0),
                    tid=0,
                )
            return t0
        if op == "__chaos_stop__":
            self._fold_gate_verdicts()
            self.gate = None
            return None
        if op == "__stats__":
            return self._stats()
        if op == "__stats_arm__":
            self.arm_obs(obs_runtime.current())
            return True
        if op == "__sleep__":
            # Debug/test handler: a stalled controller (timeout surfacing).
            # The frame dispatch defers it by ``payload`` seconds first.
            return None
        raise KeyError(f"no RPC handler registered for {op!r}")

    # -- frame dispatch ----------------------------------------------------

    def _serve_data(self, op: int, body: bytes):
        node = self.node
        if op == wire.OP_READ:
            addr, length = wire.READ_BODY.unpack(body)
            return wire.ST_OK, node.read_bytes(addr, length)
        if op == wire.OP_WRITE:
            (addr,) = wire.WRITE_HDR.unpack_from(body)
            node.write_bytes(addr, body[wire.WRITE_HDR.size :])
            return wire.ST_OK, b""
        if op == wire.OP_CAS:
            addr, expected, new = wire.CAS_BODY.unpack(body)
            return wire.ST_OK, wire.U64.pack(
                node.compare_and_swap(addr, expected, new)
            )
        if op == wire.OP_FAA:
            addr, delta = wire.FAA_BODY.unpack(body)
            return wire.ST_OK, wire.U64.pack(node.fetch_and_add(addr, delta))
        if op == wire.OP_PING:
            return wire.ST_OK, b""
        raise ValueError(f"unknown opcode {op}")

    def _serve_rpc(self, body: bytes):
        op_name, payload, token = wire.unpack_rpc(body)
        if token:
            memo = self._rpc_memo.get(token)
            if memo is not None:
                # Resent RPC (response lost): replay the first result.
                self._rpc_memo.move_to_end(token)
                return memo
        try:
            result = self._rpc(op_name, payload, token)
        except OutOfMemoryError as err:
            out = wire.ST_OOM, pickle.dumps(str(err))
        except StaleEpoch as err:
            out = wire.ST_STALE, pickle.dumps(
                (str(err), err.node_id, err.epoch)
            )
        else:
            out = wire.ST_OK, pickle.dumps(result)
        if token:
            self._rpc_memo[token] = out
            while len(self._rpc_memo) > RPC_MEMO_LIMIT:
                self._rpc_memo.popitem(last=False)
        return out

    def _execute(self, op: int, body: bytes):
        try:
            if op == wire.OP_RPC:
                return self._serve_rpc(body)
            return self._serve_data(op, body)
        except MemoryAccessError as err:
            return wire.ST_ACCESS, pickle.dumps(str(err))
        except Exception as err:  # noqa: BLE001 — must not kill the loop
            return wire.ST_ERROR, pickle.dumps(
                (type(err).__name__, str(err))
            )

    def _gate_outcome(self, op: int, body: bytes):
        """Consult the chaos gate for this frame; (kind, extra_us).

        Shutdown frames and the chaos control RPCs themselves are exempt
        — the harness must always be able to disarm or stop a node.
        """
        gate = self.gate
        if gate is None or op == wire.OP_SHUTDOWN:
            return None, 0.0
        if op == wire.OP_RPC and wire.peek_rpc_name(body).startswith("__"):
            # Control RPCs (chaos arm/disarm, __stats__ polling, debug
            # handlers) must keep working while faults are injected.
            return None, 0.0
        return gate.verb_outcome(_VERB_BY_OP.get(op, "rpc"))

    def _defer(self, conn: "_NodeConnection", op: int, req_id: int,
               body: bytes, delay_s: float) -> None:
        """Execute + respond after ``delay_s``, off the connection's
        in-order dispatch so the frames behind it keep flowing.

        Serves latency spikes — the sim's extra-lead-latency semantics:
        the verb executes at its delayed completion time — and the
        ``__sleep__`` debug RPC.
        """

        async def _later():
            await asyncio.sleep(delay_s)
            status, out = self._execute(op, body)
            transport = conn.transport
            if not transport.is_closing():
                transport.write(wire.response_frame(req_id, status, out))

        task = asyncio.get_running_loop().create_task(_later())
        self._delayed.add(task)
        task.add_done_callback(self._delayed.discard)

    def _serve_frames(self, conn: "_NodeConnection", frames) -> None:
        """Execute one read's frames in arrival order; one write back.

        Memory ops and RPC handlers contain no await points, so every
        frame runs to completion here and CAS/FAA from all connections
        linearize on the one loop.  Only spiked verbs and ``__sleep__``
        are deferred to tasks.  A DOWN verdict or a SHUTDOWN frame ends
        the connection: the responses already produced go out, the
        frames behind it are never executed.
        """
        out = []
        obs = self._obs
        for frame in frames:
            op, req_id = wire.REQ.unpack_from(frame)
            body = frame[wire.REQ.size :]
            self.ops_served += 1
            if obs is not None:
                obs.frame_bytes.record(len(frame))
            kind, extra_us = self._gate_outcome(op, body)
            if kind == DROP:
                if obs is not None:
                    obs.verdict_drop.add()
                continue  # swallowed before execution: client times out
            if kind == DOWN:
                if obs is not None:
                    obs.verdict_down.add()
                # Outage window: reset, client sees NodeUnavailable.
                conn.finish(out)
                return
            if op == wire.OP_SHUTDOWN:
                out.append(wire.response_frame(req_id, wire.ST_OK))
                conn.finish(out)
                self._stop.set()
                return
            if extra_us > 0.0:
                if obs is not None:
                    obs.verdict_spike.add()
                    if obs.proc is not None:
                        # The delayed execution overlaps whatever runs
                        # next on this connection: an instant, not a
                        # span, keeps the lane properly nested.
                        obs.proc.tracer.instant_at(
                            f"{_VERB_BY_OP.get(op, 'rpc')}.delayed",
                            "verb", obs.proc.now_us(), tid=conn.lane(obs),
                            args={"extra_us": extra_us},
                        )
                self._defer(conn, op, req_id, body, extra_us / 1e6)
                continue
            if op == wire.OP_RPC and body[1 : 1 + body[0]] == b"__sleep__":
                self._defer(conn, op, req_id, body,
                            float(wire.unpack_rpc(body)[1]))
                continue
            if obs is None:
                status, result = self._execute(op, body)
            else:
                start_us = obs.proc.now_us() if obs.proc is not None else 0.0
                t0 = time.perf_counter()
                status, result = self._execute(op, body)
                service_us = (time.perf_counter() - t0) * 1e6
                counter = obs.verb_count.get(op)
                if counter is not None:
                    counter.add()
                    obs.verb_us[op].record(service_us)
                if obs.proc is not None:
                    obs.proc.tracer.complete(
                        _VERB_BY_OP.get(op, "rpc"), "verb", start_us,
                        tid=conn.lane(obs), args={"status": status},
                    )
            out.append(wire.response_frame(req_id, status, result))
        if out:
            conn.transport.write(b"".join(out))

    # -- lifecycle ---------------------------------------------------------

    async def _drain(self, grace: float = DRAIN_GRACE_S) -> None:
        """Let in-flight work finish, then tear connections down.

        Frames execute inline as they arrive, so by the time this
        coroutine runs none is mid-execution; what can be in flight are
        deferred frames (spiked verbs, ``__sleep__``).  Give them the
        grace period, then cancel stragglers and close every connection,
        aborting any whose peer has not taken its last bytes by then.
        """
        loop = asyncio.get_running_loop()
        pending = {t for t in self._delayed if not t.done()}
        if pending:
            await asyncio.wait(pending, timeout=grace)
            for task in pending:
                task.cancel()
        for conn in list(self._conns):
            conn.transport.close()
        deadline = loop.time() + grace
        while self._conns and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self._conns):
            conn.transport.abort()

    async def run(self, announce=print) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        self._server = await loop.create_server(
            lambda: _NodeConnection(self), "127.0.0.1", self.port
        )
        port = self._server.sockets[0].getsockname()[1]
        announce(
            f"DITTO-NODE node_id={self.node_id} port={port} "
            f"shm={self.shm.name} base={self.node.base} size={self.node.size}"
        )
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._drain()
            await self._server.wait_closed()
            self._flush_obs()
            self.close()

    def _flush_obs(self) -> None:
        """Write the trace shard now, before the heap is unlinked.

        The SIGTERM path sets ``_stop`` and tears down through ``run``'s
        ``finally`` without ever raising through ``main`` — on some
        interpreter/exit combinations atexit hooks are skipped, so the
        shard is committed here where shutdown is already serialized.
        """
        proc = obs_runtime.current()
        if proc is not None:
            try:
                proc.flush()
            except OSError:
                pass

    def _release_views(self) -> None:
        if self._jview is not None:
            self._jview.release()
            self._jview = None
        if self.node is not None:
            self.node._memory.release()

    def close(self) -> None:
        """Release the heap; unlinks only when this process owns it."""
        if self.shm is None:
            return
        self._release_views()
        self.shm.close()
        if self._owns_shm:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
        self.shm = None


class _NodeConnection(asyncio.Protocol):
    """One client connection to a :class:`NodeServer`.

    ``data_received`` splits out every complete frame and hands the
    batch to :meth:`NodeServer._serve_frames`, which answers with one
    ``transport.write``.  Reading pauses while this connection's own
    write buffer is over the high-water mark, so a client that stops
    reading responses cannot make the node buffer without bound.
    """

    def __init__(self, server: NodeServer):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self._frames = wire.FrameSplitter()
        self._conn_id = 0
        self._lane: Optional[int] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        server._conn_seq += 1
        self._conn_id = server._conn_seq
        server._conns.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._frames.feed(data)
        except ValueError:  # oversized length header: drop the client
            self.transport.abort()
            return
        self.server._serve_frames(self, frames)

    def connection_lost(self, exc) -> None:
        self.server._conns.discard(self)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def finish(self, out) -> None:
        """Flush the responses produced so far, then close."""
        if out:
            self.transport.write(b"".join(out))
        self.transport.close()

    def lane(self, obs: _ServerObs) -> int:
        """This connection's trace lane, allocated on first use.

        Frames on one connection execute one after another, so their
        spans nest properly within the lane; concurrent connections get
        distinct lanes.
        """
        if self._lane is None:
            self._lane = obs.proc.lane(f"conn-{self._conn_id}")
        return self._lane


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Ditto real-substrate memory-node server"
    )
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--base", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--reserve", type=int, default=0)
    parser.add_argument("--run-id", default="dev")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral; a restarted node "
                             "reuses its old port so clients reconnect)")
    parser.add_argument("--adopt", action="store_true",
                        help="attach to the surviving shared-memory segment "
                             "of a crashed instance and rebuild grant state "
                             "from its journal")
    parser.add_argument("--experts", type=int, default=0,
                        help="host the global adaptive weights (node 0)")
    parser.add_argument("--learning-rate", type=float, default=0.1)
    parser.add_argument("--membership", default="",
                        help="comma-separated node ids to advertise")
    args = parser.parse_args(argv)
    membership = tuple(
        int(part) for part in args.membership.split(",") if part != ""
    )
    try:
        server = NodeServer(
            args.node_id, args.base, args.size, reserve=args.reserve,
            run_id=args.run_id, num_experts=args.experts,
            learning_rate=args.learning_rate, membership=membership,
            port=args.port, adopt=args.adopt,
        )
    except (ValueError, FileNotFoundError, FileExistsError) as err:
        print(f"DITTO-NODE-ERROR node_id={args.node_id} {err}",
              file=sys.stderr, flush=True)
        return 1
    proc = obs_runtime.init(f"mn{args.node_id}")
    if proc is not None:
        server.arm_obs(proc)

    def announce(line: str) -> None:
        print(line, flush=True)

    try:
        asyncio.run(server.run(announce=announce))
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
