"""Client side of the real substrate: endpoint, connections, and driver.

The portable layers (:class:`~repro.core.client.DittoClient`, allocators,
recovery) are written as generators that ``yield`` commands to their
substrate.  On the sim substrate every command is a
:class:`~repro.sim.Timeout` executed by the discrete-event engine; here
the commands are either Timeouts (client backoff — mapped onto
``asyncio.sleep``) or *coroutine objects* produced by
:class:`RealEndpoint` verbs, awaited by :func:`drive` against live
memory-node processes.  Failures are thrown back *into* the generator at
the yield point as the very same exception types the sim raises
(:class:`~repro.rdma.verbs.VerbTimeout`,
:class:`~repro.rdma.verbs.NodeUnavailable`, ...), so the client's retry
machinery cannot tell the substrates apart.

Each :class:`Connection` is an ``asyncio.Protocol`` on the transport of
a freshly opened socket: responses are split out of ``data_received``
by :class:`~repro.runtime.wire.FrameSplitter` and resolve their request
futures in place, one ``call_at`` deadline timer per connection (armed
at the earliest pending deadline) enforces verb timeouts, the request
frames queued in one loop tick go out in one write, and a request waits
for the write buffer only while the transport has paused writing.
The server executes the frames of one connection in arrival order,
deferring only chaos-spiked verbs and the ``__sleep__`` debug RPC, so a
response may overtake those but no other.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
import time
from multiprocessing import shared_memory
from typing import Callable, Dict, FrozenSet, Generator, List, Optional

from ..core.retry import backoff_s
from ..memory.controller import OutOfMemoryError
from ..memory.node import MemoryAccessError
from ..obs import runtime as obs_runtime
from ..rdma.transport import VerbTransport
from ..rdma.verbs import NodeUnavailable, StaleEpoch, VerbTimeout
from ..sim import CounterSet, Timeout
from . import wire
from .journal import unregister_shm

#: Default per-verb wall-clock timeout.  Generous: loopback sockets
#: complete in microseconds; this only bounds a wedged server.
DEFAULT_TIMEOUT_S = 10.0

#: Transparent resend attempts inside one verb when the connection dies
#: mid-flight, before the failure surfaces as ``NodeUnavailable`` to the
#: portable retry layer (which applies its own, coarser backoff).
RESEND_ATTEMPTS = 4
RESEND_BACKOFF_S = 0.005
RESEND_BACKOFF_MAX_S = 0.04


class RequestNotSent(ConnectionError):
    """The connection died before the request hit the socket.

    The server cannot have executed the verb, so a resend is safe for
    *every* opcode — unlike the ambiguous "response lost" case
    (``ConnectionResetError`` after the request was written), where only
    idempotent verbs, token-deduplicated RPCs, and fate-resolved CAS may
    be retried transparently.
    """


class WallClockRuntime:
    """The real substrate's 'engine': wall-clock time + asyncio tasks.

    Presents the engine facets portable code actually touches — ``now`` /
    ``_now`` in microseconds and ``spawn(generator)`` — so
    :class:`~repro.core.client.DittoClient` timestamps and fire-and-forget
    posts work unchanged.  Time is wall-clock microseconds since runtime
    construction (the sim measures microseconds since engine start).
    """

    def __init__(self):
        self._t0 = time.perf_counter()
        self._background = set()

    @property
    def now(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    # The hot paths read engine._now directly; same clock here.
    _now = now

    def spawn(self, gen: Generator, name: str = "") -> asyncio.Task:
        """Run a verb generator as a background task (unsignalled posts)."""
        task = asyncio.get_running_loop().create_task(drive(gen), name=name)
        self._background.add(task)
        task.add_done_callback(self._background.discard)
        return task

    async def drain_background(self, timeout_s: float = 10.0) -> int:
        """Await outstanding background posts; returns how many remained."""
        pending = [t for t in self._background if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout_s)
        return len(pending)


async def drive(gen: Generator, runtime: Optional[WallClockRuntime] = None):
    """Drive one verb-layer generator to completion on asyncio.

    The real-substrate counterpart of ``Engine.run_process``: Timeouts
    sleep on the wall clock, endpoint coroutines are awaited, and any
    failure is thrown into the generator at its yield point.
    """
    value = None
    error: Optional[BaseException] = None
    while True:
        try:
            if error is not None:
                exc, error = error, None
                command = gen.throw(exc)
            else:
                command = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = None
        if isinstance(command, Timeout):
            await asyncio.sleep(command.delay / 1e6)
        elif asyncio.iscoroutine(command):
            try:
                value = await command
            except Exception as exc:  # surfaced inside the generator
                error = exc
        else:
            raise RuntimeError(
                f"the real substrate cannot execute {command!r}; only "
                "Timeout and endpoint awaitables are portable (DESIGN §3.7)"
            )


class NodeHandle:
    """Client-side stand-in for a remote memory node.

    Quacks enough like :class:`~repro.memory.node.MemoryNode` for the
    portable layers — ``node_id``/``base``/``end``/``contains`` for
    address routing — plus the endpoint coordinates (host, port) and the
    heap's shared-memory name for the optional direct-read fast path.
    """

    __slots__ = ("node_id", "base", "size", "host", "port", "shm", "_seg")

    def __init__(self, node_id: int, base: int, size: int, host: str,
                 port: int, shm: str = ""):
        self.node_id = node_id
        self.base = base
        self.size = size
        self.host = host
        self.port = port
        self.shm = shm
        self._seg: Optional[shared_memory.SharedMemory] = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    # -- direct shared-memory reads (optional fast path) ------------------

    def attach(self) -> None:
        """Map the node's heap read-only into this process."""
        if self._seg is None and self.shm:
            self._seg = shared_memory.SharedMemory(name=self.shm)
            # Attaching registers the segment with *this* process's
            # resource tracker, whose exit sweep would unlink the live
            # server's heap.  Readers never own the segment.
            unregister_shm(self._seg)

    def read_direct(self, addr: int, length: int) -> bytes:
        off = addr - self.base
        return bytes(self._seg.buf[off : off + length])

    def detach(self) -> None:
        if self._seg is not None:
            self._seg.close()  # never unlink: the server owns the segment
            self._seg = None

    def as_dict(self) -> Dict:
        return {
            "node_id": self.node_id, "base": self.base, "size": self.size,
            "host": self.host, "port": self.port, "shm": self.shm,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "NodeHandle":
        return cls(data["node_id"], data["base"], data["size"],
                   data["host"], data["port"], data.get("shm", ""))


class Connection(asyncio.Protocol):
    """One multiplexed connection to a memory node, driven as a protocol.

    Takes over the transport of a freshly opened stream pair: responses
    are split out of ``data_received`` by :class:`wire.FrameSplitter` and
    resolve their request futures directly, with no reader task.
    Requests carry per-connection ids, so a client's foreground op and
    its fire-and-forget posts share the connection with requests in
    flight concurrently, and responses may return in any order.
    Timeouts are enforced by one deadline timer per connection, armed
    at the earliest pending deadline.  Request frames queued in one loop
    tick — say, the next verbs of every client woken by one batch of
    responses — go out in one write; a request waits for the write
    buffer to drain only while the transport has paused writing.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._loop = asyncio.get_running_loop()
        # Held for its lifetime only: a collected StreamWriter closes the
        # transport it wraps.
        self._writer = writer
        self._transport = writer.transport
        self._frames = wire.FrameSplitter()
        #: req_id -> (response future, loop-time deadline).
        self._pending: Dict[int, tuple] = {}
        self._next_id = 0
        self._broken: Optional[BaseException] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Request frames queued this loop tick, flushed by one write.
        self._outbox: List[bytes] = []
        self._write_paused = False
        self._drain_waiters: List[asyncio.Future] = []
        self._lost = self._loop.create_future()
        self._transport.set_protocol(self)
        if self._transport.is_closing():
            # Lost before the hand-over: the loss went to the old protocol.
            self.connection_lost(None)

    # -- protocol callbacks ------------------------------------------------

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._frames.feed(data)
        except ValueError as exc:  # oversized length header
            self._abort(exc)
            return
        pending = self._pending
        for frame in frames:
            try:
                req_id, status = wire.RESP.unpack_from(frame)
            except struct.error as exc:  # garbled frame
                self._abort(exc)
                return
            entry = pending.pop(req_id, None)
            if entry is not None and not entry[0].done():
                entry[0].set_result((status, frame[wire.RESP.size :]))

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._fail(exc or ConnectionResetError("connection closed by peer"))
        if not self._lost.done():
            self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake_drain_waiters()

    # -- failure and deadlines ---------------------------------------------

    def _wake_drain_waiters(self) -> None:
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()

    def _fail(self, exc: BaseException) -> None:
        if self._broken is None:
            self._broken = exc
        for future, _deadline in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionResetError(str(exc)))
        self._pending.clear()
        self._wake_drain_waiters()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _abort(self, exc: BaseException) -> None:
        """The stream can no longer be trusted: fail everything, drop it."""
        self._fail(exc)
        self._transport.abort()

    def _arm(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        """Deadline timer: time out every overdue request, re-arm."""
        self._timer = None
        now = self._loop.time()
        pending = self._pending
        earliest = None
        for req_id, (future, deadline) in list(pending.items()):
            if deadline <= now:
                del pending[req_id]
                if not future.done():
                    future.set_exception(asyncio.TimeoutError())
            elif earliest is None or deadline < earliest:
                earliest = deadline
        if earliest is not None:
            self._arm(earliest)

    # -- requests ----------------------------------------------------------

    async def request(self, op: int, body: bytes, timeout_s: float):
        """Send one request; returns ``(status, payload)``.

        Raises :class:`RequestNotSent` when the connection was already
        dead before the request was queued (safe to retry on a fresh
        connection, any opcode), TimeoutError on expiry (the late
        response, if any, is dropped on arrival), and plain
        ConnectionResetError when the peer died *after* it was queued —
        the ambiguous "response lost" case where the server may or may
        not have executed the request.  (A frame still queued when the
        connection dies was never sent; reporting it as ambiguous only
        costs the caller a conservative resend or CAS fate check.)
        """
        if self._broken is not None:
            raise RequestNotSent(str(self._broken))
        transport = self._transport
        if transport.is_closing():
            raise RequestNotSent("connection is closing")
        self._next_id += 1
        req_id = self._next_id
        loop = self._loop
        future = loop.create_future()
        deadline = loop.time() + timeout_s
        self._pending[req_id] = (future, deadline)
        timer = self._timer
        if timer is None or deadline < timer.when():
            self._arm(deadline)
        # From here on, bytes may reach the peer even if the response
        # wait fails — everything after this point is "response lost",
        # never "not sent".
        outbox = self._outbox
        if not outbox:
            loop.call_soon(self._flush)
        outbox.append(wire.request_frame(op, req_id, body))
        try:
            if self._write_paused:
                waiter = loop.create_future()
                self._drain_waiters.append(waiter)
                # The deadline still bounds a peer that stopped reading.
                await asyncio.wait(
                    (waiter, future), return_when=asyncio.FIRST_COMPLETED
                )
            return await future
        except asyncio.CancelledError:
            self._pending.pop(req_id, None)
            raise

    def _flush(self) -> None:
        """Send every frame queued this tick with one write."""
        if not self._transport.is_closing():
            self._transport.write(b"".join(self._outbox))
        self._outbox.clear()

    async def close(self) -> None:
        self._fail(ConnectionResetError("connection closed"))
        self._transport.close()
        await self._lost


class NodeHealth:
    """Cluster-shared circuit breaker over memory-node liveness.

    The wall-clock analogue of the sim's instantaneous outage knowledge:
    once any endpoint observes a node refusing/resetting connections —
    or the harness reaps a dead child — every client sharing this view
    fails fast with :class:`~repro.rdma.verbs.NodeUnavailable` instead
    of burning a full verb timeout per op.  While a node is marked down,
    one probe request per :attr:`probe_interval_s` is let through
    (half-open breaker); the first success marks the node up again.
    Listeners (the cluster) are notified on every transition so they can
    steer allocators away from, and back to, the node.
    """

    def __init__(self, probe_interval_s: float = 0.1,
                 counters: Optional[CounterSet] = None):
        self.probe_interval_s = probe_interval_s
        #: node_id -> monotonic time of the last allowed probe.
        self._down: Dict[int, float] = {}
        self._listeners: List[Callable[[], None]] = []
        #: Optional shared tally: each down transition counts one
        #: ``breaker_trip`` (surfaced in load reports and digests).
        self.counters = counters

    def add_listener(self, callback: Callable[[], None]) -> None:
        self._listeners.append(callback)

    def _notify(self) -> None:
        for callback in self._listeners:
            callback()

    def down_ids(self) -> FrozenSet[int]:
        return frozenset(self._down)

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def report_down(self, node_id: int) -> None:
        if node_id not in self._down:
            # First probe is due immediately: a refused connect is cheap
            # and recovery should be noticed fast.
            self._down[node_id] = -1e9
            if self.counters is not None:
                self.counters.add("breaker_trip")
            self._notify()

    def mark_up(self, node_id: int) -> None:
        if self._down.pop(node_id, None) is not None:
            self._notify()

    def allow_probe(self, node_id: int) -> bool:
        """True if the caller may issue a request to ``node_id`` now."""
        last = self._down.get(node_id)
        if last is None:
            return True
        now = time.monotonic()
        if now - last >= self.probe_interval_s:
            self._down[node_id] = now
            return True
        return False


class RealEndpoint(VerbTransport):
    """Verb transport over sockets + shared memory (one per client).

    Mirrors :class:`~repro.rdma.verbs.RdmaEndpoint` behind the
    :class:`~repro.rdma.transport.VerbTransport` contract: verbs are
    generators, fence checks happen client-side before the request is
    issued, and failures surface as the sim's exception types.  With
    ``shm_reads`` enabled, READs that hit an attached node bypass the
    socket and copy straight out of the shared-memory heap ("direct
    shared-memory access where safe": reads tolerate the benign torn-read
    race because object decoding and fingerprints already reject garbage;
    atomics always go through the node's serialization point).
    """

    __slots__ = (
        "engine", "nodes", "counters", "tracer", "fence", "consensus",
        "timeout_s", "shm_reads", "health", "_conns", "_single_node",
        "_rng", "_rpc_salt", "_rpc_seq", "_obs_proc", "_obs_hist",
    )

    def __init__(
        self,
        engine: WallClockRuntime,
        nodes: List[NodeHandle],
        counters: Optional[CounterSet] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        shm_reads: bool = False,
        health: Optional[NodeHealth] = None,
    ):
        self.engine = engine
        self.nodes = list(nodes)
        self.counters = counters if counters is not None else CounterSet()
        self.tracer = None
        self.fence = None
        self.consensus = None
        self.timeout_s = timeout_s
        self.shm_reads = shm_reads
        self.health = health
        self._conns: Dict[int, Connection] = {}
        self._single_node = nodes[0] if len(nodes) == 1 else None
        self._rng = random.Random()
        # RPC dedup tokens: unique per endpoint lifetime (random salt)
        # and per call (sequence) — never reused, never colliding with
        # another client's across a shared server memo.
        self._rpc_salt = random.getrandbits(31) << 32
        self._rpc_seq = 0
        # Bound once at construction: None when observability is disarmed,
        # so the roundtrip hot path pays exactly one identity test and
        # never touches a registry (the zero-cost conformance contract).
        self._obs_proc = obs_runtime.current()
        self._obs_hist: Dict[str, object] = {}
        if shm_reads:
            for node in self.nodes:
                node.attach()

    def _next_token(self) -> int:
        self._rpc_seq += 1
        return self._rpc_salt | self._rpc_seq

    def _node_for(self, addr: int, length: int) -> NodeHandle:
        node = self._single_node
        if node is not None and node.contains(addr, length):
            return node
        for node in self.nodes:
            if node.contains(addr, length):
                return node
        raise MemoryAccessError(f"address {addr} not in any memory node")

    # -- the socket round trip --------------------------------------------

    async def _connect(self, node: NodeHandle) -> Connection:
        """Open a fresh connection to ``node``, closing the one it replaces."""
        try:
            reader, writer = await asyncio.open_connection(
                node.host, node.port
            )
        except (ConnectionError, OSError) as exc:
            if self.health is not None:
                self.health.report_down(node.node_id)
            self.counters.add("fault_node_unavailable")
            raise NodeUnavailable(
                f"node {node.node_id} is unreachable ({exc})",
                node_id=node.node_id,
            ) from exc
        conn = Connection(reader, writer)
        stale = self._conns.get(node.node_id)
        if stale is not None and stale._broken is None:
            # A concurrent reconnect finished first: share its connection.
            await conn.close()
            return stale
        self._conns[node.node_id] = conn
        if stale is not None:
            stale._abort(ConnectionResetError("connection replaced"))
        return conn

    def _decode(self, node: NodeHandle, verb: str, status: int,
                payload: bytes) -> bytes:
        if status == wire.ST_OK:
            return payload
        if status == wire.ST_ACCESS:
            raise MemoryAccessError(pickle.loads(payload))
        if status == wire.ST_OOM:
            raise OutOfMemoryError(pickle.loads(payload))
        if status == wire.ST_STALE:
            message, node_id, epoch = pickle.loads(payload)
            raise StaleEpoch(message, verb=verb, node_id=node_id, epoch=epoch)
        name, message = pickle.loads(payload)
        raise RuntimeError(f"node {node.node_id} {verb} failed: "
                           f"{name}: {message}")

    async def _roundtrip(self, node: NodeHandle, verb: str, op: int,
                         body: bytes) -> bytes:
        """One verb against one node, riding through connection churn.

        A verb that *times out* surfaces as :class:`VerbTimeout`
        immediately — on this substrate a timeout means the request was
        swallowed (chaos drop) or the server is wedged, and the sim's
        drop semantics (client blocks its full timeout, then the
        portable layer decides) must hold.  A connection that *dies*
        mid-verb is retried transparently on a fresh connection within a
        small budget: unconditionally when the request never left this
        process (:class:`RequestNotSent`), and for ambiguous "response
        lost" failures only when a duplicate execution is provably
        harmless — READ/WRITE/PING are idempotent here
        (:data:`~repro.runtime.wire.RESEND_SAFE_OPS`), RPCs replay
        deduplicated under their token, FAA's only target is the history
        clock (a rare double increment shifts a heuristic, not
        correctness), and CAS resolves its fate by re-reading the target
        word.  Persistent churn marks the node down in the shared health
        view and surfaces as :class:`NodeUnavailable`, exactly like a
        sim outage window.
        """
        obs = self._obs_proc
        start_pc = time.perf_counter() if obs is not None else 0.0
        health = self.health
        probing = False
        if health is not None and health.is_down(node.node_id):
            if not health.allow_probe(node.node_id):
                self.counters.add("fault_node_unavailable")
                raise NodeUnavailable(
                    f"node {node.node_id} is marked down ({verb})",
                    verb=verb, node_id=node.node_id,
                )
            probing = True
        last_exc: Optional[BaseException] = None
        for attempt in range(1, RESEND_ATTEMPTS + 1):
            conn = self._conns.get(node.node_id)
            if conn is None or conn._broken is not None:
                conn = await self._connect(node)
            try:
                status, payload = await conn.request(
                    op, body, self.timeout_s
                )
            except asyncio.TimeoutError:
                self.counters.add("fault_verb_timeout")
                raise VerbTimeout(
                    f"{verb} to node {node.node_id} timed out after "
                    f"{self.timeout_s}s",
                    verb=verb, node_id=node.node_id,
                ) from None
            except RequestNotSent as exc:
                last_exc = exc
            except (ConnectionError, OSError) as exc:
                if op == wire.OP_CAS:
                    return await self._resolve_cas(node, verb, body)
                last_exc = exc
                if op not in wire.RESEND_SAFE_OPS and op not in (
                    wire.OP_RPC, wire.OP_FAA
                ):
                    break  # no safe replay for this opcode (OP_SHUTDOWN)
            else:
                if probing:
                    health.mark_up(node.node_id)
                if obs is not None:
                    self._obs_record(
                        verb, (time.perf_counter() - start_pc) * 1e6
                    )
                return self._decode(node, verb, status, payload)
            if attempt < RESEND_ATTEMPTS:
                self.counters.add("conn_resend")
                await asyncio.sleep(backoff_s(
                    attempt, base_s=RESEND_BACKOFF_S,
                    ceiling_s=RESEND_BACKOFF_MAX_S,
                    jitter=0.25, rng=self._rng,
                ))
        if health is not None:
            health.report_down(node.node_id)
        self.counters.add("fault_node_unavailable")
        raise NodeUnavailable(
            f"node {node.node_id} is unreachable ({verb}: {last_exc})",
            verb=verb, node_id=node.node_id,
        ) from last_exc

    def _obs_record(self, verb: str, roundtrip_us: float) -> None:
        """Record one successful roundtrip (armed processes only).

        Histograms are bound lazily per verb string and cached, so the
        steady state is one dict hit + one record; labels use the verb
        base (``rpc:alloc_segment`` → ``rpc``) to keep cardinality flat.
        """
        hist = self._obs_hist.get(verb)
        if hist is None:
            hist = self._obs_proc.registry.histogram(
                "verb.roundtrip_us", verb=verb.split(":", 1)[0]
            )
            self._obs_hist[verb] = hist
        hist.record(roundtrip_us)

    async def _resolve_cas(self, node: NodeHandle, verb: str,
                           body: bytes) -> bytes:
        """Disambiguate a CAS whose response was lost by reading the word.

        If the word now holds ``new``, the CAS (or an equivalent one)
        applied — report success by returning ``expected`` (a CAS's
        result is the pre-swap value).  If it still holds ``expected``,
        the CAS provably has not applied yet, so resending is safe.  Any
        other value means a competitor won — return it as the ordinary
        failure result.  The known blind spot is ABA (the word left
        ``expected`` and came back) — impossible for this codebase's CAS
        targets, which are monotonic version words and pointer installs
        of never-reused fresh blocks.
        """
        self.counters.add("cas_fate_resolved")
        addr, expected, new = wire.CAS_BODY.unpack(body)
        raw = await self._roundtrip(
            node, f"{verb}:fate", wire.OP_READ, wire.READ_BODY.pack(addr, 8)
        )
        (observed,) = wire.U64.unpack(raw)
        if observed == expected and expected != new:
            return await self._roundtrip(node, verb, wire.OP_CAS, body)
        if observed == new:
            return wire.U64.pack(expected)
        return wire.U64.pack(observed)

    # -- verbs (generators, same surface as RdmaEndpoint) -----------------

    def read(self, addr: int, length: int) -> Generator:
        if self.fence is not None:
            self.fence.check_read(addr, "read", -1)
        node = self._node_for(addr, length)
        self.counters.add("rdma_read")
        if self.shm_reads and node._seg is not None:
            self.counters.add("shm_direct_read")
            return node.read_direct(addr, length)
        payload = yield self._roundtrip(
            node, "read", wire.OP_READ, wire.READ_BODY.pack(addr, length)
        )
        return payload

    def write(self, addr: int, data: bytes) -> Generator:
        if self.fence is not None:
            self.fence.check_write(addr, "write", -1)
        node = self._node_for(addr, len(data))
        self.counters.add("rdma_write")
        yield self._roundtrip(
            node, "write", wire.OP_WRITE,
            wire.WRITE_HDR.pack(addr) + bytes(data),
        )

    def cas(self, addr: int, expected: int, new: int) -> Generator:
        if self.fence is not None:
            self.fence.check_write(addr, "cas", -1)
        node = self._node_for(addr, 8)
        self.counters.add("rdma_cas")
        payload = yield self._roundtrip(
            node, "cas", wire.OP_CAS,
            wire.CAS_BODY.pack(
                addr, expected & 0xFFFFFFFFFFFFFFFF, new & 0xFFFFFFFFFFFFFFFF
            ),
        )
        return wire.U64.unpack(payload)[0]

    def faa(self, addr: int, delta: int) -> Generator:
        if self.fence is not None:
            self.fence.check_write(addr, "faa", -1)
        node = self._node_for(addr, 8)
        self.counters.add("rdma_faa")
        payload = yield self._roundtrip(
            node, "faa", wire.OP_FAA, wire.FAA_BODY.pack(addr, delta)
        )
        return wire.U64.unpack(payload)[0]

    def read_burst(self, addr: int, length: int, count: int) -> Generator:
        """No doorbell batching over sockets; serve the burst as reads."""
        data = b""
        for _ in range(max(count, 1)):
            data = yield from self.read(addr, length)
        return data

    def rpc(self, node: NodeHandle, op: str, payload=None,
            size: int = 64) -> Generator:
        """Controller RPC; ``size`` (a sim cost-model hint) is ignored."""
        if self.fence is not None:
            self.fence.check_rpc(node.node_id, "rpc")
        self.counters.add("rdma_rpc")
        # Dedup token (0 for chaos/debug control RPCs, which are
        # idempotent by construction): a resent frame carries the same
        # token, so the server replays the memoized first result instead
        # of executing twice.
        token = 0 if op.startswith("__") else self._next_token()
        raw = yield self._roundtrip(
            node, f"rpc:{op}", wire.OP_RPC, wire.pack_rpc(op, payload, token)
        )
        return pickle.loads(raw)

    # -- asynchronous (unsignalled) posts ---------------------------------

    def _post_safely(self, gen: Generator) -> Generator:
        from ..rdma.verbs import RdmaFaultError

        try:
            yield from gen
        except StaleEpoch:
            self.counters.add("fenced_post_dropped")
        except RdmaFaultError:
            self.counters.add("fault_post_dropped")

    def post_write(self, addr: int, data: bytes):
        return self.engine.spawn(
            self._post_safely(self.write(addr, data)), name="post_write"
        )

    def post_faa(self, addr: int, delta: int):
        return self.engine.spawn(
            self._post_safely(self.faa(addr, delta)), name="post_faa"
        )

    # -- lifecycle ---------------------------------------------------------

    async def aclose(self) -> None:
        conns = list(self._conns.values())
        self._conns.clear()
        for conn in conns:
            await conn.close()
        if self.shm_reads:
            for node in self.nodes:
                node.detach()
