"""The protocol-driven verb transport of the real substrate.

Both ends parse frames straight out of ``data_received`` through one
:class:`repro.runtime.wire.FrameSplitter`.  These tests drive the client
:class:`~repro.runtime.client.Connection` and the server's per-connection
protocol with fake transports (chunking, oversized headers, terminal
frames), and live sockets where timing or socket lifetime is the point
(the per-connection deadline timer, reconnects after the peer closes).
"""

from __future__ import annotations

import asyncio
import gc
import random
import sys
import time
import types
import uuid
import warnings
from multiprocessing import resource_tracker

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import wire
from repro.runtime.client import (
    Connection,
    NodeHandle,
    RealEndpoint,
    WallClockRuntime,
    drive,
)
from repro.runtime.server import NodeServer, _NodeConnection
from repro.sim.faults import DOWN, OK

HEAP_SIZE = 1 << 16
SCRATCH = 1024  # raw-verb playground: no segment grants here


class FakeTransport(asyncio.Transport):
    """Records writes; closing reports the loss to the protocol."""

    def __init__(self):
        super().__init__()
        self.protocol = None
        self.writes = []
        self.closed = False
        self.aborted = False

    def set_protocol(self, protocol):
        self.protocol = protocol

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closed

    def close(self):
        if not self.closed:
            self.closed = True
            if self.protocol is not None:
                self.protocol.connection_lost(None)

    def abort(self):
        self.aborted = True
        self.close()

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def _chunks(stream: bytes, cut) -> list:
    """Cut ``stream`` by a chunking plan: 'bytes', 'whole' or sizes."""
    if cut == "whole":
        return [stream]
    sizes = [1] if cut == "bytes" else cut
    out, pos, i = [], 0, 0
    while pos < len(stream):
        step = sizes[i % len(sizes)]
        out.append(stream[pos : pos + step])
        pos += step
        i += 1
    return out


def _split_all(data: bytes) -> list:
    """Reference parse of a complete stream: every frame, header off."""
    frames, pos = [], 0
    while pos < len(data):
        (length,) = wire.HEADER.unpack_from(data, pos)
        frames.append(data[pos + wire.HEADER.size : pos + wire.HEADER.size
                           + length])
        pos += wire.HEADER.size + length
    return frames


CUTS = st.one_of(
    st.just("bytes"),
    st.just("whole"),
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
)


def _in_process_server() -> NodeServer:
    server = NodeServer(0, 0, HEAP_SIZE, reserve=4096,
                        run_id=f"proto-{uuid.uuid4().hex[:8]}")
    # NodeServer opts its heap out of the resource tracker, yet unlink()
    # unregisters it again; in a test process that has no server-process
    # exit to hide behind, re-register so the tracker stays quiet.
    resource_tracker.register(server.shm._name, "shared_memory")
    return server


@pytest.fixture(scope="module")
def node_server():
    server = _in_process_server()
    try:
        yield server
    finally:
        server.close()


def _attach(server: NodeServer):
    conn = _NodeConnection(server)
    transport = FakeTransport()
    transport.set_protocol(conn)
    conn.connection_made(transport)
    return conn, transport


# -- framing ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(bodies=st.lists(st.binary(max_size=200), max_size=12), cut=CUTS)
def test_splitter_yields_frames_in_order_under_any_chunking(bodies, cut):
    stream = b"".join(wire.HEADER.pack(len(b)) + b for b in bodies)
    splitter = wire.FrameSplitter()
    frames = []
    for chunk in _chunks(stream, cut):
        frames.extend(splitter.feed(chunk))
    assert frames == bodies


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(("write", "read", "ping")),
                  st.integers(0, 63), st.binary(min_size=1, max_size=48)),
        min_size=1, max_size=16,
    ),
    cut=CUTS,
)
def test_server_protocol_executes_chunked_requests_in_order(
        node_server, ops, cut):
    requests = []
    for req_id, (kind, slot, data) in enumerate(ops, start=1):
        addr = SCRATCH + slot * 64
        if kind == "write":
            frame = wire.request_frame(
                wire.OP_WRITE, req_id, wire.WRITE_HDR.pack(addr) + data)
        elif kind == "read":
            frame = wire.request_frame(
                wire.OP_READ, req_id, wire.READ_BODY.pack(addr, 48))
        else:
            frame = wire.request_frame(wire.OP_PING, req_id)
        requests.append(frame)
    stream = b"".join(requests)

    def responses(chunks):
        node_server.node.write_bytes(SCRATCH, bytes(64 * 64))
        conn, transport = _attach(node_server)
        for chunk in chunks:
            conn.data_received(chunk)
        return _split_all(b"".join(transport.writes))

    reference = responses([stream])
    got = responses(_chunks(stream, cut))
    assert got == reference
    assert [wire.RESP.unpack_from(f)[0] for f in got] == list(
        range(1, len(ops) + 1))


@settings(max_examples=100, deadline=None)
@given(
    bodies=st.lists(st.binary(max_size=120), min_size=1, max_size=12),
    cut=CUTS,
    order_seed=st.integers(0, 2**16),
)
def test_client_protocol_resolves_chunked_responses(bodies, cut,
                                                    order_seed):
    async def scenario():
        transport = FakeTransport()
        conn = Connection(None, types.SimpleNamespace(transport=transport))
        tasks = [
            asyncio.ensure_future(conn.request(wire.OP_PING, b"", 5.0))
            for _ in bodies
        ]
        await asyncio.sleep(0)  # the requests queue their frames
        await asyncio.sleep(0)  # the tick's frames go out together
        assert len(transport.writes) == 1
        ids = [wire.REQ.unpack_from(f)[1] for f in
               _split_all(b"".join(transport.writes))]
        order = list(range(len(bodies)))
        random.Random(order_seed).shuffle(order)
        stream = b"".join(
            wire.response_frame(ids[i], wire.ST_OK, bodies[i]) for i in order
        )
        for chunk in _chunks(stream, cut):
            conn.data_received(chunk)
        results = await asyncio.gather(*tasks)
        assert results == [(wire.ST_OK, b) for b in bodies]
        assert conn._pending == {}

    asyncio.run(scenario())


def test_client_oversized_header_fails_pending_and_closes():
    async def scenario():
        transport = FakeTransport()
        conn = Connection(None, types.SimpleNamespace(transport=transport))
        tasks = [
            asyncio.ensure_future(conn.request(wire.OP_PING, b"", 5.0))
            for _ in range(3)
        ]
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        conn.data_received(wire.HEADER.pack(wire.MAX_FRAME + 1) + b"junk")
        for task in tasks:
            with pytest.raises(ConnectionResetError):
                await task
        assert transport.closed and transport.aborted
        assert conn._pending == {} and conn._timer is None

    asyncio.run(scenario())


def test_server_oversized_header_drops_the_connection(node_server):
    conn, transport = _attach(node_server)
    conn.data_received(wire.HEADER.pack(wire.MAX_FRAME + 1))
    assert transport.aborted and transport.writes == []
    assert conn not in node_server._conns


# -- terminal frames -------------------------------------------------------


def _write_frame(req_id: int, addr: int, data: bytes) -> bytes:
    return wire.request_frame(wire.OP_WRITE, req_id,
                              wire.WRITE_HDR.pack(addr) + data)


def test_shutdown_flushes_earlier_responses_and_skips_later_frames(
        node_server):
    a, b = SCRATCH + 4096, SCRATCH + 4160
    node_server.node.write_bytes(a, bytes(8))
    node_server.node.write_bytes(b, bytes(8))
    node_server._stop.clear()
    conn, transport = _attach(node_server)
    conn.data_received(
        _write_frame(1, a, b"AAAAAAAA")
        + wire.request_frame(wire.OP_SHUTDOWN, 2)
        + _write_frame(3, b, b"BBBBBBBB")
    )
    assert node_server.node.read_bytes(a, 8) == b"AAAAAAAA"
    assert node_server.node.read_bytes(b, 8) == bytes(8)
    assert transport.writes == [
        wire.response_frame(1, wire.ST_OK)
        + wire.response_frame(2, wire.ST_OK)
    ]
    assert transport.closed and node_server._stop.is_set()
    node_server._stop.clear()


class _DownOnSecond:
    """Stub chaos gate: the second verb it sees falls in an outage."""

    def __init__(self):
        self.seen = 0

    def verb_outcome(self, verb):
        self.seen += 1
        return (DOWN, 0.0) if self.seen == 2 else (OK, 0.0)


def test_down_verdict_flushes_earlier_responses_and_skips_later_frames(
        node_server):
    a, x, b = SCRATCH + 4224, SCRATCH + 4288, SCRATCH + 4352
    for addr in (a, x, b):
        node_server.node.write_bytes(addr, bytes(8))
    node_server.gate = _DownOnSecond()
    try:
        conn, transport = _attach(node_server)
        conn.data_received(
            _write_frame(1, a, b"AAAAAAAA")
            + _write_frame(2, x, b"XXXXXXXX")
            + _write_frame(3, b, b"BBBBBBBB")
        )
    finally:
        node_server.gate = None
    assert node_server.node.read_bytes(a, 8) == b"AAAAAAAA"
    assert node_server.node.read_bytes(x, 8) == bytes(8)
    assert node_server.node.read_bytes(b, 8) == bytes(8)
    assert transport.writes == [wire.response_frame(1, wire.ST_OK)]
    assert transport.closed


# -- live sockets ----------------------------------------------------------


def test_deadline_timer_times_out_one_request_without_blocking_others():
    async def scenario():
        server = _in_process_server()
        ready = asyncio.get_running_loop().create_future()
        serving = asyncio.ensure_future(server.run(announce=ready.set_result))
        try:
            line = await ready
            port = int(dict(p.split("=", 1) for p in line.split()[1:])
                       ["port"])
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            conn = Connection(reader, writer)
            finished = []

            async def tagged(name, coro):
                try:
                    return await coro
                finally:
                    finished.append((name, time.perf_counter()))

            t0 = time.perf_counter()
            rpc = asyncio.ensure_future(tagged("rpc", conn.request(
                wire.OP_RPC, wire.pack_rpc("__sleep__", 0.3), 0.1)))
            ping = asyncio.ensure_future(tagged("ping", conn.request(
                wire.OP_PING, b"", 5.0)))
            assert await ping == (wire.ST_OK, b"")
            with pytest.raises(asyncio.TimeoutError):
                await rpc
            assert [name for name, _ in finished] == ["ping", "rpc"]
            assert finished[1][1] - t0 >= 0.1
            # The late __sleep__ response arrives and is dropped silently.
            await asyncio.sleep(0.35)
            assert conn._broken is None
            assert conn._pending == {} and conn._timer is None
            assert await conn.request(wire.OP_PING, b"", 5.0) == (
                wire.ST_OK, b"")
            await conn.close()
        finally:
            server._stop.set()
            await serving

    asyncio.run(scenario())


def test_reconnects_close_the_connections_they_replace():
    """A peer that closes after every response must not leak sockets."""
    unraisable = []

    async def scenario():
        async def answer_once(reader, writer):
            (length,) = wire.HEADER.unpack(
                await reader.readexactly(wire.HEADER.size))
            _op, req_id = wire.REQ.unpack_from(
                await reader.readexactly(length))
            writer.write(wire.response_frame(req_id, wire.ST_OK, bytes(8)))
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        listener = await asyncio.start_server(answer_once, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        node = NodeHandle(0, 0, HEAP_SIZE, "127.0.0.1", port)
        ep = RealEndpoint(WallClockRuntime(), [node], timeout_s=5.0)
        try:
            for _ in range(5):
                assert await drive(ep.read(SCRATCH, 8)) == bytes(8)
            gc.collect()
            open_to_node = [
                obj for obj in gc.get_objects()
                if isinstance(obj, asyncio.Transport)
                and not obj.is_closing()
                and (obj.get_extra_info("peername") or ("", 0))[1] == port
            ]
            assert len(open_to_node) <= 1
        finally:
            await ep.aclose()
            listener.close()
            await listener.wait_closed()

    hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            asyncio.run(scenario())
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [u.exc_value for u in unraisable] == []
