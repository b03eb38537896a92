"""Block-drawn YCSB streams equal the per-request reference, draw for draw.

``YCSBWorkload.requests`` draws each call in numpy blocks.  The reference
below is the per-request loop it replaced: one op draw per request and, for
workload D, one single-key ``sample(1)`` "latest" draw per read.  Both must
give the same stream, across split calls and ``request_stream`` chunks, and
that stream's digest is frozen so any change to it is deliberate.
"""

import hashlib
from typing import List

import numpy as np
import pytest

from repro.workloads import (YCSB_MIXES, LatestGenerator, YCSBConfig,
                             YCSBWorkload, ZipfianGenerator)

N_KEYS = 1_000
SEED = 5
CALLS = (0, 1, 7, 2000, 64)
STREAM_COUNT = 300
STREAM_CHUNK = 64
CLIENT_IDS = (0, 3)

#: sha256 of :func:`_stream_text` over every workload and client id, as the
#: per-request loop produced it before requests were drawn in blocks.
FROZEN_SHA256 = "73cd04a45f625b6063e2046761a921d80ca56d7e197d3d0f2085a7b8a8dcb08e"


class _Reference:
    """The per-request loop: one scalar draw per request, as seeded."""

    def __init__(self, config: YCSBConfig):
        self.config = config
        read, _update, insert = YCSB_MIXES[config.workload]
        self.read_frac, self.insert_frac = read, insert
        self.zipf = ZipfianGenerator(config.n_keys, theta=config.theta,
                                     seed=config.seed)
        self.latest = LatestGenerator(config.n_keys, theta=config.theta,
                                      seed=config.seed + 1)
        self.rng = np.random.default_rng(config.seed + 2)
        self.newest = config.n_keys - 1

    def _physical(self, logical: int) -> int:
        if logical < self.config.n_keys:
            return logical
        return logical + self.config.client_id * self.config.insert_space

    def requests(self, count: int) -> List:
        out = []
        for _ in range(count):
            draw = float(self.rng.random(1)[0])
            if self.config.workload == "D":
                if draw < self.insert_frac:
                    self.newest += 1
                    out.append(("insert", self._physical(self.newest)))
                else:
                    logical = int(self.latest.sample(1, self.newest)[0])
                    out.append(("read", self._physical(logical)))
            else:
                key = int(self.zipf.sample(1)[0])
                op = "read" if draw < self.read_frac else "update"
                out.append((op, key))
        return out


def _config(workload: str, client_id: int) -> YCSBConfig:
    return YCSBConfig(workload=workload, n_keys=N_KEYS, seed=SEED,
                      client_id=client_id)


def _calls(wl) -> List:
    """The calls in ``CALLS`` in sequence on one generator."""
    out = []
    for count in CALLS:
        batch = wl.requests(count)
        assert len(batch) == count
        out.extend(batch)
    return out


def _stream_text(workload: str, client_id: int) -> str:
    wl = YCSBWorkload(_config(workload, client_id))
    requests = _calls(wl)
    requests += list(wl.request_stream(STREAM_COUNT, chunk=STREAM_CHUNK))
    return "\n".join(f"{workload} {client_id} {op} {key}"
                     for op, key in requests)


@pytest.mark.parametrize("client_id", CLIENT_IDS)
@pytest.mark.parametrize("workload", "ABCD")
def test_split_calls_match_reference(workload, client_id):
    block = YCSBWorkload(_config(workload, client_id))
    ref = _Reference(_config(workload, client_id))
    got = _calls(block)
    want = _calls(ref)
    assert got == want
    for op, key in got:
        assert type(op) is str and type(key) is int


@pytest.mark.parametrize("client_id", CLIENT_IDS)
@pytest.mark.parametrize("workload", "ABCD")
def test_request_stream_matches_reference(workload, client_id):
    block = YCSBWorkload(_config(workload, client_id))
    ref = _Reference(_config(workload, client_id))
    got = list(block.request_stream(STREAM_COUNT, chunk=STREAM_CHUNK))
    want = []
    for start in range(0, STREAM_COUNT, STREAM_CHUNK):
        want += ref.requests(min(STREAM_CHUNK, STREAM_COUNT - start))
    assert got == want


def test_one_block_equals_any_split():
    whole = YCSBWorkload(_config("D", 3)).requests(sum(CALLS))
    assert _calls(YCSBWorkload(_config("D", 3))) == whole


def test_workload_d_reads_own_inserts():
    """The frozen D stream reaches the insert range, so the mapping counts."""
    requests = YCSBWorkload(_config("D", 3)).requests(sum(CALLS))
    own_base = N_KEYS + 3 * YCSBConfig().insert_space
    assert any(op == "read" and key >= own_base for op, key in requests)


def test_frozen_stream_digest():
    text = "\n".join(_stream_text(w, c) for w in "ABCD" for c in CLIENT_IDS)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_SHA256
