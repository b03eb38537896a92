"""YCSB core workloads A-D (Cooper et al., SoCC'10) as request streams.

A request is ``(op, key_id)`` with op in {"read", "update", "insert"}.  The
paper's setup: 10 million pre-loaded 256-byte key-value pairs, Zipfian with
θ = 0.99.  Workload D inserts new keys and reads with the "latest"
distribution.

Each ``requests(n)`` call draws its op mix and keys as whole numpy blocks,
with no numpy call per request.  Consecutive calls and ``request_stream``
chunks continue one stream.  ``tests/workloads/test_ycsb_block_identity.py``
pins that stream against a per-request reference loop and a frozen digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Tuple

import numpy as np

from .zipf import LatestGenerator, ZipfianGenerator

Request = Tuple[str, int]

#: (read fraction, update fraction, insert fraction) per core workload.
YCSB_MIXES = {
    "A": (0.50, 0.50, 0.0),
    "B": (0.95, 0.05, 0.0),
    "C": (1.00, 0.00, 0.0),
    "D": (0.95, 0.00, 0.05),
}


@dataclass
class YCSBConfig:
    workload: str = "C"
    n_keys: int = 10_000_000
    theta: float = 0.99
    value_bytes: int = 256
    seed: int = 0
    #: Workload D only: this generator's inserts land in a private key range
    #: (``n_keys + client_id * insert_space + i``), mirroring YCSB's
    #: globally-unique new record IDs when many clients insert concurrently.
    client_id: int = 0
    insert_space: int = 1 << 20

    def __post_init__(self) -> None:
        self.workload = self.workload.upper()
        if self.workload not in YCSB_MIXES:
            raise ValueError(f"unknown YCSB workload {self.workload!r}")


class YCSBWorkload:
    """Generates load keys and request streams for one core workload."""

    def __init__(self, config: YCSBConfig):
        self.config = config
        mix = YCSB_MIXES[config.workload]
        self._read_frac, self._update_frac, self._insert_frac = mix
        self._rng = np.random.default_rng(config.seed + 2)
        self._newest = config.n_keys - 1  # logical key space: base + own inserts

    # Key generators are built on first use: A-C draw only from the Zipfian,
    # D only from "latest".  Each owns its seeded RNG, so building one or
    # both does not change either stream.
    @cached_property
    def _zipf(self) -> ZipfianGenerator:
        return ZipfianGenerator(
            self.config.n_keys, theta=self.config.theta, seed=self.config.seed
        )

    @cached_property
    def _latest(self) -> LatestGenerator:
        return LatestGenerator(
            self.config.n_keys, theta=self.config.theta, seed=self.config.seed + 1
        )

    def load_keys(self) -> range:
        """Keys pre-loaded before the measured run (sharded across clients)."""
        return range(self.config.n_keys)

    def requests(self, count: int) -> List[Request]:
        """Materialize the next ``count`` requests, drawn in numpy blocks."""
        ops = self._rng.random(count)
        if self.config.workload == "D":
            return self._requests_d(ops)
        keys = self._zipf.sample(count)
        read_cut = self._read_frac
        return [
            ("read" if draw < read_cut else "update", key)
            for draw, key in zip(ops.tolist(), keys.tolist())
        ]

    def _requests_d(self, ops: np.ndarray) -> List[Request]:
        """Workload D: inserts extend the key space, reads skew to the newest.

        A read sees every insert before it in the stream, so its "latest"
        draw is taken against the running ``newest`` at its position.
        """
        is_insert = ops < self._insert_frac
        newest = self._newest + np.cumsum(is_insert)
        is_read = ~is_insert
        logical = newest.copy()
        logical[is_read] = self._latest.sample(int(is_read.sum()), newest[is_read])
        self._newest += int(is_insert.sum())
        # Own inserts live at n_keys + client_id * insert_space + i.
        shift = self.config.client_id * self.config.insert_space
        physical = np.where(logical < self.config.n_keys, logical, logical + shift)
        return [
            ("insert" if insert else "read", key)
            for insert, key in zip(is_insert.tolist(), physical.tolist())
        ]

    def request_stream(self, count: int, chunk: int = 4096) -> Iterator[Request]:
        """Memory-frugal request iterator."""
        remaining = count
        while remaining > 0:
            batch = self.requests(min(chunk, remaining))
            remaining -= len(batch)
            yield from batch


def make_ycsb(workload: str, n_keys: int = 100_000, seed: int = 0, **kwargs) -> YCSBWorkload:
    """Convenience constructor: ``make_ycsb("C", n_keys=1_000_000)``."""
    return YCSBWorkload(YCSBConfig(workload=workload, n_keys=n_keys, seed=seed, **kwargs))
