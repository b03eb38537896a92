"""Self-tests of the benchmark's own output checks.

Each test breaks one thing the benchmark must notice and asserts that the
whole run fails: ``correct`` is false in the printed result and the exit
code is 1.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import layers, live, run, sim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(capsys, workload: str, seconds: str = "1"):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", seconds, "--trace", "0"])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.fixture
def quick_live(monkeypatch):
    monkeypatch.setattr(live, "SETUPS", 1)


@pytest.fixture
def quick_sim(monkeypatch):
    monkeypatch.setattr(sim, "MIN_UNITS", 1)
    monkeypatch.setattr(sim, "WARM_US", 200.0)
    monkeypatch.setattr(sim, "WINDOW_US", 400.0)
    monkeypatch.setattr(sim, "REQUESTS_PER_CLIENT", 200)


def test_clean_live_run_passes(capsys, quick_live):
    code, result, _out = _run(capsys, "live-churn")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


def test_wrong_value_get_fails_the_run(capsys, monkeypatch, quick_live):
    """Store other bytes than asked: every Get hit returns a wrong value."""
    from repro.core.client import DittoClient

    real_set = DittoClient.set
    monkeypatch.setattr(
        DittoClient, "set",
        lambda self, key, value: real_set(self, key, b"x" * len(value)))
    code, result, out = _run(capsys, "live-churn")
    assert code == 1 and not result["correct"]
    assert result["failed"] > 0
    assert "returned bytes other than the value written" in out


def test_leaked_segment_fails_the_run(capsys, monkeypatch, quick_live):
    """SIGKILL the memory node at shutdown: its heap segment stays."""
    harness_cls = live.RealClusterHarness
    real_shutdown = harness_cls.shutdown

    def killing_shutdown(self, *args, **kwargs):
        self.kill_node(0)
        return real_shutdown(self, *args, **kwargs)

    monkeypatch.setattr(harness_cls, "shutdown", killing_shutdown)
    code, result, out = _run(capsys, "live-churn")
    assert code == 1 and not result["correct"]
    assert "leaked_shm" in out and "leftover shared-memory segments" in out


def test_dirty_invariant_sweep_fails_the_run(capsys, monkeypatch, quick_sim):
    """Drift the memory budget ledger: the post-phase sweep must object."""
    real_build = sim.build_ditto

    def drifting_build(*args, **kwargs):
        cluster = real_build(*args, **kwargs)
        cluster.budget.used_bytes += 1
        return cluster

    monkeypatch.setattr(sim, "build_ditto", drifting_build)
    code, result, out = _run(capsys, "sim-ycsb", seconds="0")
    assert code == 1 and not result["correct"]
    assert "invariant sweep" in out and "budget ledger drift" in out


def test_short_replay_fails_the_run(capsys, monkeypatch):
    """Drop one access from a replay: hits + misses no longer add up."""
    real_replay = sim.replay
    monkeypatch.setattr(sim, "MIN_UNITS", 1)
    monkeypatch.setattr(sim, "replay",
                        lambda cache, trace: real_replay(cache, trace[:-1]))
    code, result, out = _run(capsys, "sim-replay", seconds="0")
    assert code == 1 and not result["correct"]
    assert "!= 80000 accesses" in out


def test_miscounting_fast_path_fails_the_run(capsys, monkeypatch):
    """A vectorized replay that counts one eviction too many must disagree
    with the per-key loop, though hits + misses still add up."""
    from repro.cachesim import vectorized

    real_replay = vectorized.replay

    def miscounting_replay(cache, keys):
        hits = real_replay(cache, keys)
        cache.evictions += 1
        return hits

    monkeypatch.setattr(sim, "MIN_UNITS", 1)
    monkeypatch.setattr(vectorized, "replay", miscounting_replay)
    code, result, out = _run(capsys, "sim-replay", seconds="0")
    assert code == 1 and not result["correct"]
    assert "the per-key loop" in out and "!= 80000" not in out


def test_clean_sim_runs_pass(capsys, quick_sim):
    for workload in ("sim-ycsb", "sim-replay"):
        code, result, _out = _run(capsys, workload, seconds="0")
        assert code == 0 and result["correct"], workload


def test_trace_validator_rejects_overlapping_spans(tmp_path):
    bad = {"traceEvents": [
        {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
        {"ph": "X", "name": "b", "ts": 5, "dur": 10, "pid": 1, "tid": 1},
    ]}
    path = tmp_path / "bad.trace.json"
    path.write_text(json.dumps(bad))
    assert "overlaps" in run.validate_trace_file(str(path))


def test_benchmark_json_names_every_metric():
    spec = run.load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(layers.E2E)
    assert [m["name"] for m in spec["per_layer"]] == layers.all_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
