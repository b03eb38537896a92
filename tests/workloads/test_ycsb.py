"""Tests for YCSB workload generation."""

import pytest

from repro.workloads import YCSBConfig, YCSB_MIXES, make_ycsb


class TestMixes:
    @pytest.mark.parametrize(
        "workload,read_frac", [("A", 0.5), ("B", 0.95), ("C", 1.0)]
    )
    def test_read_fractions(self, workload, read_frac):
        wl = make_ycsb(workload, n_keys=1000, seed=2)
        requests = wl.requests(20_000)
        reads = sum(1 for op, _ in requests if op == "read")
        assert reads / len(requests) == pytest.approx(read_frac, abs=0.02)

    def test_workload_c_is_read_only(self):
        wl = make_ycsb("C", n_keys=100, seed=1)
        assert all(op == "read" for op, _ in wl.requests(5000))

    def test_workload_a_has_updates_not_inserts(self):
        wl = make_ycsb("A", n_keys=100, seed=1)
        ops = {op for op, _ in wl.requests(5000)}
        assert ops == {"read", "update"}

    def test_workload_d_inserts_new_keys(self):
        wl = make_ycsb("D", n_keys=1000, seed=1)
        requests = wl.requests(10_000)
        inserts = [key for op, key in requests if op == "insert"]
        assert len(inserts) == pytest.approx(500, abs=100)
        # inserts extend the key space monotonically
        assert inserts == sorted(inserts)
        assert inserts[0] == 1000

    def test_mix_table_complete(self):
        assert set(YCSB_MIXES) == {"A", "B", "C", "D"}
        for read, update, insert in YCSB_MIXES.values():
            assert read + update + insert == pytest.approx(1.0)


class TestConfig:
    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            YCSBConfig(workload="Z")

    def test_lowercase_accepted(self):
        assert YCSBConfig(workload="c").workload == "C"

    def test_keys_in_range(self):
        wl = make_ycsb("B", n_keys=500, seed=3)
        assert all(0 <= key < 500 for _, key in wl.requests(5000))

    def test_deterministic(self):
        a = make_ycsb("A", n_keys=100, seed=9).requests(100)
        b = make_ycsb("A", n_keys=100, seed=9).requests(100)
        assert a == b

    def test_load_keys(self):
        wl = make_ycsb("C", n_keys=100, seed=1)
        assert list(wl.load_keys()) == list(range(100))

    def test_builds_only_the_generator_its_mix_draws_from(self):
        a = make_ycsb("A", n_keys=100, seed=1)
        d = make_ycsb("D", n_keys=100, seed=1)
        a.requests(100)
        d.requests(100)
        assert "_latest" not in vars(a) and "_zipf" in vars(a)
        assert "_zipf" not in vars(d) and "_latest" in vars(d)

    def test_request_stream_chunks(self):
        wl = make_ycsb("C", n_keys=100, seed=1)
        stream = list(wl.request_stream(1000, chunk=64))
        assert len(stream) == 1000
