"""Tests for key-distribution generators."""

import numpy as np
import pytest

from repro.workloads import LatestGenerator, UniformGenerator, ZipfianGenerator


class TestZipfian:
    def test_keys_in_range(self):
        gen = ZipfianGenerator(1000, seed=1)
        keys = gen.sample(5000)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_deterministic_by_seed(self):
        a = ZipfianGenerator(1000, seed=7).sample(100)
        b = ZipfianGenerator(1000, seed=7).sample(100)
        assert np.array_equal(a, b)

    def test_skew_increases_with_theta(self):
        def top_share(theta):
            gen = ZipfianGenerator(1000, theta=theta, seed=3, scramble=False)
            keys = gen.sample(20_000)
            _, counts = np.unique(keys, return_counts=True)
            return counts.max() / len(keys)

        assert top_share(1.2) > top_share(0.6) > top_share(0.0)

    def test_unscrambled_rank_zero_most_popular(self):
        gen = ZipfianGenerator(100, theta=0.99, seed=2, scramble=False)
        keys = gen.sample(20_000)
        values, counts = np.unique(keys, return_counts=True)
        assert values[np.argmax(counts)] == 0

    def test_scramble_spreads_popularity(self):
        gen = ZipfianGenerator(1000, theta=0.99, seed=2, scramble=True)
        keys = gen.sample(20_000)
        values, counts = np.unique(keys, return_counts=True)
        # most popular key need not be 0 once scrambled
        assert counts.max() / 20_000 > 0.01

    def test_theta_zero_is_uniform(self):
        gen = ZipfianGenerator(10, theta=0.0, seed=4)
        keys = gen.sample(50_000)
        _, counts = np.unique(keys, return_counts=True)
        assert counts.min() > 0.08 * 50_000

    def test_sample_one(self):
        (key,) = ZipfianGenerator(10, seed=1).sample(1)
        assert 0 <= key < 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=-1)


class TestUniform:
    def test_range_and_determinism(self):
        gen = UniformGenerator(50, seed=3)
        keys = gen.sample(1000)
        assert keys.min() >= 0 and keys.max() < 50
        assert np.array_equal(keys, UniformGenerator(50, seed=3).sample(1000))


class TestLatest:
    def test_skews_toward_newest(self):
        gen = LatestGenerator(10_000, seed=5)
        keys = gen.sample(10_000, newest=9_999)
        assert np.median(keys) > 8_000

    def test_in_range(self):
        gen = LatestGenerator(100, seed=5)
        keys = gen.sample(1000, newest=50)
        assert keys.min() >= 0 and keys.max() <= 50

    def test_per_draw_newest_matches_single_draws(self):
        newest = np.arange(99, 99 + 2000) // 3
        block = LatestGenerator(100, seed=5).sample(len(newest), newest)
        single = LatestGenerator(100, seed=5)
        one_by_one = [int(single.sample(1, int(n))[0]) for n in newest]
        assert block.tolist() == one_by_one
        assert (block >= 0).all() and (block <= newest).all()
