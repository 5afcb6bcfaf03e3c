"""Tests for reproducible random streams."""

import numpy as np
import pytest

from repro.engine import RandomStream


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert RandomStream(1).uniform() != RandomStream(2).uniform()

    def test_fork_is_order_independent(self):
        root1 = RandomStream(7)
        root2 = RandomStream(7)
        a1 = root1.fork("arrivals")
        _ = root1.fork("service")
        _ = root2.fork("service")
        a2 = root2.fork("arrivals")
        assert a1.uniform() == a2.uniform()

    def test_fork_streams_are_distinct(self):
        root = RandomStream(7)
        assert root.fork("a").uniform() != root.fork("b").uniform()

    def test_exponential_mean(self):
        stream = RandomStream(3)
        draws = [stream.exponential(2.0) for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.1)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RandomStream(0).exponential(0.0)

    def test_lognormal_median(self):
        stream = RandomStream(4)
        draws = [stream.lognormal(5.0, 0.5) for _ in range(5001)]
        assert np.median(draws) == pytest.approx(5.0, rel=0.15)

    def test_pareto_minimum_is_scale(self):
        stream = RandomStream(5)
        draws = [stream.pareto(2.0, 3.0) for _ in range(1000)]
        assert min(draws) >= 3.0

    def test_zipf_indices_skewed_toward_head(self):
        stream = RandomStream(6)
        idx = stream.zipf_indices(100, skew=1.2, size=10000)
        assert idx.min() >= 0 and idx.max() < 100
        head = np.mean(idx < 10)
        tail = np.mean(idx >= 90)
        assert head > 5 * tail

    def test_zipf_zero_skew_is_uniform(self):
        stream = RandomStream(8)
        idx = stream.zipf_indices(10, skew=0.0, size=20000)
        counts = np.bincount(idx, minlength=10) / 20000
        assert np.allclose(counts, 0.1, atol=0.02)

    def test_choice_with_weights(self):
        stream = RandomStream(9)
        picks = [stream.choice(["a", "b"], p=[0.9, 0.1]) for _ in range(1000)]
        assert picks.count("a") > 800

    def test_integer_bounds(self):
        stream = RandomStream(10)
        draws = [stream.integer(3, 6) for _ in range(200)]
        assert set(draws) <= {3, 4, 5}

    def test_shuffle_is_permutation(self):
        stream = RandomStream(11)
        items = list(range(20))
        shuffled = stream.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # original untouched

    def test_poisson_non_negative(self):
        stream = RandomStream(12)
        assert all(stream.poisson(3.0) >= 0 for _ in range(100))
