"""SKAT aggregation."""

import numpy as np
import pytest

from repro.stats.skat import (
    skat_statistic,
    skat_statistics,
    validate_set_ids,
)


class TestSingleSet:
    def test_known_value(self):
        scores = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 0.5, 2.0])
        assert skat_statistic(scores, weights) == pytest.approx(1 + 0.25 * 4 + 4 * 9)

    def test_zero_scores(self):
        assert skat_statistic(np.zeros(5), np.ones(5)) == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            skat_statistic(np.zeros(3), np.ones(4))


class TestVectorized:
    def test_matches_per_set_loop(self, rng):
        J, K = 50, 6
        scores = rng.normal(size=J)
        weights = rng.uniform(0.5, 2.0, J)
        set_ids = rng.integers(0, K, J)
        stats = skat_statistics(scores, weights, set_ids, K)
        for k in range(K):
            members = set_ids == k
            assert stats[k] == pytest.approx(
                skat_statistic(scores[members], weights[members])
            )

    def test_batch_matches_rows(self, rng):
        J, K, B = 30, 4, 8
        scores = rng.normal(size=(B, J))
        weights = rng.uniform(0.5, 2.0, J)
        set_ids = rng.integers(0, K, J)
        batch = skat_statistics(scores, weights, set_ids, K)
        assert batch.shape == (B, K)
        for b in range(B):
            assert np.allclose(batch[b], skat_statistics(scores[b], weights, set_ids, K))

    def test_batch_is_the_row_by_row_bincount_bit_for_bit(self, rng):
        J, K, B = 200, 7, 33
        scores = rng.normal(size=(B, J))
        weights = rng.uniform(0.5, 2.0, J)
        set_ids = rng.integers(0, K - 1, J)  # set K - 1 holds no SNP
        batch = skat_statistics(scores, weights, set_ids, K)
        rows = np.stack([
            np.bincount(set_ids, weights=weights**2 * row**2, minlength=K) for row in scores
        ])
        assert np.array_equal(batch, rows)
        assert np.all(batch[:, K - 1] == 0.0)

    def test_empty_set_zero(self, rng):
        scores = rng.normal(size=5)
        stats = skat_statistics(scores, np.ones(5), np.zeros(5, dtype=int), 3)
        assert stats[1] == 0.0 and stats[2] == 0.0

    def test_order_invariance(self, rng):
        J, K = 40, 5
        scores = rng.normal(size=J)
        weights = rng.uniform(0.5, 2.0, J)
        set_ids = rng.integers(0, K, J)
        perm = rng.permutation(J)
        a = skat_statistics(scores, weights, set_ids, K)
        b = skat_statistics(scores[perm], weights[perm], set_ids[perm], K)
        assert np.allclose(a, b)

    def test_weight_scaling_quadratic(self, rng):
        J, K = 20, 2
        scores = rng.normal(size=J)
        weights = np.ones(J)
        set_ids = rng.integers(0, K, J)
        a = skat_statistics(scores, weights, set_ids, K)
        b = skat_statistics(scores, 3.0 * weights, set_ids, K)
        assert np.allclose(b, 9.0 * a)

    def test_non_negative(self, rng):
        stats = skat_statistics(
            rng.normal(size=100), rng.uniform(0, 2, 100), rng.integers(0, 10, 100), 10
        )
        assert np.all(stats >= 0)


class TestValidation:
    def test_set_ids_shape(self):
        with pytest.raises(ValueError):
            validate_set_ids(np.zeros(3, dtype=int), 2, 4)

    def test_set_ids_dtype(self):
        with pytest.raises(TypeError):
            validate_set_ids(np.zeros(3), 2, 3)

    def test_set_ids_range(self):
        with pytest.raises(ValueError):
            validate_set_ids(np.array([0, 5, 1]), 3, 3)
