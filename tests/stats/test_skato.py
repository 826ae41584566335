"""Burden and SKAT-O statistics."""

import numpy as np
import pytest

from repro.stats.skat import skat_statistics
from repro.stats.skato import (
    DEFAULT_RHO_GRID,
    burden_statistics,
    skato_grid_statistics,
    skato_resampling,
)
from repro.stats.score.base import SurvivalPhenotype
from repro.stats.score.cox import CoxScoreModel


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(8)
    n, J, K = 100, 60, 5
    pheno = SurvivalPhenotype(rng.exponential(12, n), rng.binomial(1, 0.85, n))
    model = CoxScoreModel(pheno)
    G = rng.binomial(2, 0.3, size=(J, n)).astype(float)
    U = model.contributions(G)
    weights = np.ones(J)
    set_ids = np.repeat(np.arange(K), J // K)
    return U, weights, set_ids, K


class TestBurden:
    def test_known_value(self):
        scores = np.array([1.0, 2.0, -3.0])
        w = np.array([1.0, 0.5, 1.0])
        out = burden_statistics(scores, w, np.zeros(3, dtype=int), 1)
        assert out[0] == pytest.approx((1.0 + 1.0 - 3.0) ** 2)

    def test_batch_matches_rows(self, setup, rng):
        U, w, ids, K = setup
        scores = rng.normal(size=(4, U.shape[0]))
        batch = burden_statistics(scores, w, ids, K)
        for b in range(4):
            assert np.allclose(batch[b], burden_statistics(scores[b], w, ids, K))

    def test_cancellation_vs_skat(self):
        """Opposite-direction effects cancel in burden but not in SKAT."""
        scores = np.array([5.0, -5.0])
        w = np.ones(2)
        ids = np.zeros(2, dtype=int)
        assert burden_statistics(scores, w, ids, 1)[0] == pytest.approx(0.0)
        assert skat_statistics(scores, w, ids, 1)[0] == pytest.approx(50.0)


class TestGrid:
    def test_endpoints(self, setup, rng):
        U, w, ids, K = setup
        scores = rng.normal(size=U.shape[0])
        grid = skato_grid_statistics(scores, w, ids, K, (0.0, 1.0))
        assert np.allclose(grid[:, 0], skat_statistics(scores, w, ids, K))
        assert np.allclose(grid[:, 1], burden_statistics(scores, w, ids, K))

    def test_linear_interpolation(self, setup, rng):
        U, w, ids, K = setup
        scores = rng.normal(size=U.shape[0])
        grid = skato_grid_statistics(scores, w, ids, K, (0.0, 0.5, 1.0))
        assert np.allclose(grid[:, 1], 0.5 * grid[:, 0] + 0.5 * grid[:, 2])

    def test_batch_shape(self, setup, rng):
        U, w, ids, K = setup
        scores = rng.normal(size=(7, U.shape[0]))
        grid = skato_grid_statistics(scores, w, ids, K)
        assert grid.shape == (7, K, len(DEFAULT_RHO_GRID))

    def test_invalid_rho(self, setup, rng):
        U, w, ids, K = setup
        with pytest.raises(ValueError):
            skato_grid_statistics(rng.normal(size=U.shape[0]), w, ids, K, (1.5,))


class TestSkatOResampling:
    def test_pvalues_in_range(self, setup):
        U, w, ids, K = setup
        result = skato_resampling(U, w, ids, K, n_resamples=300, seed=1)
        assert result.pvalues.shape == (K,)
        assert np.all((result.pvalues > 0) & (result.pvalues <= 1))
        assert np.all(np.isin(result.best_rho, DEFAULT_RHO_GRID))

    def test_reproducible(self, setup):
        U, w, ids, K = setup
        a = skato_resampling(U, w, ids, K, 200, seed=2)
        b = skato_resampling(U, w, ids, K, 200, seed=2)
        assert np.array_equal(a.pvalues, b.pvalues)

    def test_min_p_calibration_not_anticonservative(self, setup):
        """The combined p-value must not undercut the best per-rho p by
        more than the multiplicity effect allows (it is calibrated)."""
        U, w, ids, K = setup
        result = skato_resampling(U, w, ids, K, 500, seed=3)
        assert np.all(result.pvalues >= result.per_rho_pvalues.min(axis=1) - 1e-12)

    def test_single_rho_reduces_to_plain_resampling(self, setup):
        U, w, ids, K = setup
        result = skato_resampling(U, w, ids, K, 400, seed=4, rho_grid=(0.0,))
        from repro.stats.resampling.montecarlo import MonteCarloResampler

        mc = MonteCarloResampler(U, w, ids, K).run(400, seed=4, batch_size=128)
        expected = (mc.exceed_counts + 1.0) / (mc.n_resamples + 1.0)
        assert np.allclose(result.per_rho_pvalues[:, 0], expected)
        # min-p over a single rho is calibrated against itself
        assert np.all(np.abs(result.pvalues - expected) < 0.05)

    def test_burden_signal_detected_by_skato(self):
        """Same-direction effects: burden-leaning rho wins; SKAT-O catches
        the signal at least as decisively as the worse of its endpoints."""
        rng = np.random.default_rng(9)
        n, J = 300, 20
        g = rng.binomial(2, 0.3, size=(J, n)).astype(float)
        # all SNPs in the set mildly harmful -> aligned scores
        risk = 0.25 * g[:10].sum(axis=0)
        pheno = SurvivalPhenotype(rng.exponential(np.exp(-risk) * 12.0), rng.binomial(1, 0.9, n))
        U = CoxScoreModel(pheno).contributions(g)
        ids = np.repeat([0, 1], 10)
        result = skato_resampling(U, np.ones(J), ids, 2, 800, seed=5)
        assert result.pvalues[0] < 0.05
        assert result.pvalues[0] < result.pvalues[1]
        # (best_rho is not asserted: with a strong signal every rho's
        # empirical p saturates at the resampling floor and ties)

    def test_validation(self, setup):
        U, w, ids, K = setup
        with pytest.raises(ValueError):
            skato_resampling(U, w, ids, K, 0)
        with pytest.raises(ValueError):
            skato_resampling(np.zeros(3), w, ids, K, 10)
