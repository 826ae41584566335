"""Beta allele-frequency weights and MAF estimates."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.stats.weights import beta_maf_weights, estimate_maf


class TestBetaMaf:
    def test_matches_scipy(self):
        maf = np.array([0.01, 0.05, 0.2, 0.5])
        assert np.allclose(beta_maf_weights(maf), sps.beta.pdf(maf, 1, 25))

    def test_upweights_rare(self):
        w = beta_maf_weights(np.array([0.001, 0.1, 0.4]))
        assert w[0] > w[1] > w[2]

    def test_boundary_safe(self):
        w = beta_maf_weights(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(w))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            beta_maf_weights(np.array([1.2]))

    def test_custom_shape(self):
        maf = np.array([0.1, 0.3])
        assert np.allclose(beta_maf_weights(maf, 0.5, 0.5), sps.beta.pdf(maf, 0.5, 0.5))


class TestEstimateMaf:
    def test_folded(self, rng):
        G = rng.binomial(2, 0.9, size=(5, 500))
        maf = estimate_maf(G)
        assert np.all(maf <= 0.5)
        assert maf == pytest.approx(np.full(5, 0.1), abs=0.05)

    def test_vector_input(self):
        assert estimate_maf(np.array([0, 1, 2, 1])).shape == (1,)
