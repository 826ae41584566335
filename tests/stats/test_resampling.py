"""Resampling inference: Monte Carlo, permutation, p-values."""

import numpy as np
import pytest

from repro.stats.resampling.montecarlo import MonteCarloResampler
from repro.stats.resampling.permutation import PermutationResampler
from repro.stats.resampling.pvalues import empirical_pvalues, required_resamples
from repro.stats.resampling.streams import (
    ReplicateStream,
    StreamCursor,
    mc_multiplier_batches,
    permutation_stream,
)
from repro.stats.score.base import SurvivalPhenotype
from repro.stats.score.cox import CoxScoreModel
from repro.stats.skat import skat_statistics


@pytest.fixture
def setup(rng):
    n, J, K = 50, 60, 5
    pheno = SurvivalPhenotype(rng.exponential(12, n), rng.binomial(1, 0.85, n))
    model = CoxScoreModel(pheno)
    G = rng.binomial(2, 0.3, size=(J, n)).astype(float)
    weights = np.ones(J)
    set_ids = rng.integers(0, K, J)
    return model, G, weights, set_ids, K


class TestMonteCarlo:
    def test_unit_multipliers_recover_observed(self, setup):
        model, G, w, ids, K = setup
        sampler = MonteCarloResampler(model.contributions(G), w, ids, K)
        stats = sampler.replicate_batch(np.ones((1, G.shape[1])))
        assert np.allclose(stats[0], sampler.observed)

    def test_counts_reproducible(self, setup):
        model, G, w, ids, K = setup
        U = model.contributions(G)
        a = MonteCarloResampler(U, w, ids, K).run(100, seed=3)
        b = MonteCarloResampler(U, w, ids, K).run(100, seed=3)
        assert np.array_equal(a.exceed_counts, b.exceed_counts)

    def test_batch_size_does_not_change_counts(self, setup):
        model, G, w, ids, K = setup
        U = model.contributions(G)
        sampler = MonteCarloResampler(U, w, ids, K)
        a = sampler.run(100, seed=3, batch_size=7)
        b = sampler.run(100, seed=3, batch_size=64)
        # same seed, same stream order regardless of batching
        assert np.array_equal(a.exceed_counts, b.exceed_counts)

    def test_zero_resamples(self, setup):
        model, G, w, ids, K = setup
        out = MonteCarloResampler(model.contributions(G), w, ids, K).run(0, seed=0)
        assert out.exceed_counts.sum() == 0

    def test_counts_bounded(self, setup):
        model, G, w, ids, K = setup
        out = MonteCarloResampler(model.contributions(G), w, ids, K).run(50, seed=1)
        assert np.all(out.exceed_counts >= 0)
        assert np.all(out.exceed_counts <= 50)

    def test_input_validation(self, setup):
        model, G, w, ids, K = setup
        with pytest.raises(ValueError):
            MonteCarloResampler(model.contributions(G), w[:-1], ids, K)
        with pytest.raises(ValueError):
            MonteCarloResampler(np.zeros(5), w, ids, K)
        sampler = MonteCarloResampler(model.contributions(G), w, ids, K)
        with pytest.raises(ValueError):
            sampler.replicate_batch(np.ones((2, 3)))


class TestPermutation:
    def test_identity_perm_recovers_observed(self, setup):
        model, G, w, ids, K = setup
        sampler = PermutationResampler(model, G, w, ids, K)
        stats = sampler.replicate(np.arange(G.shape[1]))
        assert np.allclose(stats, sampler.observed)

    def test_reproducible(self, setup):
        model, G, w, ids, K = setup
        a = PermutationResampler(model, G, w, ids, K).run(30, seed=5)
        b = PermutationResampler(model, G, w, ids, K).run(30, seed=5)
        assert np.array_equal(a.exceed_counts, b.exceed_counts)

    def test_invalid_perm_rejected(self, setup):
        model, G, w, ids, K = setup
        sampler = PermutationResampler(model, G, w, ids, K)
        with pytest.raises(ValueError):
            sampler.replicate(np.zeros(G.shape[1], dtype=int))

    def test_observed_matches_direct(self, setup):
        model, G, w, ids, K = setup
        sampler = PermutationResampler(model, G, w, ids, K)
        assert np.allclose(sampler.observed, skat_statistics(model.scores(G), w, ids, K))


class TestAgreementMcVsPermutation:
    def test_pvalues_correlate_under_null(self, setup):
        """Both resampling schemes estimate the same null distribution."""
        model, G, w, ids, K = setup
        mc = MonteCarloResampler(model.contributions(G), w, ids, K).run(400, seed=7)
        perm = PermutationResampler(model, G, w, ids, K).run(400, seed=7)
        p_mc = mc.pvalues()
        p_perm = perm.pvalues()
        assert np.all(np.abs(p_mc - p_perm) < 0.25)


class TestPvalues:
    def test_plugin(self):
        p = empirical_pvalues(np.array([0, 5, 10]), 10, "plugin")
        assert p.tolist() == [0.0, 0.5, 1.0]

    def test_add_one_never_zero(self):
        p = empirical_pvalues(np.array([0]), 1000, "add_one")
        assert p[0] == pytest.approx(1 / 1001)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            empirical_pvalues(np.array([1]), 10, "bootstrap")

    def test_counts_out_of_range(self):
        with pytest.raises(ValueError):
            empirical_pvalues(np.array([11]), 10)
        with pytest.raises(ValueError):
            empirical_pvalues(np.array([-1]), 10)

    def test_required_resamples_planning(self):
        # estimating p=0.01 to 10% CV needs ~9900 resamples
        assert required_resamples(0.01, 0.1) == pytest.approx(9900, rel=0.01)
        with pytest.raises(ValueError):
            required_resamples(0.0)
        with pytest.raises(ValueError):
            required_resamples(0.5, 0.0)


class TestStreams:
    def test_mc_batches_total(self):
        batches = list(mc_multiplier_batches(10, 25, seed=0, batch_size=8))
        assert [b.shape for b in batches] == [(8, 10), (8, 10), (8, 10), (1, 10)]

    def test_mc_stream_batch_invariance(self):
        """Concatenated draws are identical regardless of batch size."""
        a = np.vstack(list(mc_multiplier_batches(5, 20, seed=9, batch_size=3)))
        b = np.vstack(list(mc_multiplier_batches(5, 20, seed=9, batch_size=20)))
        assert np.array_equal(a, b)

    def test_perm_stream_valid_permutations(self):
        for perm in permutation_stream(12, 5, seed=2):
            assert sorted(perm.tolist()) == list(range(12))

    def test_perm_stream_deterministic(self):
        a = [p.tolist() for p in permutation_stream(6, 4, seed=1)]
        b = [p.tolist() for p in permutation_stream(6, 4, seed=1)]
        assert a == b


class TestStreamCursor:
    """A cursor hands any batch of a stream the values one pass from the
    start gives it, whether it is at, behind or ahead of that batch."""

    @pytest.mark.parametrize("method", ["monte_carlo", "permutation"])
    def test_at_behind_and_ahead(self, method):
        stream = ReplicateStream(method, 9, 50, seed=4, batch_size=6)
        batches = list(stream.batches())
        assert [len(b) for b in batches] == list(stream.widths()) == [6] * 8 + [2]
        cursor = StreamCursor(stream)
        for first, count in [(0, 4), (4, 4), (8, 4), (2, 3), (7, 1), (3, 2), (9, 4)]:
            taken = cursor.take(first, count)
            expected = batches[first:first + count]
            assert len(taken) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(taken, expected))

    def test_widths_check_their_arguments(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(ReplicateStream("monte_carlo", 5, 10, 0, 0).widths())
        with pytest.raises(ValueError, match="n_resamples"):
            list(ReplicateStream("permutation", 5, -1, 0, 4).widths())
        with pytest.raises(ValueError, match="method"):
            ReplicateStream("bootstrap", 5, 10, 0, 4)

