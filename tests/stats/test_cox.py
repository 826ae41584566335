"""Cox efficient score: vectorized vs per-definition oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats.score.base import SurvivalPhenotype
from repro.stats.score.cox import CoxScoreModel, cox_contributions_naive


def random_phenotype(rng, n, event_rate=0.85, ties=False):
    times = rng.exponential(12.0, size=n)
    if ties:
        times = np.round(times)  # force many tied survival times
    events = rng.binomial(1, event_rate, size=n)
    return SurvivalPhenotype(times, events)


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pheno = random_phenotype(rng, 40)
        G = rng.binomial(2, 0.3, size=(15, 40)).astype(float)
        model = CoxScoreModel(pheno)
        assert np.allclose(model.contributions(G), cox_contributions_naive(pheno, G))

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        pheno = random_phenotype(rng, 50, ties=True)
        G = rng.binomial(2, 0.4, size=(10, 50)).astype(float)
        model = CoxScoreModel(pheno)
        assert np.allclose(model.contributions(G), cox_contributions_naive(pheno, G))

    def test_matches_oracle_all_events(self):
        rng = np.random.default_rng(4)
        pheno = random_phenotype(rng, 30, event_rate=1.0)
        G = rng.binomial(2, 0.2, size=(5, 30)).astype(float)
        model = CoxScoreModel(pheno)
        assert np.allclose(model.contributions(G), cox_contributions_naive(pheno, G))

    def test_single_snp_vector_input(self):
        rng = np.random.default_rng(5)
        pheno = random_phenotype(rng, 25)
        g = rng.binomial(2, 0.3, size=25).astype(float)
        model = CoxScoreModel(pheno)
        assert model.contributions(g).shape == (1, 25)


def fancy_index_contributions(model, G):
    """``contributions`` as written with fancy-index gathers, whose
    F-ordered result made the cumsum along patients strided."""
    block = np.asarray(G, dtype=np.float64)
    order = np.argsort(-model.phenotype.time, kind="stable")
    prefix = np.cumsum(block[:, order], axis=1)
    risk_sums = prefix[:, model.risk_set_sizes - 1]
    return model.phenotype.event * (block - risk_sums / model.risk_set_sizes)


@st.composite
def _cox_blocks(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    dtype = draw(st.sampled_from([np.int8, np.float64]))
    G = draw(hnp.arrays(dtype, (m, n), elements=st.sampled_from([0, 1, 2])))
    # few distinct times, so ties are the rule rather than the exception
    time = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.5, 1.0, 2.0, 3.5, 9.0])))
    if draw(st.booleans()):
        event = np.zeros(n, dtype=np.int64)  # every patient censored
    else:
        event = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return SurvivalPhenotype(time, event), G


class TestContiguousGather:
    @settings(max_examples=200, deadline=None, database=None)
    @given(_cox_blocks())
    def test_bit_identical_to_fancy_index_gather(self, case):
        pheno, G = case
        model = CoxScoreModel(pheno)
        U = model.contributions(G)
        # signed zeros included: compare the bit patterns, not the values
        np.testing.assert_array_equal(
            U.view(np.int64), fancy_index_contributions(model, G).view(np.int64)
        )
        np.testing.assert_allclose(U, cox_contributions_naive(pheno, G), rtol=1e-12)


class TestStructuralProperties:
    def test_constant_genotype_zero_score(self):
        rng = np.random.default_rng(6)
        pheno = random_phenotype(rng, 30)
        model = CoxScoreModel(pheno)
        G = np.full((3, 30), 2.0)
        assert np.allclose(model.contributions(G), 0.0)

    def test_censored_patients_contribute_zero(self):
        rng = np.random.default_rng(7)
        pheno = random_phenotype(rng, 30, event_rate=0.5)
        model = CoxScoreModel(pheno)
        U = model.contributions(rng.binomial(2, 0.3, size=(4, 30)).astype(float))
        censored = pheno.event == 0
        assert np.all(U[:, censored] == 0.0)

    def test_risk_set_sizes(self):
        pheno = SurvivalPhenotype([3.0, 1.0, 2.0], [1, 1, 1])
        model = CoxScoreModel(pheno)
        # patient with smallest time has everyone at risk
        assert model.risk_set_sizes.tolist() == [1, 3, 2]

    def test_risk_set_sizes_with_ties(self):
        pheno = SurvivalPhenotype([2.0, 2.0, 1.0], [1, 1, 1])
        assert CoxScoreModel(pheno).risk_set_sizes.tolist() == [2, 2, 3]

    def test_scores_are_row_sums(self):
        rng = np.random.default_rng(8)
        pheno = random_phenotype(rng, 20)
        model = CoxScoreModel(pheno)
        G = rng.binomial(2, 0.4, size=(6, 20)).astype(float)
        assert np.allclose(model.scores(G), model.contributions(G).sum(axis=1))

    def test_shape_validation(self):
        pheno = SurvivalPhenotype([1.0, 2.0], [1, 0])
        model = CoxScoreModel(pheno)
        with pytest.raises(ValueError):
            model.contributions(np.zeros((3, 5)))

    def test_time_scale_invariance(self):
        """The Cox score depends only on the *order* of survival times."""
        rng = np.random.default_rng(10)
        times = rng.exponential(12.0, 25)
        events = rng.binomial(1, 0.8, 25)
        G = rng.binomial(2, 0.3, size=(5, 25)).astype(float)
        a = CoxScoreModel(SurvivalPhenotype(times, events)).contributions(G)
        b = CoxScoreModel(SurvivalPhenotype(times * 7.3, events)).contributions(G)
        assert np.allclose(a, b)


class TestPermutedModel:
    def test_permuted_equals_model_on_shuffled_phenotype(self):
        rng = np.random.default_rng(11)
        pheno = random_phenotype(rng, 30)
        G = rng.binomial(2, 0.3, size=(8, 30)).astype(float)
        perm = rng.permutation(30)
        direct = CoxScoreModel(pheno.permuted(perm)).contributions(G)
        via_model = CoxScoreModel(pheno).permuted(perm).contributions(G)
        assert np.allclose(direct, via_model)

    def test_identity_permutation_is_noop(self):
        rng = np.random.default_rng(12)
        pheno = random_phenotype(rng, 20)
        G = rng.binomial(2, 0.3, size=(4, 20)).astype(float)
        model = CoxScoreModel(pheno)
        assert np.allclose(
            model.contributions(G), model.permuted(np.arange(20)).contributions(G)
        )


class TestPhenotypeValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SurvivalPhenotype([-1.0, 2.0], [1, 1])

    def test_bad_event_rejected(self):
        with pytest.raises(ValueError):
            SurvivalPhenotype([1.0, 2.0], [1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SurvivalPhenotype([1.0, 2.0], [1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            SurvivalPhenotype([np.nan, 2.0], [1, 1])

