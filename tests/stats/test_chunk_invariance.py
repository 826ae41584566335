"""A contribution row does not depend on the rows it was computed beside.

The paper flavor keeps one record per SNP but stacks up to 64 consecutive
records of a partition into one ``contributions`` call, and where the
chunks fall depends on the partitioning (a byte split of the file, an even
split of the rows).  So every row of ``model.contributions(G)`` must come
out the same whichever chunks ``G`` is cut into.

Cox, Gaussian, and any unadjusted GLM do per-row arithmetic only, so their
rows are ``array_equal``.  An adjusted binomial model weights the row sum
of its covariate projection by the non-integer ``mu (1 - mu)``, and that
sum is one BLAS matrix product whose accumulation order follows the number
of rows in the call; an adjusted Gaussian model with covariates does the
same.  Those rows agree to rtol 1e-12.
"""

import numpy as np
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.stats.score.base import BinaryPhenotype, QuantitativePhenotype, SurvivalPhenotype
from repro.stats.score.binomial import BinomialScoreModel
from repro.stats.score.cox import CoxScoreModel
from repro.stats.score.gaussian import GaussianScoreModel
from repro.stats.score.glm import NullModelError


@st.composite
def _genotypes_and_chunks(draw):
    """An int8 dosage matrix of 1-300 rows and the chunk sizes it is cut into."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    J = draw(st.integers(1, 300))
    G = rng.integers(0, 3, size=(J, n)).astype(np.int8)
    cuts = sorted(draw(st.sets(st.integers(1, J - 1), max_size=12)) if J > 1 else set())
    return rng, G, [0, *cuts, J]


def _chunked(model, G, bounds):
    return np.concatenate([model.contributions(G[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def _covariates(rng, n, with_covariates):
    return rng.integers(-3, 4, size=(n, 2)).astype(np.float64) if with_covariates else None


@seed(280_001)
@settings(max_examples=200, deadline=None, database=None)
@given(_genotypes_and_chunks(), st.booleans())
def test_cox_rows_are_bit_identical(case, ties):
    rng, G, bounds = case
    n = G.shape[1]
    time = rng.integers(0, 4, n).astype(np.float64) if ties else rng.exponential(size=n)
    model = CoxScoreModel(SurvivalPhenotype(time, rng.integers(0, 2, n)))
    assert np.array_equal(_chunked(model, G, bounds), model.contributions(G))


@seed(280_002)
@settings(max_examples=200, deadline=None, database=None)
@given(_genotypes_and_chunks(), st.booleans(), st.booleans())
def test_gaussian_rows(case, with_covariates, adjust):
    rng, G, bounds = case
    n = G.shape[1]
    covariates = _covariates(rng, n, with_covariates)
    if covariates is not None:
        assume(n >= 6 and np.linalg.cond(np.column_stack([np.ones(n), covariates])) < 1e3)
    model = GaussianScoreModel(QuantitativePhenotype(rng.normal(size=n), covariates), adjust)
    _assert_rows_agree(model, G, bounds, exact=covariates is None or not adjust)


@seed(280_003)
@settings(max_examples=200, deadline=None, database=None)
@given(_genotypes_and_chunks(), st.booleans(), st.booleans())
def test_binomial_rows(case, with_covariates, adjust):
    rng, G, bounds = case
    n = G.shape[1]
    covariates = _covariates(rng, n, with_covariates)
    try:
        # a separable fit overflows exp() on its way to NullModelError
        with np.errstate(over="ignore"):
            model = BinomialScoreModel(BinaryPhenotype(rng.integers(0, 2, n), covariates), adjust)
    except NullModelError:  # one class only, or separable by the covariates
        assume(False)
    _assert_rows_agree(model, G, bounds, exact=not adjust)


def _assert_rows_agree(model, G, bounds, exact):
    whole = model.contributions(G)
    chunked = _chunked(model, G, bounds)
    if exact:
        assert np.array_equal(chunked, whole)
    else:
        scale = max(float(np.abs(whole).max()), 1.0)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-12 * scale)
