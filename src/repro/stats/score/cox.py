"""The Cox efficient score (paper, Section II, "Statistical Model").

Under the marginal null hypothesis for SNP ``j``::

    U_ij = Delta_i * (G_ij - a_ij / b_i)
    a_ij = sum_l 1(Y_l >= Y_i) * G_lj     (risk-set genotype sum)
    b_i  = sum_l 1(Y_l >= Y_i)            (risk-set size; SNP-invariant)

``b_i`` does not depend on the SNP and is computed once per analysis,
exactly as the paper notes.  The vectorized implementation sorts patients
by descending survival time once; risk-set sums for every SNP in a block
are then prefix sums, giving O(m*n + n log n) per block instead of the
O(m*n^2) of the defining formula (kept in
:func:`cox_contributions_naive` as the correctness oracle).  The marginal
scores alone need none of that: ``U_j = sum_l G_lj * c_l`` with ``c`` the
null martingale residuals (:meth:`CoxScoreModel.score_weights`).
"""

from __future__ import annotations

import numpy as np

from repro.stats.score.base import ScoreModel, SurvivalPhenotype


class CoxScoreModel(ScoreModel):
    """Efficient score contributions for a censored survival phenotype."""

    def __init__(self, phenotype: SurvivalPhenotype) -> None:
        self.phenotype = phenotype
        time = phenotype.time
        n = time.shape[0]
        # descending-time order; stable so tied patients keep input order
        self._order = np.argsort(-time, kind="stable")
        # b_i = #{l : Y_l >= Y_i} -- counts of at-risk patients, ties included
        time_asc = np.sort(time)
        self._risk_counts = (n - np.searchsorted(time_asc, time, side="left")).astype(np.int64)
        self._event = phenotype.event

    @property
    def n_patients(self) -> int:
        return self.phenotype.n

    @property
    def risk_set_sizes(self) -> np.ndarray:
        """The SNP-invariant ``b_i`` vector (computed once)."""
        return self._risk_counts

    def contributions(self, genotypes: np.ndarray) -> np.ndarray:
        block = self._check_block(genotypes)
        # prefix sums over patients sorted by descending time: column
        # (b_i - 1) of the cumulative sum is exactly a_ij.  np.take gathers
        # into a C-ordered array (fancy indexing gives an F-ordered one), so
        # the cumsum along patients runs over contiguous memory
        prefix = np.cumsum(np.take(block, self._order, axis=1), axis=1)
        risk_sums = np.take(prefix, self._risk_counts - 1, axis=1)
        return self._event * (block - risk_sums / self._risk_counts)

    def score_weights(self) -> np.ndarray:
        # sum_i Delta_i (G_ij - a_ij / b_i) with the two sums swapped: patient
        # l sits in the risk set of every i with Y_i <= Y_l (ties included),
        # so c_l = Delta_l - sum_{i: Y_i <= Y_l} Delta_i / b_i -- the null
        # martingale residual (event minus Breslow cumulative hazard at Y_l)
        time = self.phenotype.time
        ascending = self._order[::-1]
        cum_hazard = np.cumsum((self._event / self._risk_counts)[ascending])
        at_or_before = np.searchsorted(time[ascending], time, side="right")
        return self._event - cum_hazard[at_or_before - 1]

    def permuted(self, perm: np.ndarray) -> "CoxScoreModel":
        return CoxScoreModel(self.phenotype.permuted(perm))


def cox_contributions_naive(
    phenotype: SurvivalPhenotype, genotypes: np.ndarray
) -> np.ndarray:
    """Direct per-definition O(m*n^2) computation; test oracle only."""
    G = np.asarray(genotypes, dtype=np.float64)
    if G.ndim == 1:
        G = G[None, :]
    time, event = phenotype.time, phenotype.event
    n = time.shape[0]
    m = G.shape[0]
    U = np.zeros((m, n))
    for i in range(n):
        at_risk = time >= time[i]
        b_i = at_risk.sum()
        for j in range(m):
            a_ij = G[j, at_risk].sum()
            U[j, i] = event[i] * (G[j, i] - a_ij / b_i)
    return U
