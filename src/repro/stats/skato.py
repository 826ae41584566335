"""Burden and SKAT-O statistics with resampling inference.

The paper's related statistics: the weighted *burden* statistic collapses
a set's scores linearly before squaring (powerful when effects share a
direction), while SKAT squares first (powerful for mixed directions).
SKAT-O (Lee et al. 2012, the paper's ref. [17]) interpolates::

    Q_rho = (1 - rho) * Q_SKAT + rho * Q_burden,   rho in [0, 1]

and takes the best rho per set, calibrated by the minimum-p-value trick.
Everything here reuses the Monte Carlo replicate stream: for each
replicate the whole (set x rho) grid is two GEMMs, and the min-p null
distribution comes from ranking replicates against each other -- no
second resampling layer needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.resampling.driver import exceedances, per_batch, resample
from repro.stats.resampling.streams import mc_multiplier_batches
from repro.stats.skat import set_sums, validate_set_ids

DEFAULT_RHO_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


def burden_statistics(
    scores: np.ndarray, weights: np.ndarray, set_ids: np.ndarray, n_sets: int
) -> np.ndarray:
    """``(sum_{j in I_k} w_j U_j)^2`` per set; batched like skat_statistics."""
    scores = np.asarray(scores, dtype=np.float64)
    single = scores.ndim == 1
    if single:
        scores = scores[None, :]
    weights = np.asarray(weights, dtype=np.float64)
    ids = validate_set_ids(set_ids, n_sets, scores.shape[1])
    out = np.square(set_sums(scores * weights[None, :], ids, n_sets))
    return out[0] if single else out


def skato_grid_statistics(
    scores: np.ndarray,
    weights: np.ndarray,
    set_ids: np.ndarray,
    n_sets: int,
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID,
) -> np.ndarray:
    """Q_rho for every (set, rho); returns (K, R) or (B, K, R)."""
    from repro.stats.skat import skat_statistics

    rho = np.asarray(rho_grid, dtype=np.float64)
    if rho.ndim != 1 or rho.size == 0 or np.any((rho < 0) | (rho > 1)):
        raise ValueError("rho grid must be values in [0, 1]")
    skat = np.asarray(skat_statistics(scores, weights, set_ids, n_sets))
    burden = np.asarray(burden_statistics(scores, weights, set_ids, n_sets))
    if skat.ndim == 1:  # single analysis: (K,) -> (K, R)
        return (1.0 - rho)[None, :] * skat[:, None] + rho[None, :] * burden[:, None]
    # batch: (B, K) -> (B, K, R)
    return (
        (1.0 - rho)[None, None, :] * skat[:, :, None]
        + rho[None, None, :] * burden[:, :, None]
    )


@dataclass(frozen=True)
class SkatOResult:
    """Per-set SKAT-O inference."""

    rho_grid: tuple[float, ...]
    observed_grid: np.ndarray  # (K, R) observed Q_rho
    per_rho_pvalues: np.ndarray  # (K, R) empirical p per rho
    pvalues: np.ndarray  # (K,) calibrated min-p SKAT-O p-values
    best_rho: np.ndarray  # (K,) argmin-p rho per set
    n_resamples: int


def skato_resampling(
    contributions: np.ndarray,
    weights: np.ndarray,
    set_ids: np.ndarray,
    n_sets: int,
    n_resamples: int,
    seed: int = 0,
    batch_size: int = 128,
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID,
    monitor=None,
) -> SkatOResult:
    """Monte Carlo SKAT-O over the rho grid with min-p calibration.

    Keeps the full (B, K, R) replicate tensor so replicates can be ranked
    against each other; memory is ``B * K * R`` doubles (e.g. 1000 sets x
    6 rhos x 10000 replicates = 480 MB -- scale B or K accordingly, or
    fall back to per-rho inference via ``per_rho_pvalues``).

    ``monitor`` is an optional
    :class:`repro.obs.inference.ConvergenceMonitor` fed a per-set proxy
    count per batch: the number of replicates where *any* rho exceeds the
    observed Q_rho (a conservative stand-in for the min-p exceedance, so
    the CI never declares convergence before the calibrated p-value has).
    The run turns per-set masking off -- min-p calibration ranks replicates
    against each other and needs the full common tensor -- so an
    early-stop policy only truncates the whole replicate stream.
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    U = np.asarray(contributions, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("contributions must be (J, n)")
    J, n = U.shape
    weights = np.asarray(weights, dtype=np.float64)
    ids = validate_set_ids(set_ids, n_sets, J)
    rho = tuple(float(r) for r in rho_grid)

    observed = skato_grid_statistics(U.sum(axis=1), weights, ids, n_sets, rho)  # (K, R)
    replicate_chunks = []

    def count_batch(z_batch: np.ndarray) -> np.ndarray:
        batch_grid = skato_grid_statistics(z_batch @ U.T, weights, ids, n_sets, rho)
        replicate_chunks.append(batch_grid)
        return (batch_grid >= observed).any(axis=2).sum(axis=0, dtype=np.int64)

    _, B = resample(
        mc_multiplier_batches(n, n_resamples, seed, batch_size), per_batch(count_batch),
        monitor, n_sets=n_sets, per_set_masking=False,
    )
    replicates = np.concatenate(replicate_chunks, axis=0)  # (B, K, R)

    # per-rho empirical p for the observed statistics (add-one estimator)
    exceed = exceedances(replicates, observed)  # (K, R)
    per_rho_p = (exceed + 1.0) / (B + 1.0)

    # min-p across rho, calibrated against the replicates' own min-p:
    # rank each replicate among all replicates per (k, rho)
    order = np.argsort(-replicates, axis=0, kind="stable")
    ranks = np.empty_like(order)
    grid_b = np.arange(B)[:, None, None]
    np.put_along_axis(ranks, order, np.broadcast_to(grid_b, replicates.shape), axis=0)
    # rank r (0-based, descending) => #{b' != b : Q_b' >= Q_b} >= r; ties
    # resolved by stable order give a valid empirical p
    replicate_p = (ranks + 1.0) / (B + 1.0)  # (B, K, R)
    t_null = replicate_p.min(axis=2)  # (B, K)
    t_obs = per_rho_p.min(axis=1)  # (K,)
    pvalues = ((t_null <= t_obs[None, :]).sum(axis=0) + 1.0) / (B + 1.0)
    best_rho = np.array([rho[i] for i in per_rho_p.argmin(axis=1)])
    return SkatOResult(
        rho_grid=rho,
        observed_grid=observed,
        per_rho_pvalues=per_rho_p,
        pvalues=pvalues,
        best_rho=best_rho,
        n_resamples=B,
    )
