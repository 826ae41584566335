"""High-level analysis facade: one object, every SparkScore analysis.

:class:`SparkScoreAnalysis` wraps a dataset plus an execution engine
("local" pure-NumPy or "distributed" mini-Spark) and exposes the paper's
methods -- observed SKAT statistics, Monte Carlo and permutation
resampling -- alongside the asymptotic and Wald comparators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.core.results import ResamplingResult
from repro.genomics.synthetic import Dataset
from repro.stats.score.base import ScoreModel
from repro.stats.score.cox import CoxScoreModel
from repro.stats.wald import CoxMleResult, cox_mle

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context

ENGINES = ("local", "distributed")


class SparkScoreAnalysis:
    """A configured SparkScore analysis over one dataset."""

    def __init__(
        self,
        dataset: Dataset,
        model: ScoreModel | None = None,
        engine: str = "local",
        config: EngineConfig | None = None,
        ctx: "Context | None" = None,
        **engine_options: Any,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        self.dataset = dataset
        self.model = model or CoxScoreModel(dataset.phenotype)
        self.engine = engine
        self._owns_ctx = False
        self.ctx: "Context | None" = None
        if engine == "local":
            if engine_options:
                raise TypeError(f"local engine takes no options, got {sorted(engine_options)}")
            self._impl: LocalSparkScore | DistributedSparkScore = LocalSparkScore(
                dataset, self.model
            )
        else:
            if ctx is None:
                from repro.engine.context import Context

                ctx = Context(config or EngineConfig())
                self._owns_ctx = True
            self.ctx = ctx
            self._impl = DistributedSparkScore(ctx, dataset, self.model, **engine_options)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs: Any) -> "SparkScoreAnalysis":
        return cls(dataset, **kwargs)

    @classmethod
    def from_files(
        cls, base: str, parse_with_engine: bool = False, **kwargs: Any
    ) -> "SparkScoreAnalysis":
        """Build an analysis from the four input files under ``base``.

        The local engine loads all four (``read_dataset``).  The distributed
        engine's driver reads phenotype, weights and SNP-sets and nothing
        else: the executors read the genotype file themselves, split by
        split (see :mod:`repro.core.algorithms`), and
        ``analysis.dataset.genotypes.matrix`` is loaded in the driver only
        if something touches it (``wald``, ``skat_o``, ``marginal_scores``,
        ``variant_maxt``, ``asymptotic``).  ``parse_with_engine`` changes
        nothing there; it is refused with the local engine, which has no
        tasks to parse in.
        """
        from repro.genomics.io.dataset_io import (
            GENOTYPES_FILE,
            WEIGHTS_FILE,
            open_dataset,
            read_dataset,
        )

        if kwargs.get("engine", "local") != "distributed":
            if parse_with_engine:
                raise ValueError("parse_with_engine requires engine='distributed'")
            return cls(read_dataset(base), **kwargs)
        prefix = f"{base.rstrip('/')}/"
        kwargs.setdefault("input_paths", {
            "genotypes": prefix + GENOTYPES_FILE,
            "weights": prefix + WEIGHTS_FILE,
        })
        return cls(open_dataset(base), **kwargs)

    # -- analyses ------------------------------------------------------------------

    def observed(self) -> ResamplingResult:
        """Algorithm 1: observed SKAT statistics (no inference)."""
        return self._impl.observed()

    def monte_carlo(
        self,
        iterations: int,
        seed: int = 0,
        batch_size: int = 64,
        cache_contributions: bool = True,
        monitor=None,
    ) -> ResamplingResult:
        """Algorithm 3: Lin's Monte Carlo resampling (cached U by default).

        The distributed engine mints its own
        :class:`~repro.obs.inference.ConvergenceMonitor` from the context
        (telemetry is always on; early stopping obeys
        ``inference_early_stop``); ``monitor`` lets local-engine callers
        attach one by hand.
        """
        if isinstance(self._impl, LocalSparkScore):
            return self._impl.monte_carlo(
                iterations, seed, batch_size, cache_contributions, monitor=monitor
            )
        if monitor is not None:
            raise TypeError("the distributed engine mints its own monitor")
        return self._impl.monte_carlo(iterations, seed, batch_size, cache_contributions)

    def permutation(
        self, iterations: int, seed: int = 0, batch_size: int = 16, monitor=None
    ) -> ResamplingResult:
        """Algorithm 2: permutation resampling (no cached U; each replicate
        is the model's score weights, permuted, times the genotypes).

        ``batch_size`` is how many replicates go into one GEMM -- the
        distributed engine counts a wave of such batches per broadcast and
        job -- and how often a convergence monitor is folded, so under
        early stopping both engines stop at the same replicate; the
        replicate sequence itself does not depend on it.  ``monitor``
        follows the :meth:`monte_carlo` contract.
        """
        if isinstance(self._impl, LocalSparkScore):
            return self._impl.permutation(iterations, seed, batch_size, monitor=monitor)
        if monitor is not None:
            raise TypeError("the distributed engine mints its own monitor")
        return self._impl.permutation(iterations, seed, batch_size)

    def asymptotic(self, method: str = "liu") -> ResamplingResult:
        """Mixture-of-chi-square p-values (no resampling).

        Always evaluated locally: it needs the dense U matrix and per-set
        eigendecompositions, which are cheap relative to resampling.
        """
        local = self._impl if isinstance(self._impl, LocalSparkScore) else LocalSparkScore(
            self.dataset, self.model
        )
        return local.asymptotic(method)

    def wald(self, **kwargs: Any) -> CoxMleResult:
        """Per-SNP Wald/LRT via Newton-Raphson -- the costly comparator.

        Only defined for survival phenotypes (Cox model).
        """
        if not isinstance(self.model, CoxScoreModel):
            raise TypeError("Wald comparator requires a Cox score model")
        return cox_mle(self.dataset.phenotype, self.dataset.genotypes.matrix, **kwargs)

    def marginal_scores(self) -> np.ndarray:
        """Per-SNP marginal scores U_j (variant-by-variant analysis)."""
        return self.model.scores(self.dataset.genotypes.matrix.astype(np.float64))

    def _auto_monitor(self, method: str, planned: int, n_sets: int, set_names):
        """A context-wired convergence monitor, or None on the local engine."""
        if self.ctx is None:
            return None
        return self.ctx.inference.new_monitor(n_sets, method, planned, set_names)

    def skat_o(
        self,
        iterations: int,
        seed: int = 0,
        batch_size: int = 128,
        rho_grid: tuple[float, ...] | None = None,
        monitor=None,
    ):
        """SKAT-O: per-set optimum over the SKAT/burden interpolation grid.

        Resampling-based with min-p calibration; returns a
        :class:`~repro.stats.skato.SkatOResult`.  With a distributed
        context attached a convergence monitor is minted automatically
        (per-set masking off -- min-p calibration needs the full tensor).
        """
        from repro.stats.skato import DEFAULT_RHO_GRID, skato_resampling

        if monitor is None:
            monitor = self._auto_monitor(
                "skat_o", iterations, self.dataset.n_sets,
                list(self.dataset.snpsets.names),
            )
        U = self.model.contributions(self.dataset.genotypes.matrix.astype(np.float64))
        return skato_resampling(
            U,
            self.dataset.weights,
            self.dataset.snpsets.set_ids,
            self.dataset.n_sets,
            iterations,
            seed=seed,
            batch_size=batch_size,
            rho_grid=rho_grid or DEFAULT_RHO_GRID,
            monitor=monitor,
        )

    def variant_maxt(
        self,
        iterations: int,
        seed: int = 0,
        batch_size: int = 64,
        step_down: bool = True,
        monitor=None,
    ):
        """Variant-level Westfall-Young maxT inference (FWER-adjusted).

        Runs the single-SNP analysis the paper's introduction describes,
        with resampling-based multiplicity adjustment (paper ref. [40]).
        Returns a :class:`~repro.stats.resampling.multipletesting.MaxTResult`.
        With a distributed context attached a convergence monitor is minted
        automatically (one "set" per SNP, adjusted p-values; per-SNP
        masking off -- step-down needs a common denominator).
        """
        from repro.stats.resampling.multipletesting import westfall_young_maxt

        if monitor is None:
            monitor = self._auto_monitor(
                "variant_maxt", iterations, self.dataset.n_snps,
                [str(s) for s in self.dataset.genotypes.snp_ids],
            )
        U = self.model.contributions(self.dataset.genotypes.matrix.astype(np.float64))
        return westfall_young_maxt(U, iterations, seed, batch_size, step_down, monitor=monitor)

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        if self._owns_ctx and self.ctx is not None:
            self.ctx.stop()

    def __enter__(self) -> "SparkScoreAnalysis":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SparkScoreAnalysis(engine={self.engine!r}, snps={self.dataset.n_snps}, "
            f"patients={self.dataset.n_patients}, sets={self.dataset.n_sets})"
        )
