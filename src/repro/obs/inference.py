"""Inference observability: convergence telemetry for resampling p-values.

Brute-force resampling is the paper's cost driver, yet the replicate loops
are blind: they grind through a fixed ``n_resamples`` with no signal about
which SNP-sets are already statistically decided.  This module makes the
*statistic itself* observable and then acts on it -- the same
telemetry-then-action shape the skew work proved out.

:class:`ConvergenceMonitor` folds each replicate batch's per-set exceedance
counts into running p-value estimates with Wilson score intervals,
classifies every SNP-set as ``decided_significant`` / ``decided_null`` /
``undecided`` against a target alpha, and emits typed listener-bus events
(:class:`~repro.engine.listener.InferenceBatchCompleted`,
:class:`~repro.engine.listener.SnpSetConverged`) that downstream surfaces
consume: the v8 event-log ``inference`` side channel, ``sparkscore
history``/``doctor`` and the console progress bar.

:class:`EarlyStopPolicy` closes the loop.  When attached (opt-in via
``inference_early_stop``), :meth:`ConvergenceMonitor.fold` masks converged
sets out of subsequent batches -- their exceedance counts and denominators
freeze at decision time -- and :attr:`ConvergenceMonitor.done` tells the
resampling driver (:func:`repro.stats.resampling.driver.resample`) to stop
once every set is decided.  Replicate *streams* are
untouched (batching and stopping change scheduling, never the statistics of
the replicates actually consumed), so:

- with the policy absent, ``counts += monitor.fold(batch_counts, width)``
  is bit-identical to ``counts += batch_counts`` -- monitoring is passive;
- with the policy attached, retained sets' counts stay exact and decided
  sets report the CI-bounded estimate frozen at their decision point
  (:meth:`ConvergenceMonitor.pvalues` handles the per-set denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.engine.listener import InferenceBatchCompleted, SnpSetConverged

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context
    from repro.engine.listener import ListenerBus

#: set decision states
UNDECIDED = "undecided"
DECIDED_SIGNIFICANT = "decided_significant"
DECIDED_NULL = "decided_null"

#: one-sided tail mass for the decision interval.  Decisions are made at
#: 99.9% two-sided confidence regardless of the target alpha: alpha is the
#: *threshold* being tested against, not the error rate of the sequential
#: test, and a tight interval keeps wrong early calls rare enough that the
#: CI drill's "identical significance calls" gate holds in practice.
DECISION_CONFIDENCE = 0.999


def wilson_interval(
    count: int | np.ndarray, n: int, confidence: float = DECISION_CONFIDENCE
) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval for a binomial proportion ``count / n``.

    Vectorized over ``count``; returns ``(low, high)`` arrays.  Unlike the
    Wald interval it behaves at p near 0 and 1 -- exactly where resampling
    p-values live -- without the cost of an exact method.
    """
    counts = np.asarray(count, dtype=np.float64)
    if n < 1:
        raise ValueError("n must be >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = counts / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    # exact at the ends, where the bound is 0 or 1 only up to rounding
    low = np.where(counts == 0, 0.0, np.clip(center - half, 0.0, 1.0))
    high = np.where(counts == n, 1.0, np.clip(center + half, 0.0, 1.0))
    return low, high


@dataclass
class EarlyStopPolicy:
    """Opt-in action half of the telemetry loop.

    When attached to a :class:`ConvergenceMonitor`, converged sets are
    masked out of subsequent batches (counts and denominators freeze at
    decision time) and the monitor reports ``done`` once every set is
    decided -- the driving loop then stops and banks the remaining
    replicates as ``replicates_saved``.
    """

    alpha: float = 0.05
    min_replicates: int = 64

    @classmethod
    def from_config(cls, config: Any) -> "EarlyStopPolicy | None":
        """The configured policy, or None when early stopping is off."""
        if not getattr(config, "inference_early_stop", False):
            return None
        return cls(alpha=config.inference_alpha)


class ConvergenceMonitor:
    """Folds replicate batches into running p-value estimates with CIs.

    One monitor per resampling run.  Thread-compatible with the engine's
    synchronous listener bus; `fold` is called from the driving loop only.

    Without a policy the monitor is passive telemetry: :meth:`fold` returns
    its input unchanged (same array values, so accumulation stays
    bit-identical) and :attr:`done` is always False.
    """

    def __init__(
        self,
        n_sets: int,
        method: str = "resampling",
        planned_replicates: int = 0,
        set_names: Sequence[str] | None = None,
        alpha: float = 0.05,
        min_replicates: int = 64,
        bus: "ListenerBus | None" = None,
        policy: EarlyStopPolicy | None = None,
    ) -> None:
        if n_sets < 1:
            raise ValueError("n_sets must be >= 1")
        self.n_sets = n_sets
        self.method = method
        self.planned_replicates = int(planned_replicates)
        self.set_names = (
            list(set_names) if set_names is not None
            else [f"set_{k}" for k in range(n_sets)]
        )
        if len(self.set_names) != n_sets:
            raise ValueError("set_names must have one entry per set")
        self.policy = policy
        #: freeze decided sets out of later fold() increments; the resampling
        #: driver turns it off for this run only (``per_set_masking=False``)
        self.masking = policy is not None
        if policy is not None:
            alpha, min_replicates = policy.alpha, policy.min_replicates
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = float(alpha)
        self.min_replicates = max(1, int(min_replicates))
        self.bus = bus
        #: per-set exceedance counts as accumulated by the caller (frozen
        #: for masked sets)
        self.exceed = np.zeros(n_sets, dtype=np.int64)
        #: per-set replicate denominators (diverge only under masking)
        self.denominators = np.zeros(n_sets, dtype=np.int64)
        #: replicates consumed by the driving loop (batch widths folded)
        self.replicates_total = 0
        self.batches_folded = 0
        #: replicates the policy avoided running (set by :meth:`finish`)
        self.replicates_saved = 0
        self.finished = False
        self.status = [UNDECIDED] * n_sets
        #: replicate count at which each set was decided (-1 = undecided)
        self.decided_at = np.full(n_sets, -1, dtype=np.int64)
        self._ci_low = np.zeros(n_sets, dtype=np.float64)
        self._ci_high = np.ones(n_sets, dtype=np.float64)
        self._mask = np.ones(n_sets, dtype=bool)
        self._posted_replicates = 0

    # -- folding -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when an attached policy has decided every set."""
        return self.policy is not None and bool((self.decided_at >= 0).all())

    @property
    def sets_converged(self) -> int:
        return int(self.n_sets - np.count_nonzero(self.decided_at < 0))

    def active_mask(self) -> np.ndarray:
        """Boolean mask of sets still accumulating (all True when passive)."""
        return self._mask.copy()

    def fold(self, batch_counts: np.ndarray, batch_width: int) -> np.ndarray:
        """Fold one batch of per-set exceedance counts; returns the
        increment the caller should add to its accumulator.

        Passive monitors return ``batch_counts`` unchanged.  Under a
        masking policy the increment is zeroed for sets already decided
        *before* this batch, freezing their counts and denominators.
        """
        batch_counts = np.asarray(batch_counts, dtype=np.int64)
        if batch_counts.shape != (self.n_sets,):
            raise ValueError("batch_counts must have one entry per set")
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        if self.masking and not self._mask.all():
            increment = np.where(self._mask, batch_counts, 0)
        else:
            increment = batch_counts
        self.exceed += increment
        active = self._mask if self.masking else np.ones(self.n_sets, dtype=bool)
        self.denominators[active] += batch_width
        self.replicates_total += batch_width
        self.batches_folded += 1
        self._classify()
        self._post_batch()
        return increment

    def _classify(self) -> None:
        """Recompute CIs for undecided sets and settle any that became
        decisive.  Decisions are sticky: once decided, a set's status,
        bounds, and (under masking) counts never move again."""
        open_sets = [k for k in range(self.n_sets) if self.status[k] == UNDECIDED]
        if not open_sets:
            return
        n = int(self.replicates_total)
        counts = self.exceed[open_sets]
        low, high = wilson_interval(counts, max(n, 1))
        newly: list[int] = []
        for i, k in enumerate(open_sets):
            self._ci_low[k] = low[i]
            self._ci_high[k] = high[i]
            if n < self.min_replicates:
                continue
            if high[i] < self.alpha:
                self.status[k] = DECIDED_SIGNIFICANT
            elif low[i] > self.alpha:
                self.status[k] = DECIDED_NULL
            else:
                continue
            self.decided_at[k] = n
            if self.masking:
                self._mask[k] = False
            newly.append(k)
        for k in newly:
            self._post_converged(k)

    def finish(self) -> None:
        """Close the run: bank the replicates the policy avoided and post
        the final accounting event.  Idempotent."""
        if self.finished:
            return
        self.finished = True
        if self.planned_replicates > self.replicates_total:
            self.replicates_saved = self.planned_replicates - self.replicates_total
        if self.bus is not None and self.batches_folded:
            self.bus.post(self._batch_event(batch_width=0))

    # -- estimates ---------------------------------------------------------

    def pvalues(self, method: str = "plugin") -> np.ndarray:
        """Per-set running p-value estimates honoring per-set denominators.

        Decided sets under masking report the estimate frozen at their
        decision point; active sets use all replicates folded so far.
        """
        denom = np.maximum(self.denominators, 1).astype(np.float64)
        if method == "plugin":
            return self.exceed / denom
        if method == "add_one":
            return (self.exceed + 1.0) / (denom + 1.0)
        raise ValueError(f"unknown p-value method {method!r}")

    def min_pvalue(self) -> float:
        if self.replicates_total == 0:
            return 1.0
        return float(self.pvalues().min())

    # -- event emission ----------------------------------------------------

    def _batch_event(self, batch_width: int) -> InferenceBatchCompleted:
        return InferenceBatchCompleted(
            method=self.method,
            batch_width=batch_width,
            replicates_total=self.replicates_total,
            planned_replicates=self.planned_replicates,
            sets_total=self.n_sets,
            sets_converged=self.sets_converged,
            replicates_saved=self.replicates_saved,
            min_pvalue=self.min_pvalue(),
            early_stop=self.policy is not None,
        )

    def _post_batch(self) -> None:
        if self.bus is None:
            return
        # fold() updates replicates_total before posting; the event's width
        # is the delta since the previous post
        width = self.replicates_total - self._posted_replicates
        self._posted_replicates = self.replicates_total
        self.bus.post(self._batch_event(batch_width=width))

    def _post_converged(self, k: int) -> None:
        if self.bus is None:
            return
        self.bus.post(SnpSetConverged(
            method=self.method,
            set_index=k,
            set_name=self.set_names[k],
            status=self.status[k],
            pvalue=float(self.pvalues()[k]),
            ci_low=float(self._ci_low[k]),
            ci_high=float(self._ci_high[k]),
            replicates=int(self.decided_at[k]),
            alpha=self.alpha,
        ))


class InferenceObservability:
    """Context-resident holder for convergence monitors.

    Always present on a :class:`~repro.engine.context.Context`.  Resampling
    runs mint monitors through :meth:`new_monitor`, which wires the
    context's bus and -- when ``inference_early_stop`` is on -- the
    configured :class:`EarlyStopPolicy`; :attr:`monitors` keeps the most
    recent ones for in-process inspection (per-set ``status``,
    ``pvalues()``, ``decided_at``).
    """

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        #: monitors minted this context, oldest first (bounded)
        self.monitors: list[ConvergenceMonitor] = []

    def new_monitor(
        self,
        n_sets: int,
        method: str,
        planned_replicates: int,
        set_names: Sequence[str] | None = None,
    ) -> ConvergenceMonitor:
        config = self.ctx.config
        monitor = ConvergenceMonitor(
            n_sets=n_sets,
            method=method,
            planned_replicates=planned_replicates,
            set_names=set_names,
            alpha=config.inference_alpha,
            bus=self.ctx.listener_bus,
            policy=EarlyStopPolicy.from_config(config),
        )
        self.monitors.append(monitor)
        if len(self.monitors) > 8:
            del self.monitors[: len(self.monitors) - 8]
        return monitor


__all__ = [
    "ConvergenceMonitor",
    "EarlyStopPolicy",
    "InferenceObservability",
    "wilson_interval",
    "UNDECIDED",
    "DECIDED_SIGNIFICANT",
    "DECIDED_NULL",
    "DECISION_CONFIDENCE",
]
