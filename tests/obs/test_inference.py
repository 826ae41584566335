"""Convergence monitor: interval math, classification, early stopping."""

import dataclasses

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.engine.listener import (
    InferenceBatchCompleted,
    Listener,
    ListenerBus,
    SnpSetConverged,
)
from repro.obs.inference import (
    DECIDED_NULL,
    DECIDED_SIGNIFICANT,
    DECISION_CONFIDENCE,
    UNDECIDED,
    ConvergenceMonitor,
    EarlyStopPolicy,
    wilson_interval,
)


class CollectingListener(Listener):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestIntervals:
    def test_wilson_brackets_the_proportion(self):
        low, high = wilson_interval(5, 100)
        assert low < 0.05 < high
        assert 0.0 <= low and high <= 1.0

    def test_wilson_vectorized(self):
        low, high = wilson_interval(np.array([0, 50, 100]), 100)
        assert low.shape == high.shape == (3,)
        assert low[0] == 0.0 and high[2] == 1.0
        assert np.all(low <= high)

    def test_wilson_narrows_with_n(self):
        _, high_small = wilson_interval(5, 100)
        _, high_large = wilson_interval(500, 10_000)
        assert high_large - 0.05 < high_small - 0.05

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestPassiveMonitor:
    def test_fold_returns_input_unchanged(self):
        monitor = ConvergenceMonitor(n_sets=3)
        batch = np.array([1, 5, 9], dtype=np.int64)
        out = monitor.fold(batch, 10)
        np.testing.assert_array_equal(out, batch)
        assert monitor.replicates_total == 10
        assert not monitor.done  # passive monitors never stop the loop

    def test_bit_identical_accumulation(self, rng):
        """counts += fold(batch) == counts += batch, replicate for replicate."""
        monitor = ConvergenceMonitor(n_sets=4)
        plain = np.zeros(4, dtype=np.int64)
        monitored = np.zeros(4, dtype=np.int64)
        for _ in range(12):
            batch = rng.integers(0, 17, size=4)
            plain += batch
            monitored += monitor.fold(batch, 16)
        np.testing.assert_array_equal(plain, monitored)
        np.testing.assert_array_equal(monitor.denominators, 12 * 16)

    def test_classification_without_policy_is_telemetry_only(self):
        """Sets classify (dashboards want status) but nothing masks."""
        monitor = ConvergenceMonitor(n_sets=2, min_replicates=64)
        monitor.fold(np.array([0, 120]), 128)
        monitor.fold(np.array([0, 120]), 128)
        assert monitor.status[0] == DECIDED_SIGNIFICANT
        assert monitor.status[1] == DECIDED_NULL
        assert not monitor.done
        assert monitor.active_mask().all()

    def test_pvalues_plugin_and_add_one(self):
        monitor = ConvergenceMonitor(n_sets=2)
        monitor.fold(np.array([2, 50]), 100)
        np.testing.assert_allclose(monitor.pvalues("plugin"), [0.02, 0.5])
        np.testing.assert_allclose(
            monitor.pvalues("add_one"), [3 / 101, 51 / 101]
        )
        with pytest.raises(ValueError):
            monitor.pvalues("bogus")


class TestClassification:
    def test_min_replicates_floor_gates_decisions(self):
        monitor = ConvergenceMonitor(
            n_sets=1, policy=EarlyStopPolicy(min_replicates=256)
        )
        monitor.fold(np.array([0]), 128)
        assert monitor.status == [UNDECIDED]
        monitor.fold(np.array([0]), 128)
        assert monitor.status == [DECIDED_SIGNIFICANT]
        assert monitor.decided_at[0] == 256

    def test_decisions_are_sticky(self):
        monitor = ConvergenceMonitor(
            n_sets=1, policy=EarlyStopPolicy(min_replicates=64)
        )
        monitor.fold(np.array([0]), 256)
        assert monitor.status == [DECIDED_SIGNIFICANT]
        frozen = (monitor.exceed[0], monitor.denominators[0])
        # a wildly contradictory batch cannot reopen or move the set
        monitor.fold(np.array([256]), 256)
        assert monitor.status == [DECIDED_SIGNIFICANT]
        assert (monitor.exceed[0], monitor.denominators[0]) == frozen

    def test_masking_freezes_decided_sets_only(self):
        monitor = ConvergenceMonitor(
            n_sets=2, policy=EarlyStopPolicy(min_replicates=64)
        )
        # set 0 decisively significant, set 1 straddles alpha
        monitor.fold(np.array([0, 13]), 256)
        assert monitor.status[0] == DECIDED_SIGNIFICANT
        assert monitor.status[1] == UNDECIDED
        monitor.fold(np.array([5, 13]), 256)
        assert monitor.exceed[0] == 0  # frozen
        assert monitor.denominators[0] == 256
        assert monitor.exceed[1] == 26  # still accumulating
        assert monitor.denominators[1] == 512

    def test_done_when_all_sets_decided(self):
        monitor = ConvergenceMonitor(
            n_sets=2, planned_replicates=1024,
            policy=EarlyStopPolicy(min_replicates=64),
        )
        monitor.fold(np.array([0, 240]), 256)
        assert monitor.done
        assert monitor.sets_converged == 2
        monitor.finish()
        assert monitor.replicates_saved == 1024 - 256
        monitor.finish()  # idempotent
        assert monitor.replicates_saved == 1024 - 256

    def test_frozen_pvalues_honor_per_set_denominators(self):
        monitor = ConvergenceMonitor(
            n_sets=2, policy=EarlyStopPolicy(min_replicates=64)
        )
        monitor.fold(np.array([0, 128]), 256)
        monitor.fold(np.array([9, 128]), 256)
        pvals = monitor.pvalues("plugin")
        assert pvals[0] == 0.0  # frozen at 0/256, masked increment ignored
        assert pvals[1] == pytest.approx(0.5)

    def test_shape_and_width_validation(self):
        monitor = ConvergenceMonitor(n_sets=2)
        with pytest.raises(ValueError, match="one entry per set"):
            monitor.fold(np.array([1, 2, 3]), 10)
        with pytest.raises(ValueError, match="batch_width"):
            monitor.fold(np.array([1, 2]), 0)
        with pytest.raises(ValueError, match="set_names"):
            ConvergenceMonitor(n_sets=2, set_names=["only-one"])


class TestEvents:
    def test_batch_and_converged_events_posted(self):
        bus = ListenerBus()
        collector = CollectingListener()
        bus.add_listener(collector)
        monitor = ConvergenceMonitor(
            n_sets=2, method="monte_carlo", planned_replicates=512,
            set_names=["geneA", "geneB"], bus=bus,
            policy=EarlyStopPolicy(min_replicates=64),
        )
        monitor.fold(np.array([0, 200]), 256)
        monitor.finish()
        batches = [e for e in collector.events
                   if isinstance(e, InferenceBatchCompleted)]
        converged = [e for e in collector.events
                     if isinstance(e, SnpSetConverged)]
        assert len(batches) == 2  # one per fold + the final accounting event
        assert batches[0].batch_width == 256
        assert batches[0].replicates_saved == 0
        assert batches[-1].batch_width == 0
        assert batches[-1].replicates_saved == 512 - 256
        assert batches[-1].early_stop is True
        assert {e.set_name for e in converged} == {"geneA", "geneB"}
        by_name = {e.set_name: e for e in converged}
        assert by_name["geneA"].status == DECIDED_SIGNIFICANT
        assert by_name["geneB"].status == DECIDED_NULL
        assert by_name["geneA"].ci_high < 0.05 < by_name["geneB"].ci_low

    def test_passive_finish_posts_no_savings(self):
        bus = ListenerBus()
        collector = CollectingListener()
        bus.add_listener(collector)
        monitor = ConvergenceMonitor(
            n_sets=1, planned_replicates=128, bus=bus
        )
        monitor.fold(np.array([3]), 128)
        monitor.finish()
        finals = [e for e in collector.events
                  if isinstance(e, InferenceBatchCompleted) and e.batch_width == 0]
        assert finals and finals[0].replicates_saved == 0


class TestPolicyConfig:
    def test_from_config_disabled_returns_none(self):
        config = EngineConfig(
            backend="serial", num_executors=1, executor_cores=1,
            default_parallelism=1,
        )
        assert EarlyStopPolicy.from_config(config) is None

    def test_from_config_carries_knobs(self):
        config = EngineConfig(
            backend="serial", num_executors=1, executor_cores=1,
            default_parallelism=1, inference_early_stop=True,
            inference_alpha=0.01,
        )
        policy = EarlyStopPolicy.from_config(config)
        assert policy is not None
        assert policy.alpha == 0.01
        assert policy.min_replicates == 64
        # masking is a per-run setting of the monitor, never the policy's
        assert [f.name for f in dataclasses.fields(policy)] == ["alpha", "min_replicates"]

    def test_validation(self):
        base = dict(
            backend="serial", num_executors=1, executor_cores=1,
            default_parallelism=1,
        )
        with pytest.raises(ValueError, match="inference_alpha"):
            EngineConfig(**base, inference_alpha=1.5)
        # the interval and the replicate floor are the policy's, not settings
        for knob in ("inference_ci", "inference_min_replicates"):
            with pytest.raises(TypeError):
                EngineConfig(**base, **{knob: 1})


class TestResamplerIntegration:
    def test_montecarlo_bit_identical_with_passive_monitor(self, tiny_dataset):
        from repro.core.local import LocalSparkScore

        plain = LocalSparkScore(tiny_dataset).monte_carlo(128, seed=5)
        monitor = ConvergenceMonitor(
            n_sets=tiny_dataset.n_sets, planned_replicates=128
        )
        watched = LocalSparkScore(tiny_dataset).monte_carlo(
            128, seed=5, monitor=monitor
        )
        np.testing.assert_array_equal(plain.exceed_counts, watched.exceed_counts)
        np.testing.assert_array_equal(plain.pvalues(), watched.pvalues())
        assert monitor.replicates_total == 128

    def test_permutation_bit_identical_with_passive_monitor(self, tiny_dataset):
        from repro.core.local import LocalSparkScore

        plain = LocalSparkScore(tiny_dataset).permutation(64, seed=5)
        monitor = ConvergenceMonitor(
            n_sets=tiny_dataset.n_sets, planned_replicates=64
        )
        watched = LocalSparkScore(tiny_dataset).permutation(
            64, seed=5, monitor=monitor
        )
        np.testing.assert_array_equal(plain.exceed_counts, watched.exceed_counts)

    def test_early_stop_truncates_and_agrees_at_alpha(self, tiny_dataset):
        """The acceptance drill in miniature: early stopping must spend
        fewer replicates yet make the same alpha=0.05 significance calls."""
        from repro.core.local import LocalSparkScore

        full = LocalSparkScore(tiny_dataset).monte_carlo(2048, seed=5)
        monitor = ConvergenceMonitor(
            n_sets=tiny_dataset.n_sets, planned_replicates=2048,
            policy=EarlyStopPolicy(min_replicates=64),
        )
        stopped = LocalSparkScore(tiny_dataset).monte_carlo(
            2048, seed=5, monitor=monitor
        )
        assert stopped.n_resamples < 2048
        assert monitor.replicates_saved == 2048 - stopped.n_resamples
        calls_full = full.pvalues() < 0.05
        calls_stopped = monitor.pvalues("plugin") < 0.05
        np.testing.assert_array_equal(calls_full, calls_stopped)

    def test_distributed_passive_monitoring_always_on(self, ctx, tiny_dataset):
        """The distributed path mints a monitor even with early stop off:
        telemetry is unconditional, action is opt-in."""
        from repro.core.sparkscore import SparkScoreAnalysis

        analysis = SparkScoreAnalysis(tiny_dataset, engine="distributed", ctx=ctx)
        result = analysis.monte_carlo(128, seed=3, batch_size=64)
        assert result.info["early_stop"] is False
        assert result.info["replicates_planned"] == 128
        assert result.info["replicates_saved"] == 0
        monitor = ctx.inference.monitors[-1]
        assert monitor.policy is None
        assert monitor.replicates_total == 128 and monitor.finished

    def test_distributed_rejects_caller_monitor(self, ctx, tiny_dataset):
        from repro.core.sparkscore import SparkScoreAnalysis

        analysis = SparkScoreAnalysis(tiny_dataset, engine="distributed", ctx=ctx)
        with pytest.raises(TypeError, match="mints its own monitor"):
            analysis.monte_carlo(
                64, monitor=ConvergenceMonitor(n_sets=tiny_dataset.n_sets)
            )

    def test_distributed_early_stop_saves_replicates(self, tiny_dataset):
        from repro.core.sparkscore import SparkScoreAnalysis
        from repro.engine.context import Context

        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2,
            default_parallelism=4, inference_early_stop=True,
        )
        with Context(config) as ctx:
            analysis = SparkScoreAnalysis(
                tiny_dataset, engine="distributed", ctx=ctx
            )
            result = analysis.monte_carlo(2048, seed=3, batch_size=64)
        assert result.info["early_stop"] is True
        assert result.n_resamples < 2048
        assert (result.n_resamples + result.info["replicates_saved"] == 2048)
        monitor = ctx.inference.monitors[-1]
        assert monitor.replicates_total == result.n_resamples
        assert monitor.replicates_saved == result.info["replicates_saved"]


class TestAdvisorRules:
    def _final_batch(self, **overrides):
        from repro.engine.listener import InferenceBatchCompleted

        base = dict(
            method="monte_carlo", batch_width=0, replicates_total=4096,
            planned_replicates=4096, sets_total=4, sets_converged=4,
            replicates_saved=0, min_pvalue=0.25, early_stop=False,
        )
        base.update(overrides)
        return InferenceBatchCompleted(**base)

    def test_enable_early_stop_fires_on_wasted_replicates(self):
        from repro.obs.advisor import DiagnosisInput, rule_enable_early_stop

        early = self._final_batch(
            batch_width=64, replicates_total=512, sets_converged=4,
        )
        final = self._final_batch()
        (rec,) = rule_enable_early_stop(DiagnosisInput(
            jobs=[], inference=[early, final],
        ))
        assert "--early-stop" in rec.action
        assert "inference_early_stop" in rec.action and "spark." not in rec.action
        assert rec.evidence["replicates_past_decisiveness"] == 4096 - 512

    def test_enable_early_stop_silent_when_already_on(self):
        from repro.obs.advisor import DiagnosisInput, rule_enable_early_stop

        final = self._final_batch(early_stop=True, replicates_saved=3500)
        assert rule_enable_early_stop(
            DiagnosisInput(jobs=[], inference=[final])
        ) == []

    def test_insufficient_resamples_recommends_budget(self):
        from repro.obs.advisor import (
            DiagnosisInput,
            rule_insufficient_resamples,
        )

        # min p at the floor 1/(B+1): far more replicates needed for a
        # 10% relative error at that p
        final = self._final_batch(
            replicates_total=100, planned_replicates=100, min_pvalue=0.0099,
        )
        (rec,) = rule_insufficient_resamples(DiagnosisInput(
            jobs=[], inference=[final],
        ))
        assert rec.evidence["required_resamples"] > 100
        assert "--iterations" in rec.action

    def test_insufficient_resamples_silent_when_budget_ample(self):
        from repro.obs.advisor import (
            DiagnosisInput,
            rule_insufficient_resamples,
        )

        final = self._final_batch(
            replicates_total=100_000, planned_replicates=100_000,
            min_pvalue=0.3,
        )
        assert rule_insufficient_resamples(
            DiagnosisInput(jobs=[], inference=[final])
        ) == []
