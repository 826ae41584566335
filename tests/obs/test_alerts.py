"""The alerting engine: rules, the state machine, sinks, live heartbeat loss."""

import json
import threading
import time

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.listener import AlertFired, AlertResolved, Listener, ListenerBus
from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    ConsoleAlertSink,
    JsonlAlertSink,
    builtin_rules,
    load_rules,
)
from repro.obs.timeseries import TimeSeriesStore


def _store_with(name, points, labels=None, kind="counter"):
    store = TimeSeriesStore()
    for t, v in points:
        store.record(name, v, labels=labels, t=t, kind=kind)
    return store


class TestAlertRule:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            AlertRule(name="r", metric="m", kind="magic")

    def test_op_validated(self):
        with pytest.raises(ValueError, match="comparison"):
            AlertRule(name="r", metric="m", op="!=")

    def test_round_trips_through_dict(self):
        rule = AlertRule(
            name="r", metric="m", kind="rate", op=">=", threshold=2.5,
            window=7.0, for_seconds=1.0, severity="critical",
            description="d", labels={"executor": "e0"},
        )
        assert AlertRule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown alert rule fields"):
            AlertRule.from_dict({"name": "r", "metric": "m", "tresholdd": 1})

    def test_gate_not_serialized(self):
        rule = AlertRule(name="r", metric="m", gate=lambda labels: True)
        assert "gate" not in rule.to_dict()

    def test_threshold_condition(self):
        store = _store_with("m", [(0.0, 1.0), (1.0, 9.0)])
        (series,) = store.all_series("m")
        rule = AlertRule(name="r", metric="m", op=">", threshold=5.0)
        assert rule.holds(series, now=1.0) == (True, 9.0)
        assert AlertRule(name="r", metric="m", op="<", threshold=5.0).holds(
            series, now=1.0
        ) == (False, 9.0)

    def test_rate_condition(self):
        store = _store_with("m", [(float(t), t * 2.0) for t in range(6)])
        (series,) = store.all_series("m")
        rule = AlertRule(name="r", metric="m", kind="rate", op=">",
                         threshold=1.0, window=5.0)
        holds, value = rule.holds(series, now=5.0)
        assert holds and value == pytest.approx(2.0)

    def test_absence_condition_compares_staleness_to_window(self):
        store = _store_with("m", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        (series,) = store.all_series("m")
        rule = AlertRule(name="r", metric="m", kind="absence", window=3.0)
        assert rule.holds(series, now=2.5) == (False, 2.5)   # changed 2.5s ago
        holds, value = rule.holds(series, now=4.0)
        assert holds and value == pytest.approx(4.0)

    def test_load_rules_accepts_list_and_wrapper(self, tmp_path):
        entries = [{"name": "a", "metric": "m"}, {"name": "b", "metric": "m"}]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(entries))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"rules": entries}))
        assert [r.name for r in load_rules(str(flat))] == ["a", "b"]
        assert [r.name for r in load_rules(str(wrapped))] == ["a", "b"]


class _Recorder(Listener):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        if isinstance(event, (AlertFired, AlertResolved)):
            self.events.append(event)


class TestStateMachine:
    def _manager(self, rule, store, bus=None):
        return AlertManager(store, bus=bus, rules=[rule])

    def test_fires_immediately_without_dwell(self):
        store = _store_with("m", [(0.0, 10.0)])
        mgr = self._manager(AlertRule(name="r", metric="m", threshold=5.0), store)
        (transition,) = mgr.evaluate(now=0.0)
        assert transition["transition"] == "firing"
        assert transition["value"] == 10.0
        (st,) = mgr.firing()
        assert st["rule"] == "r"

    def test_pending_dwell_absorbs_flapping(self):
        store = _store_with("m", [(0.0, 10.0)])
        rule = AlertRule(name="r", metric="m", threshold=5.0, for_seconds=1.0)
        mgr = self._manager(rule, store)
        assert mgr.evaluate(now=0.0) == []          # pending, not firing
        (st,) = mgr.states()
        assert st["state"] == "pending"
        # condition clears before the dwell elapses: back to inactive
        store.record("m", 1.0, t=0.5)
        assert mgr.evaluate(now=0.5) == []
        assert mgr.states()[0]["state"] == "inactive"
        # condition re-asserts and holds through the dwell: fires once
        store.record("m", 10.0, t=1.0)
        assert mgr.evaluate(now=1.0) == []
        (transition,) = mgr.evaluate(now=2.1)
        assert transition["transition"] == "firing"

    def test_firing_resolves_and_rearms(self):
        store = _store_with("m", [(0.0, 10.0)])
        mgr = self._manager(AlertRule(name="r", metric="m", threshold=5.0), store)
        mgr.evaluate(now=0.0)
        store.record("m", 1.0, t=1.0)
        (transition,) = mgr.evaluate(now=1.0)
        assert transition["transition"] == "resolved"
        assert mgr.firing() == []
        # a fresh breach fires again
        store.record("m", 11.0, t=2.0)
        (again,) = mgr.evaluate(now=2.0)
        assert again["transition"] == "firing"
        assert mgr.states()[0]["fired_count"] == 2

    def test_per_label_set_independent_states(self):
        store = TimeSeriesStore()
        store.record("m", 10.0, labels={"e": "a"}, t=0.0)
        store.record("m", 1.0, labels={"e": "b"}, t=0.0)
        mgr = self._manager(AlertRule(name="r", metric="m", threshold=5.0), store)
        (transition,) = mgr.evaluate(now=0.0)
        assert transition["labels"] == {"e": "a"}
        states = {s["labels"]["e"]: s["state"] for s in mgr.states()}
        assert states == {"a": "firing", "b": "inactive"}

    def test_label_filter_subset_match(self):
        store = TimeSeriesStore()
        store.record("m", 10.0, labels={"e": "a", "extra": "x"}, t=0.0)
        store.record("m", 10.0, labels={"e": "b"}, t=0.0)
        rule = AlertRule(name="r", metric="m", threshold=5.0, labels={"e": "a"})
        mgr = self._manager(rule, store)
        (transition,) = mgr.evaluate(now=0.0)
        assert transition["labels"]["e"] == "a"

    def test_gate_vetoes_and_clears_pending(self):
        store = _store_with("m", [(0.0, 10.0)])
        open_gate = [True]
        rule = AlertRule(
            name="r", metric="m", threshold=5.0, for_seconds=5.0,
            gate=lambda labels: open_gate[0],
        )
        mgr = self._manager(rule, store)
        mgr.evaluate(now=0.0)
        assert mgr.states()[0]["state"] == "pending"
        open_gate[0] = False
        mgr.evaluate(now=1.0)
        assert mgr.states()[0]["state"] == "inactive"
        # re-entry restarts the dwell from scratch: no instant fire at t=6
        open_gate[0] = True
        assert mgr.evaluate(now=6.0) == []
        assert mgr.states()[0]["state"] == "pending"

    def test_gate_exception_skips_series(self):
        store = _store_with("m", [(0.0, 10.0)])
        rule = AlertRule(
            name="r", metric="m", threshold=5.0,
            gate=lambda labels: 1 / 0,
        )
        mgr = self._manager(rule, store)
        assert mgr.evaluate(now=0.0) == []
        assert mgr.states() == []

    def test_bus_events_posted(self):
        bus = ListenerBus()
        recorder = _Recorder()
        bus.add_listener(recorder)
        store = _store_with("m", [(0.0, 10.0)])
        mgr = self._manager(
            AlertRule(name="r", metric="m", threshold=5.0, severity="critical"),
            store, bus=bus,
        )
        mgr.evaluate(now=0.0)
        store.record("m", 1.0, t=1.0)
        mgr.evaluate(now=1.0)
        bus.stop()
        kinds = [type(e).__name__ for e in recorder.events]
        assert kinds == ["AlertFired", "AlertResolved"]
        fired = recorder.events[0]
        assert (fired.rule, fired.severity, fired.value) == ("r", "critical", 10.0)

    def test_history_bounded(self):
        store = _store_with("m", [(0.0, 10.0)])
        mgr = AlertManager(
            store, rules=[AlertRule(name="r", metric="m", threshold=5.0)],
            history_capacity=4,
        )
        for i in range(8):
            store.record("m", 10.0, t=float(2 * i))
            mgr.evaluate(now=float(2 * i))
            store.record("m", 1.0, t=float(2 * i + 1))
            mgr.evaluate(now=float(2 * i + 1))
        assert len(mgr.history) == 4

    def test_sink_isolation_and_jsonl_sink(self, tmp_path):
        store = _store_with("m", [(0.0, 10.0)])
        mgr = AlertManager(store, rules=[AlertRule(name="r", metric="m", threshold=5.0)])
        path = tmp_path / "alerts.jsonl"
        sink = JsonlAlertSink(str(path))

        def bad(record):
            raise RuntimeError("sink boom")

        mgr.add_sink(bad)
        mgr.add_sink(sink)
        mgr.evaluate(now=0.0)
        sink.close()
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record["transition"] == "firing" and record["rule"] == "r"

    def test_console_sink_routes_by_severity(self):
        from repro.obs.logging import LOG_BUS

        LOG_BUS.clear()
        sink = ConsoleAlertSink()
        sink({"transition": "firing", "rule": "r", "severity": "critical",
              "metric": "m", "value": 1.0, "labels": {"executor": "e0"}})
        sink({"transition": "resolved", "rule": "r", "severity": "warning",
              "metric": "m", "value": 0.0, "labels": {}})
        levels = {r.level for r in LOG_BUS.records() if r.message.startswith("alert ")}
        assert levels == {"error", "warning"}


class TestBuiltinRules:
    def test_expected_rule_set(self):
        rules = {r.name: r for r in builtin_rules()}
        assert set(rules) == {
            "heartbeat_loss", "gc_pause_pressure", "shuffle_spill_growth",
            "straggler_rate", "cache_thrash",
        }
        assert rules["heartbeat_loss"].kind == "absence"
        assert rules["heartbeat_loss"].severity == "critical"
        assert rules["gc_pause_pressure"].kind == "rate"

    def test_heartbeat_gate_threaded_through(self):
        gate = lambda labels: False  # noqa: E731
        rules = {r.name: r for r in builtin_rules(heartbeat_gate=gate, heartbeat_window=1.5)}
        assert rules["heartbeat_loss"].gate is gate
        assert rules["heartbeat_loss"].window == 1.5
        assert all(r.gate is None for name, r in rules.items() if name != "heartbeat_loss")


class _WaitForFile:
    """A task that runs until ``path`` exists (a release signal that crosses
    the process boundary to a cluster worker)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __call__(self, x):
        import os

        deadline = time.monotonic() + 15.0
        while not os.path.exists(self.path) and time.monotonic() < deadline:
            time.sleep(0.01)
        return x


class TestLiveHeartbeatLoss:
    def test_pending_firing_resolved_on_a_live_context(self, fresh_cluster, tmp_path):
        """The acceptance drill: suspend a busy executor's heartbeats and
        watch the built-in rule walk pending -> firing -> resolved."""
        release = tmp_path / "release"
        done = threading.Event()
        config, _ = fresh_cluster(
            num_executors=1, default_parallelism=1, heartbeat_interval=0.05,
            metrics_interval=0.02, alerts_enabled=True,
        )
        with Context(config) as ctx:
            recorder = _Recorder()
            ctx.listener_bus.add_listener(recorder)

            def run():
                try:
                    ctx.parallelize([0], 1).map(_WaitForFile(str(release))).collect()
                finally:
                    done.set()

            worker = threading.Thread(target=run)
            worker.start()
            try:
                deadline = time.monotonic() + 10.0
                # wait until the task is in flight (opens the busy gate) and
                # at least one heartbeat landed in the TSDB -- suspending
                # before the first beat leaves nothing for the rule to watch
                while not (
                    ctx.heartbeats.busy_executors()
                    and ctx.timeseries.all_series("engine_executor_heartbeats_total")
                ):
                    assert time.monotonic() < deadline, "task never launched"
                    time.sleep(0.01)
                ctx.executors[0].suspend_heartbeats()

                def state_of():
                    return {
                        s["labels"].get("executor"): s["state"]
                        for s in ctx.alerts.states()
                        if s["rule"] == "heartbeat_loss"
                    }.get("exec-0")

                while state_of() != "firing":
                    assert time.monotonic() < deadline, (
                        f"never fired; states={ctx.alerts.states()}"
                    )
                    time.sleep(0.02)
                ctx.executors[0].resume_heartbeats()
                while state_of() != "resolved":
                    assert time.monotonic() < deadline, (
                        f"never resolved; states={ctx.alerts.states()}"
                    )
                    time.sleep(0.02)
            finally:
                release.touch()
                worker.join(timeout=15.0)
            assert done.is_set()
            transitions = [
                (h["rule"], h["transition"]) for h in ctx.alerts.history
            ]
            assert ("heartbeat_loss", "firing") in transitions
            assert ("heartbeat_loss", "resolved") in transitions
        kinds = [type(e).__name__ for e in recorder.events]
        assert "AlertFired" in kinds and "AlertResolved" in kinds

    def test_idle_executors_never_alarm(self):
        """Without in-flight work the gate closes: a stopped heartbeat on an
        idle executor is normal, not an incident."""
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=1,
            default_parallelism=2, heartbeat_interval=0.05,
            metrics_interval=0.02, alerts_enabled=True,
        )
        with Context(config) as ctx:
            ctx.parallelize(range(4), 2).sum()
            time.sleep(0.8)  # well past the absence window, all idle
            assert [
                s for s in ctx.alerts.states() if s["rule"] == "heartbeat_loss"
            ] == []
