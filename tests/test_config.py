"""EngineConfig: the settable surface and its validation."""

import dataclasses
import inspect

import pytest

from repro.config import EngineConfig


class TestSurface:
    def test_fields_are_the_settings_a_caller_sets(self):
        # a new knob is a deliberate edit here: it needs a non-test caller
        # that sets it, or it describes the deployment
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "backend", "num_executors", "executor_cores", "executor_memory",
            "default_parallelism", "max_task_retries", "heartbeat_interval",
            "heartbeat_timeout", "log_level",
            "inference_early_stop", "inference_alpha",
        ]
        assert len(dataclasses.fields(EngineConfig)) == 11

    def test_one_warm_fleet_mechanism(self):
        # decided by measurement: an external head saved a CLI run less than
        # the benchmark's 25% bound (DESIGN.md section 13), so the in-process
        # fleet is the only one and its payloads cross by shm or temp file
        from repro.cli import build_parser
        from repro.engine import frames, transport

        for knob in ("transport_scheme", "cluster_address", "cluster_secret"):
            with pytest.raises(TypeError):
                EngineConfig(**{knob: ""})
        parser = build_parser()
        for argv in (
            ["cluster", "start"],
            ["cluster", "status"],
            ["analyze", "data", "--engine", "distributed",
             "--cluster-address", "127.0.0.1:7077"],
            ["analyze", "data", "--cluster-secret", "s3cret"],
        ):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, argv
        for name in ("SocketTransport", "create_transport", "advertised_host"):
            assert not hasattr(transport, name), name
        gone = [
            name for name in dir(frames)
            if name.startswith("BLOB_") or name in (
                "ATTACH", "ATTACH_REPLY", "STATUS", "STATUS_REPLY", "FLEET",
                "FLEET_REPLY", "BINARY_SHIPPED", "INFERENCE",
            )
        ]
        assert gone == []

    @pytest.mark.parametrize("knob", ["adaptive", "speculation"])
    def test_adaptive_execution_is_not_a_knob(self, knob):
        # the static plan is the only plan: no field, no Context planner
        from repro.engine.context import Context

        with pytest.raises(TypeError):
            EngineConfig(**{f"{knob}_enabled": True})
        with Context(EngineConfig()) as ctx:
            assert not hasattr(ctx, "adaptive")

    def test_metrics_sampler_and_alerts_are_not_knobs(self):
        # decided by measurement: no built-in alert named a cause nothing
        # else in the same run named (DESIGN.md section 12)
        from repro.engine.context import Context

        with pytest.raises(TypeError):
            EngineConfig(metrics_interval=0.05)
        with pytest.raises(TypeError):
            EngineConfig(alerts_enabled=True)
        with pytest.raises(TypeError):
            Context(alert_rules=[])
        with Context(EngineConfig()) as ctx:
            for name in ("timeseries", "sampler", "alerts"):
                assert not hasattr(ctx, name), name

    def test_flight_recorder_is_not_a_knob(self):
        # decided by measurement: a failed run's event log holds what the
        # bundle held, and doctor names it (DESIGN.md section 12)
        from repro.engine.context import Context
        from repro.obs import spans

        with pytest.raises(TypeError):
            EngineConfig(flight_recorder_dir="/tmp/fr")
        with Context(EngineConfig()) as ctx:
            assert not hasattr(ctx, "flight_recorder")
        # the live tracer (and its open-span view) is gone with it
        assert not hasattr(spans, "TracingListener")

    def test_no_second_spelling(self):
        for name in ("set", "get", "_ALIASES", "extra"):
            assert not hasattr(EngineConfig(), name), name

    def test_context_takes_sinks_not_settings(self):
        from repro.engine.context import Context

        params = list(inspect.signature(Context.__init__).parameters)[1:]
        assert params == [
            "config", "fault_injector", "event_log_path", "trace_path",
            "progress", "log_file",
        ]


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.total_cores == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "cuda"},
            {"num_executors": 0},
            {"executor_cores": 0},
            {"executor_memory": -1},
            {"default_parallelism": 0},
            {"backend": "processes"},  # one spelling: "cluster"
            {"max_task_retries": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_frame_format_is_not_a_knob(self):
        from repro.engine.context import Context

        with pytest.raises(TypeError):
            EngineConfig(serializer="numpy")
        with pytest.raises(TypeError):
            EngineConfig().copy(serializer="compressed")
        with pytest.raises(TypeError):
            Context(serializer="numpy")
        assert EngineConfig().serializer == "pickle"

    def test_storage_memory_budget(self):
        config = EngineConfig(executor_memory=1000)
        assert config.storage_memory_per_executor == 600

    def test_copy_overrides(self):
        base = EngineConfig(num_executors=2)
        derived = base.copy(num_executors=5)
        assert derived.num_executors == 5
        assert base.num_executors == 2
        with pytest.raises(ValueError):
            base.copy(num_executors=0)  # copies validate too


class TestMonitoringKnobs:
    def test_defaults_off(self):
        config = EngineConfig()
        assert config.inference_early_stop is False
        assert config.log_level == "info"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inference_alpha": 1.0},
            {"log_level": "trace"},
            {"inference_alpha": 0.0},
            {"log_level": "verbose"},
        ],
    )
    def test_invalid_monitoring_values(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_copy_carries_monitoring_fields(self):
        config = EngineConfig().copy(
            log_level="debug", inference_early_stop=True,
        )
        assert config.log_level == "debug"
        assert config.inference_early_stop is True
