"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

#: CI sets REPRO_BACKEND=cluster to run the suite against the worker
#: fleet, where tasks really run in parallel.  Tests that need determinism
#: or backend-specific behavior use serial_config directly.
DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND", "serial")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "shared_driver_state: test observes driver-side closure mutation "
        "(list.append inside a task); impossible across a process boundary, "
        "skipped when REPRO_BACKEND=cluster",
    )


def pytest_collection_modifyitems(config, items):
    if DEFAULT_BACKEND != "cluster":
        return
    skip = pytest.mark.skip(
        reason="closures ship to worker processes by value; driver-side "
        "mutations are not visible (documented engine limit)"
    )
    for item in items:
        if "shared_driver_state" in item.keywords:
            item.add_marker(skip)


#: threads that are *supposed* to outlive a context: the persistent
#: cluster's dispatch loop survives across contexts by design and is
#: reaped once per session (see _reap_persistent_engine)
_PERSISTENT_THREAD_PREFIXES = ("repro-cluster",)


@pytest.fixture(autouse=True)
def no_leaked_engine_threads():
    """Every engine thread must be joined by the end of each test.

    ``Context.stop()`` joins the heartbeat hub and UI server with bounded
    timeouts; a test that leaks a ``repro-*`` thread either forgot to stop
    its context or found a shutdown bug.  A short grace poll absorbs
    threads mid-exit.  Persistent-cluster threads are
    exempt: they outlive contexts on purpose.
    """
    yield
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        leaked = [
            t.name for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("repro-")
            and not t.name.startswith(_PERSISTENT_THREAD_PREFIXES)
        ]
        if not leaked:
            return
        time.sleep(0.05)
    pytest.fail(f"leaked engine threads after test: {sorted(leaked)}")


@pytest.fixture(autouse=True, scope="session")
def _reap_persistent_engine():
    """End-of-session teardown for the intentionally persistent cluster
    fleet(s)."""
    yield
    from repro.engine.cluster_backend import stop_all_clusters

    stop_all_clusters()


@pytest.fixture
def fresh_cluster():
    """Factory ``make(**config) -> (config, manager)``: a cluster fleet
    nothing has run on (2 executors x 1 core, the benchmark's shape, unless
    overridden), stopped after the test -- its workers' resident blocks and
    memos would otherwise outlive it into whoever uses the shape next."""
    from repro.engine.cluster_backend import get_cluster

    managers = []

    def make(**overrides):
        config = EngineConfig(**{
            "backend": "cluster", "num_executors": 2, "executor_cores": 1,
            "default_parallelism": 4, **overrides,
        })
        manager = get_cluster(config)
        # warm from an earlier test: start over
        if any(info["tasks_done"] for info in manager.executor_info()):
            manager.stop()
            manager = get_cluster(config)
        managers.append(manager)
        return config, manager

    yield make
    for manager in managers:
        manager.stop()


@pytest.fixture
def serial_config() -> EngineConfig:
    return EngineConfig(backend="serial", num_executors=2, executor_cores=2, default_parallelism=4)


@pytest.fixture
def ctx() -> Context:
    config = EngineConfig(
        backend=DEFAULT_BACKEND,
        num_executors=2,
        executor_cores=2,
        default_parallelism=4,
    )
    with Context(config) as context:
        yield context


@pytest.fixture(scope="session")
def tiny_dataset():
    """40 SNPs x 30 patients x 4 sets: fast unit-test payload."""
    return generate_dataset(SyntheticConfig(n_patients=30, n_snps=40, n_snpsets=4, seed=11))


@pytest.fixture(scope="session")
def small_dataset():
    """300 SNPs x 60 patients x 10 sets: integration-scale payload."""
    return generate_dataset(SyntheticConfig(n_patients=60, n_snps=300, n_snpsets=10, seed=7))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
