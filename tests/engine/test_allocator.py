"""A Context pins glibc's malloc thresholds, so waves stop faulting memory in.

Each Monte Carlo wave allocates a handful of ``(256, n)`` float64 arrays.
Under glibc's default, dynamic thresholds a fresh process maps or trims them
at the end of every wave and faults them back in on the next: ~1,500 minor
faults a wave at ``n = 1000``.  The price of the pin is that a process keeps
what it frees resident, so a fleet forks only after the driver has handed
its free heap back.  Each check runs in a fresh child process, so that
nothing earlier in it (a large temporary freed by another test) has moved
glibc's thresholds already.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

SRC = Path(__file__).resolve().parents[2] / "src"

def run_child(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


#: waves of 256 replicates in each of the two analyses the child runs
WAVES = 6
#: minor faults allowed per wave of the second analysis: a pinned process
#: reads ~0, glibc's defaults ~1,600
FAULTS_PER_WAVE = 150

CHILD = textwrap.dedent(
    """
    import resource, sys
    from repro.config import EngineConfig
    from repro.core.sparkscore import SparkScoreAnalysis

    data, waves = sys.argv[1], int(sys.argv[2])
    config = EngineConfig(backend="serial", default_parallelism=4)
    with SparkScoreAnalysis.from_files(data, engine="distributed", config=config) as analysis:
        # the first analysis grows the heap to what its waves hold at once
        analysis.monte_carlo(256 * waves, seed=1, batch_size=64)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = analysis.monte_carlo(256 * waves, seed=2, batch_size=64)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert result.n_resamples == 256 * waves
    print("FAULTS", after - before)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_second_analysis_faults_little_memory_in(tmp_path):
    # written here: the child only reads files, as a benchmark repeat does
    data = generate_dataset(SyntheticConfig(n_patients=1000, n_snps=600, n_snpsets=6, seed=2))
    write_dataset(data, str(tmp_path / "data"))
    faults = int(run_child(CHILD, str(tmp_path / "data"), str(WAVES)).split("FAULTS")[1])
    assert faults / WAVES < FAULTS_PER_WAVE, f"{faults} minor faults over {WAVES} waves"


FORK_CHILD = textwrap.dedent(
    """
    import resource
    import numpy as np
    from repro.config import EngineConfig
    from repro.engine.context import Context

    def peak_mib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    Context(EngineConfig(backend="serial")).stop()  # pins the thresholds
    freed = [np.ones(1 << 20) for _ in range(6)]  # 48 MiB of heap, touched
    del freed  # free, and kept resident under the 64 MiB trim threshold
    config = EngineConfig(backend="cluster", num_executors=1, executor_cores=1,
                          default_parallelism=1)
    with Context(config) as ctx:
        worker = ctx.parallelize([0], 1).map(lambda _: peak_mib()).collect()[0]
    print("PEAKS", peak_mib(), worker)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_a_fleet_forks_without_the_drivers_free_heap():
    driver, worker = (float(v) for v in run_child(FORK_CHILD).split("PEAKS")[1].split())
    # the driver's peak holds the 48 MiB; a worker forked with it would too
    assert worker < driver - 24, (driver, worker)
