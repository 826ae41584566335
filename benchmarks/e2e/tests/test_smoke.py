"""Self-tests of the benchmark at the smoke size (400 SNPs x 60 patients, B=64).

Not collected by tier-1 (``testpaths = tests``); run with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from compare import EXACT_COUNTS

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
RUN = str(E2E / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--scale", "smoke", "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two complete smoke runs: (result dict, output dir, seconds) each."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp(f"smoke{i}")
        start = time.monotonic()
        done = run(out, "--out", str(out))
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        runs.append((json.loads((out / "result.json").read_text()), out, elapsed, done.stdout))
    return runs


def test_all_workloads_and_traces_in_under_a_minute(smoke_runs):
    for result, out, elapsed, _ in smoke_runs:
        assert elapsed < 60
        assert list(result["workloads"]) == WORKLOADS
        for name in WORKLOADS:
            assert (out / f"trace.{name}.json").is_file()
        assert not (out / ".bench_e2e").exists()


def test_every_declared_metric_is_emitted_and_well_named(smoke_runs):
    result, _, _, stdout = smoke_runs[0]
    for kind in ("end_to_end", "per_layer"):
        declared = [m["name"] for m in SPEC[kind]]
        assert len(set(declared)) == len(declared)
        for metric in SPEC[kind]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
        for name in WORKLOADS:
            assert set(result["workloads"][name][kind]) == set(declared), name
            for metric in SPEC[kind]:
                # printed by name with its unit
                assert re.search(
                    rf"^{name}\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}",
                    stdout, re.M,
                ), (name, metric["name"])
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"wall_s", "setup_s"}


def test_results_verified_and_nothing_failed_or_leaked(smoke_runs):
    for result, _, _, _ in smoke_runs:
        assert result["env"]["blas_threads"] == 1
        for name, report in result["workloads"].items():
            assert report["verify"]["ok"], name
            assert report["failed"] == 0 and report["failed_frac"] == 0.0, name
            assert report["attempted"] == report["end_to_end"]["wall_s"]["n"] >= 2
            assert report["per_layer"]["proc.children_alive"] == 0, name
            assert report["per_layer"]["proc.leaked_shm"] == 0, name
            assert report["per_layer"]["engine.scheduler.task_failures"] == 0, name


def test_phase_spans_sum_to_wall_within_unattributed_pct(smoke_runs):
    result, out, _, _ = smoke_runs[0]
    for name in WORKLOADS:
        events = json.loads((out / f"trace.{name}.json").read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 and isinstance(e["tid"], int) for e in spans)
        (root,) = [e for e in spans if e["args"]["parent"] is None]
        phases = [e for e in spans if e["args"]["parent"] == root["args"]["id"]]
        assert len(phases) == 5
        unattributed = 100.0 * (root["dur"] - sum(e["dur"] for e in phases)) / root["dur"]
        reported = result["workloads"][name]["per_layer"]["trace.unattributed_pct"]
        assert unattributed == pytest.approx(reported, abs=0.01)
        assert 0.0 <= reported <= 5.0
        # every job, stage and task hangs off a recorded parent
        ids = {e["args"]["id"] for e in spans}
        assert all(e["args"]["parent"] in ids for e in spans if e is not root)


def test_exact_counts_repeat(smoke_runs):
    first, second = smoke_runs[0][0], smoke_runs[1][0]
    for name in WORKLOADS:
        for count in EXACT_COUNTS:
            a = first["workloads"][name]["per_layer"][count]
            assert a == second["workloads"][name]["per_layer"][count], (name, count)
            assert a > 0 or count == "engine.shuffle.records_written"
    # the paper flavor is the one that shuffles per record
    shuffled = {n: first["workloads"][n]["per_layer"]["engine.shuffle.records_written"]
                for n in WORKLOADS}
    assert shuffled["paper_uncached_threads"] > 10 * shuffled["mc_serial"]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_workload_result_line(tmp_path, trace, kind):
    done = run(tmp_path, "--workload", "mc_serial", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
    assert not (tmp_path / ".bench_e2e").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    """BENCHMARK.json plus the benchmark's own files only: fail, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mc_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
