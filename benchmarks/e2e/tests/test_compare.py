"""``compare.py`` verdicts and exit codes on hand-made result files."""

from __future__ import annotations

import copy
import json

import compare
import pytest

SPEC = json.loads(compare.SPEC_FILE.read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def result(wall: float = 2.0, failed_frac: float = 0.0, nproc_ok: bool = True) -> dict:
    report = {
        "failed_frac": failed_frac,
        "end_to_end": {
            "wall_s": {"value": wall, "samples": [wall * f for f in (0.99, 1.0, 1.0, 1.01)]},
            "setup_s": {"value": 1.0, "samples": [1.0, 1.0, 1.0]},
            "snp_reps_per_s": {"value": 1e6 / wall, "samples": [1e6 / wall] * 4},
            "peak_rss_mb": {"value": 200.0},
        },
        "per_layer": dict.fromkeys(compare.EXACT_COUNTS, 7),
    }
    workloads = {w["name"]: copy.deepcopy(report) for w in SPEC["workloads"]}
    for name, entry in workloads.items():
        entry["backend"] = "cluster" if "cluster" in name else "serial"
    return {"env": {"cluster_comparable": nproc_ok}, "workloads": workloads}


def verdicts(lines: list[str], workload: str, metric: str) -> str:
    (line,) = [l for l in lines if l.startswith(workload) and f" {metric} " in l]
    return line.split()[-1]


def test_same_numbers_are_within_bound():
    lines, regressed = compare.compare(result(), result(), SPEC)
    assert not regressed
    assert verdicts(lines, "mc_serial", "wall_s") == "within-bound"
    assert verdicts(lines, "mc_serial", "engine.scheduler.jobs") == "same"


def test_worse_beyond_bound_regresses_and_better_does_not():
    # half again as slow: beyond the bound for the time and for its reciprocal
    assert max(BOUND["wall_s"], BOUND["snp_reps_per_s"]) < 1 / 3
    slower = result(wall=3.0)
    lines, regressed = compare.compare(result(), slower, SPEC)
    assert regressed
    assert verdicts(lines, "mc_serial", "wall_s") == "worse"
    assert verdicts(lines, "mc_serial", "snp_reps_per_s") == "worse"
    lines, regressed = compare.compare(slower, result(), SPEC)
    assert not regressed
    assert verdicts(lines, "mc_serial", "wall_s") == "better"


def test_wide_spread_inside_the_bound_is_unresolved_not_unchanged():
    noisy = result()
    noisy["workloads"]["mc_serial"]["end_to_end"]["wall_s"]["samples"] = [1.0, 1.6, 2.4, 3.4]
    lines, regressed = compare.compare(result(), noisy, SPEC)
    assert not regressed
    assert verdicts(lines, "mc_serial", "wall_s") == "unresolved"
    assert verdicts(lines, "perm_cluster_cold", "wall_s") == "within-bound"


def test_one_core_leaves_cluster_workloads_unresolved():
    lines, regressed = compare.compare(result(), result(wall=9.0, nproc_ok=False), SPEC)
    assert verdicts(lines, "mc_cluster_warm", "wall_s") == "unresolved"
    assert verdicts(lines, "perm_cluster_cold", "wall_s") == "unresolved"
    assert verdicts(lines, "mc_serial", "wall_s") == "worse"
    assert regressed


def test_any_rise_in_failed_frac_regresses():
    lines, regressed = compare.compare(result(), result(failed_frac=1 / 3), SPEC)
    assert regressed
    assert verdicts(lines, "paper_uncached_threads", "failed_frac") == "worse"


def test_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result()))
    b.write_text(json.dumps(result(wall=3.0)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a)]) == 2
    assert "verdict" in capsys.readouterr().out


@pytest.mark.parametrize("samples, expected", [([1.0, 1.0], 0.0), ([1.0, 2.0, 3.0], 0.5)])
def test_spread(samples, expected):
    assert compare.spread({"samples": samples}) == pytest.approx(expected)
