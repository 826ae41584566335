#!/usr/bin/env python3
"""Files-to-p-values benchmark: genotype files on disk -> resampling p-values.

Two ways in, one measuring procedure (:mod:`harness`):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload in a child process; the last line of stdout is one JSON
    object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
    end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
    ones with ``--trace 1``).

``run.py --seed N --out DIR``
    every workload, traced; prints every metric by name with its unit, the
    two informational ratios, and writes ``DIR/result.json`` (the input of
    ``compare.py``) plus ``DIR/trace.<workload>.json``.

Exits non-zero when a workload fails, times out or fails verification.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# before NumPy is imported by this process or any it starts: with two BLAS
# threads the serial Monte Carlo analysis swings by a third between runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import glob
import json
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: wall budget of one workload process, at least 3x its measured wall;
#: ``gate`` also has to end inside the 180 s the benchmark contract allows
TIMEOUT_S = {"smoke": 120, "gate": 170, "paper": 900}
SHM_GLOB = "/dev/shm/repro-*"


def load_spec() -> dict:
    with open(SPEC_FILE) as fh:
        return json.load(fh)


# -- child side ----------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import numpy

    import harness

    report = harness.run_workload(
        args.workload, args.scale, args.seed, args.seconds, bool(args.trace),
        args.workdir, args.out,
    )
    report["env"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    with open(os.path.join(args.workdir, "report.json"), "w") as fh:
        json.dump(report, fh)
    return 0


# -- parent side ---------------------------------------------------------------


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(stat_path.split("/")[2]))
    return members


def run_child(name: str, args: argparse.Namespace, trace: int) -> dict:
    """Run one workload in its own process group, under a timeout.

    Returns the child's report with ``proc.children_alive`` /
    ``proc.leaked_shm`` counted after it has gone; whatever survived is
    killed and removed, so nothing outlives this call.
    """
    workdir = Path.cwd() / ".bench_e2e" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    shm_before = set(glob.glob(SHM_GLOB))
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", args.scale, "--workdir", str(workdir),
    ]
    if args.out:
        cmd += ["--out", args.out]
    # temp files of the program (transport fallback, multiprocessing) stay
    # inside the checkout
    env = dict(os.environ, TMPDIR=str(workdir))
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    timed_out = False
    try:
        try:
            returncode = proc.wait(timeout=TIMEOUT_S[args.scale])
        except subprocess.TimeoutExpired:
            timed_out, returncode = True, None
        survivors: list[int] = []
        if not timed_out:
            # multiprocessing's resource tracker exits just after its parent
            deadline = time.monotonic() + 2.0
            while (survivors := _group_members(proc.pid)) and time.monotonic() < deadline:
                time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    leaked = sorted(set(glob.glob(SHM_GLOB)) - shm_before)
    for segment in leaked:
        try:
            os.unlink(segment)
        except OSError:
            pass

    report_file = workdir / "report.json"
    if timed_out or returncode != 0 or not report_file.exists():
        reason = "timed out" if timed_out else f"exited with {returncode}"
        report = {"attempted": 1, "failed": 1, "end_to_end": {}, "per_layer": {},
                  "error": f"workload process {reason}"}
    else:
        with open(report_file) as fh:
            report = json.load(fh)
    if report["per_layer"]:
        report["per_layer"]["proc.children_alive"] = len(survivors)
        report["per_layer"]["proc.leaked_shm"] = len(leaked)
    report["failed_frac"] = report["failed"] / max(report["attempted"], 1)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run is using it
    return report


def _value(entry) -> float:
    return entry["value"] if isinstance(entry, dict) else entry


def print_metrics(name: str, report: dict, spec: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    for kind in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for metric, entry in report[kind].items():
            line = f"{name:24s} {metric:44s} {_value(entry):>16.6g} {units.get(metric, '')}"
            if isinstance(entry, dict) and "n" in entry:
                line += f"  (min {entry['min']:.6g}, max {entry['max']:.6g}, n={entry['n']})"
            print(line)
    print(f"{name:24s} {'failed_frac':44s} {report['failed_frac']:>16.6g} ratio"
          f"  ({report['failed']} of {report['attempted']})")


def declared_metrics(report: dict, spec: dict, kind: str) -> dict:
    """The ``metrics`` object of the result line: exactly the declared names."""
    metrics = {}
    for declared in spec[kind]:
        if declared["name"] not in report[kind]:
            raise SystemExit(f"metric {declared['name']} was not measured")
        metrics[declared["name"]] = {
            "value": _value(report[kind][declared["name"]]), "unit": declared["unit"],
        }
    return metrics


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_one(args: argparse.Namespace, spec: dict) -> int:
    report = run_child(args.workload, args, args.trace)
    if "error" in report:
        print(f"{args.workload}: {report['error']}", file=sys.stderr)
        return 1
    print_metrics(args.workload, report, spec)
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": report["failed"] == 0 and report["verify"]["ok"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": declared_metrics(report, spec, kind),
    }))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    os.makedirs(args.out, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    reports = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        print(f"== {name}: {entry['why']}", flush=True)
        reports[name] = report = run_child(name, args, trace=1)
        if "error" in report:
            print(f"{name}: {report['error']}", file=sys.stderr)
        print_metrics(name, report, spec)

    def e2e(name: str, metric: str) -> float | None:
        entry = reports[name]["end_to_end"].get(metric)
        return entry["value"] if entry else None

    ratios = {}
    serial, warm = e2e("mc_serial", "snp_reps_per_s"), e2e("mc_cluster_warm", "snp_reps_per_s")
    if serial and warm:
        # the paper's "parallel beats serial" bar; base: mc_serial
        ratios["mc_cluster_warm_over_mc_serial_snp_reps_per_s"] = warm / serial
    perm, mc = e2e("perm_cluster_cold", "snp_reps_per_s"), warm
    if perm and mc:
        # Table III's shape: seconds per replicate, permutation over Monte
        # Carlo; both run the same number of SNPs. Base: mc_cluster_warm
        ratios["perm_cluster_cold_over_mc_cluster_warm_s_per_replicate"] = mc / perm
    for key, value in ratios.items():
        print(f"{'(informational)':24s} {key:60s} {value:>10.4g} ratio")

    env = next((r["env"] for r in reports.values() if "env" in r), {})
    result = {
        "env": {
            **env, "nproc": nproc, "blas_threads": int(BLAS_THREADS),
            "git_commit": git_commit(), "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds,
            # with one core the two cluster workloads time-share their two
            # slots; compare.py reports them unresolved
            "cluster_comparable": nproc >= 2,
        },
        "workloads": reports,
        "ratios": ratios,
    }
    for report in reports.values():
        report.pop("env", None)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    bad = [name for name, report in reports.items() if report["failed"]]
    if bad:
        print(f"FAILED: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (default: all, traced)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(TIMEOUT_S), default="gate")
    parser.add_argument("--out", help="directory for result.json and trace.<workload>.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir() or not SPEC_FILE.is_file():
        print(f"run.py: needs {SRC}/repro and {SPEC_FILE}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        if not args.out:
            parser.error("--out DIR is required when running every workload")
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
