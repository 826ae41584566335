#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

A is the parent (or the first run), B the change (or the second run). For
every workload and end-to-end metric it prints both medians, the relative
change, the bound BENCHMARK.json fixes and a verdict:

``worse``         B is worse than A by more than the bound
``better``        B is better than A by more than the bound
``within-bound``  neither, and both files' repeats are steadier than the bound
``unresolved``    neither, but the repeats of A or B spread (quartile
                  distance over median) wider than the bound, so "unchanged"
                  cannot be claimed; also a workload that failed, is missing,
                  or is a cluster workload measured on fewer than two cores

Exits 1 on any ``worse`` or any rise in ``failed_frac``. A gain is claimed
by the rule in README.md (ten alternating pairs), not by one run of this.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: counts that repeat exactly between runs of one commit at one seed and scale
EXACT_COUNTS = (
    "engine.scheduler.jobs", "engine.scheduler.stages", "engine.scheduler.tasks",
    "engine.shuffle.records_written",
)


def spread(entry: dict) -> float:
    """Quartile distance over median of a metric's per-repeat samples."""
    samples = entry.get("samples", [])
    if len(samples) < 3:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def judge(a: dict | None, b: dict | None, better: str, bound: float, comparable: bool):
    """(relative change with worse positive, verdict) for one metric."""
    if a is None or b is None or not comparable:
        return None, "unresolved"
    worse_by = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    if max(spread(a), spread(b)) > bound:
        return worse_by, "unresolved"
    return worse_by, "within-bound"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':24s} {'metric':16s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
        f"{'bound':>6s}  verdict"
    ]
    regressed = False
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        comparable = wa is not None and wb is not None
        if comparable and "cluster" in (wa.get("backend"), wb.get("backend")):
            comparable = a["env"]["cluster_comparable"] and b["env"]["cluster_comparable"]
        for metric in spec["end_to_end"]:
            ea = wa["end_to_end"].get(metric["name"]) if wa else None
            eb = wb["end_to_end"].get(metric["name"]) if wb else None
            change, verdict = judge(ea, eb, metric["better"], metric["bound"], comparable)
            regressed |= verdict == "worse"
            lines.append(
                f"{name:24s} {metric['name']:16s} "
                f"{ea['value'] if ea else float('nan'):12.5g} "
                f"{eb['value'] if eb else float('nan'):12.5g} "
                f"{'' if change is None else format(change, '+9.1%'):>9s} "
                f"{metric['bound']:6.0%}  {verdict}"
            )
        fa = wa["failed_frac"] if wa else float("nan")
        fb = wb["failed_frac"] if wb else 1.0
        rose = not fb <= fa
        regressed |= rose
        lines.append(
            f"{name:24s} {'failed_frac':16s} {fa:12.5g} {fb:12.5g} {'':>9s} {0:6.0%}  "
            f"{'worse' if rose else 'within-bound'}"
        )
        for count in EXACT_COUNTS:
            ca = wa["per_layer"].get(count) if wa else None
            cb = wb["per_layer"].get(count) if wb else None
            same = "same" if ca is not None and ca == cb else "differs"
            lines.append(f"{name:24s} {count:34s} {ca!s:>10s} {cb!s:>10s}  {same}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb, open(SPEC_FILE) as fs:
        lines, regressed = compare(json.load(fa), json.load(fb), json.load(fs))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
