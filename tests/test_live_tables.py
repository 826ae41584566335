"""``benchmarks/live_tables.py`` at smoke size: every row runs on both
fleets and gives the same counts on each.  No timing is asserted."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "benchmarks" / "live_tables.py"


def test_every_row_runs_on_both_fleets_with_equal_counts(tmp_path):
    output = tmp_path / "live.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(PROBE), "--snps", "400", "--patients", "60",
         "--snpsets", "8", "--repeats", "1", "--output", str(output)],
        check=True, env=env, capture_output=True, timeout=300,
    )
    rows = {row["row"]: row for row in json.loads(output.read_text())["rows"]}
    assert list(rows) == [
        *(f"III mc {i}" for i in (0, 2, 4, 8, 16)),
        *(f"III perm {i}" for i in (0, 2, 4, 8, 16)),
        *(f"V cached {i}" for i in (0, 10, 20)),
        *(f"V uncached {i}" for i in (0, 10, 20)),
        "Fig6 cached 20",
    ]
    for row in rows.values():
        assert row["repeats"] == 1
        assert row["counts_equal"], row["row"]  # SHA-256 of the counts, seed by seed
    # Fig. 6's memory: one executor's scan thrashes, two hold their halves
    fig6 = rows["Fig6 cached 20"]
    assert fig6["hits1"] == 0 and fig6["hits2"] > 0
    assert rows["V cached 20"]["hits1"] > 0 and rows["V uncached 20"]["hits1"] == 0
