"""An analysis loads NumPy and nothing heavier.

scipy is the dependency of the comparators (asymptotic p-values, Wald,
power, beta weights); the distributed engine and the
local engine's Monte Carlo and permutation need none of it, and no module
imports networkx.  The
child process below poisons both names in ``sys.modules`` so that any
import of either raises, in the driver and in the cluster workers it forks,
then drives every analysis route through the CLI.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = sys.modules["networkx"] = None

    import repro
    import repro.cli as cli

    data = sys.argv[1]
    assert cli.main(["generate", data, "--patients", "40", "--snps", "120",
                     "--snpsets", "6", "--seed", "3"]) == 0
    base = ["analyze", data, "--engine", "distributed", "--iterations", "32",
            "--batch-size", "16", "--executors", "2", "--cores", "1",
            "--no-progress"]
    runs = [
        [f"--backend={backend}", f"--flavor={flavor}", f"--method={method}"]
        for backend in ("serial", "cluster")
        for flavor in ("vectorized", "paper")
        for method in ("observed", "monte-carlo", "permutation")
    ]
    runs.append(["--backend=serial", "--method=monte-carlo", "--early-stop"])
    for extra in runs:
        rc = cli.main(base + extra)
        assert rc == 0, (extra, rc)
    for method in ("monte-carlo", "permutation"):
        rc = cli.main(["analyze", data, "--engine", "local", f"--method={method}",
                       "--iterations", "32", "--no-progress"])
        assert rc == 0, (method, rc)
    print("ROUTES", len(runs) + 2)
    """
)


def test_analysis_routes_need_neither_scipy_nor_networkx(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "data")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "ROUTES 15" in proc.stdout


@pytest.mark.parametrize("module", ["repro.stats.skato", "repro.genomics.io.vcf"])
def test_deleted_extensions_do_not_import(module):
    """SKAT-O and the VCF reader/writer had no user path (DESIGN.md section 6)."""
    with pytest.raises(ImportError):
        importlib.import_module(module)
