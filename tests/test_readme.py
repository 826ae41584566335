"""The README's quickstarts run as written, in order, in one namespace."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_local_and_distributed_quickstarts_agree(tmp_path, monkeypatch):
    local, distributed = _python_blocks()[:2]
    monkeypatch.chdir(tmp_path)  # the distributed block writes its inputs here
    namespace: dict = {}
    exec(compile(local, "README.md: local quickstart", "exec"), namespace)
    exec(compile(distributed, "README.md: distributed quickstart", "exec"), namespace)
    assert sorted(p.name for p in (tmp_path / "gwas" / "run1").iterdir()) == [
        "genotypes.txt", "phenotype.txt", "snpsets.txt", "weights.txt",
    ]
    mc, result = namespace["mc"], namespace["result"]
    assert result.info["engine"] == "distributed" and result.n_resamples == mc.n_resamples
    assert np.array_equal(result.exceed_counts, mc.exceed_counts)
