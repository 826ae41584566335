"""The README's quickstarts run as written, in order, in one namespace, and
every module, name and script it points at exists."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then look up the rest
    as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize(
    "dotted", sorted(set(re.findall(r"\brepro(?:\.\w+)+", README.read_text())))
)
def test_named_module_or_attribute_exists(dotted):
    _resolve(dotted)


@pytest.mark.parametrize(
    "path", sorted(set(re.findall(r"(?<![\w*./-])[\w./-]+\.py\b", README.read_text())))
)
def test_named_script_exists(path):
    roots = (ROOT, ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "examples")
    assert any((root / path).is_file() for root in roots), path
