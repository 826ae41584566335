"""The examples run to completion.

They are callers the engine's operator bar counts (DESIGN.md, "The
operator surface, decided"), so a removed operator an example still needs
fails here.  Each runs in-process as ``__main__`` with its output captured.
``case_control.py`` spawns a cluster fleet and takes about five seconds; CI's
``examples`` job runs it with the rest.
"""

import pathlib
import runpy
import tempfile

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"

FAST = [
    "eqtl_study.py",
    "fault_tolerance.py",
    "quickstart.py",
    "study_design.py",
    "survival_gwas.py",
]


def test_every_example_is_listed():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(FAST + ["case_control.py"])


@pytest.mark.parametrize("name", FAST)
def test_example_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
