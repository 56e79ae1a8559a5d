"""Every demo runs to completion against the current API.

Each ``demos/0*.py`` is executed as ``__main__`` with the working directory
set to a temporary one, so the CSV (and, with matplotlib, PNG) files the
first two write land there.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
