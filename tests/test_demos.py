"""Every script in demos/ runs to completion against the package in src/."""

import pathlib

import pytest

from conftest import run_child

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # TMPDIR too: 01_data_preparation.py writes its CSV under mkdtemp()
    run_child(demo, cwd=tmp_path, TMPDIR=str(tmp_path))
