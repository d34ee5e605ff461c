"""README's library examples run, in order, against the package in src/."""

import pathlib
import re

from narxlm import cli
from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame

from conftest import run_child

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    # the files the examples read: prices.csv and a trained run/model.json
    frame_to_csv(synthetic_ohlcv_frame(400, seed=5, noise_std=0.02)[0], tmp_path / "prices.csv")
    assert cli.main(["train", "--csv", str(tmp_path / "prices.csv"),
                     "--out", str(tmp_path / "run"), "--neurons", "5",
                     "--epochs", "40", "--restarts", "2"]) == cli.EXIT_OK
    # the second block reuses the first one's names, so they run as one script
    script = tmp_path / "readme.py"
    script.write_text("\n".join(blocks))
    run_child(script, cwd=tmp_path)
