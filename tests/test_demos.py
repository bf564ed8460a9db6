"""Each demo script prints exactly its golden output.

The golden files in `tests/demo_outputs/` hold the stdout of every
`demos/*.py`.  After an intended change of a demo's text, regenerate them
with `PYTHONPATH=src python tests/test_demos.py`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_outputs"


def run_demo(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, check=True
    )
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden_output(demo):
    assert run_demo(demo) == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_every_golden_file_has_a_demo():
    assert sorted(g.stem for g in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_text(run_demo(demo))
