import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rapklab

ROOT = Path(__file__).resolve().parents[1]
TOUR = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_the_package_root_exports_the_names_the_tour_imports():
    # The root is the tour's index, plus softmax_rows, which the benchmark's
    # own tests read as rapklab.softmax_rows; every other name imports from
    # its module.
    imported = {alias.name for block in TOUR for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "rapklab"
                for alias in node.names}
    assert rapklab.__all__ == sorted(imported | {"softmax_rows"})


@pytest.mark.parametrize("block", range(3))
def test_each_tour_block_runs(block):
    assert len(TOUR) == 3
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-W", "error", "-c", TOUR[block]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
