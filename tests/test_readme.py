import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rapklab

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
TOUR = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


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
    done = subprocess.run([sys.executable, "-W", "error", "-c", TOUR[block]], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_the_example_of_an_unread_value_is_refused_as_quoted(tmp_path):
    # README quotes one command and the error line it prints; both run here
    # as written, from a directory that holds a tiny cohort at data/demo.
    (argv, line), = re.findall(r"^ *```sh\n *rapklab (smooth-eval .*)\n *# (error: .*)\n *```",
                               README, re.M)

    def rapklab(*args):
        return subprocess.run([sys.executable, "-W", "error", "-m", "rapklab.cli", *args],
                              cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)

    assert rapklab("simulate", "--classes", "3", "--t-len", "60", "--subjects", "5",
                   "--feat-dim", "4", "--seed", "3", "--out", "data/demo").returncode == 0
    argv = argv.split()
    done = rapklab(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", line + "\n")
    assert not (tmp_path / argv[argv.index("--out") + 1]).exists()
