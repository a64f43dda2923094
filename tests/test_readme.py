import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rapklab
from rapklab import attention, cli, synthgen

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


def test_the_module_map_has_one_row_per_module():
    # One row per module under src/rapklab (__init__ excepted), each naming a module that exists.
    table = README.split("Module map (under `src/rapklab/`):\n\n")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` +\| .+ \|$", table, re.M)
    modules = {path.stem for path in (ROOT / "src" / "rapklab").glob("*.py")} - {"__init__"}
    assert len(rows) == len(table.splitlines()) - 2  # every line but the header is a row
    assert sorted(rows) == sorted(modules)


# README's exit-code table: per rule, its exit code, an example command (or, in at most two
# rows, the test_cli.py test that covers it) and its one error line, "…" standing for host text.
EXIT_ROWS = re.findall(r"^\| ([12]) \| (.+) \| `([^`]+)` \| `(error: [^`]+)` \|$", README, re.M)
NAMED = [row for row in EXIT_ROWS if not row[2].startswith("rapklab ")]
assert len(EXIT_ROWS) >= 25 and len(NAMED) <= 2, "README's exit-code table does not parse"
FILES = {"list.json": "[1, 2]", "seeds5.json": '{"seeds": 5}', "one.csv": "stage\n0\n",
         "two.csv": "stage\n0\n1\n", "cells.csv": "stage\n0\n1,2\n", "afile": "",
         "foreign/runs.csv": "a,b\r\n1,2\r\n",
         "oneclass.json": '{"synth": {"n_subjects": 3, "t_len": 5, "feat_dim": 5, "self_prob": 1, '
                          '"label_noise": 1}, "smoother": "fixed_attention"}'}


@pytest.fixture(scope="module")
def examples_dir(tmp_path_factory):
    # A tiny cohort at data/demo, one whose train split lacks a class at data/oneclass, and FILES.
    root = tmp_path_factory.mktemp("examples")
    for name, text in FILES.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    assert cli.main(["simulate", "--classes", "3", "--t-len", "60", "--subjects", "5",
                     "--feat-dim", "4", "--seed", "3", "--out", str(root / "data/demo")]) == 0
    assert cli.main(["simulate", "--config", str(root / "oneclass.json"),
                     "--out", str(root / "data/oneclass")]) == 0
    return root


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("code, rule, example, line", [
    pytest.param(*row, id="-".join([f"exit{row[0]}", *re.findall(r"\w+", row[1].lower())[:5]]))
    for row in EXIT_ROWS])
def test_each_exit_code_row_runs_as_quoted(code, rule, example, line, examples_dir, monkeypatch,
                                           capsys):
    if (code, rule, example, line) in NAMED:
        # No host can be asked for memory it lacks: the named test makes the
        # allocation fail and checks this line.
        source = (ROOT / "tests" / "test_cli.py").read_text()
        assert f"\ndef {example}(" in source
        assert line.split("…")[0].removeprefix("error: ") in source
        return
    if "physical memory" in line and attention._physical_memory() is None:
        pytest.skip("without a memory size the layers would be drawn until killed")
    if "before any draw" in rule:
        def drew(*args):
            raise AssertionError("a subject or a matrix was made before the values were checked")

        monkeypatch.setattr(synthgen, "gen_features", drew)
        monkeypatch.setattr(np.random, "PCG64", drew)  # every draw seeds a PCG64
    monkeypatch.chdir(examples_dir)
    argv = example.split()[1:]
    out = Path(argv[argv.index("--out") + 1] if "--out" in argv else "runs")
    before = out.read_bytes() if out.is_file() else out.exists()
    assert cli.main(argv) == int(code)
    printed = capsys.readouterr()
    quoted = ".+".join(map(re.escape, line.split("…"))) + "\n"
    assert printed.out == "" and re.fullmatch(quoted, printed.err)
    assert (out.read_bytes() if out.is_file() else out.exists()) == before


def test_every_flag_of_the_command_line_section_is_a_parser_option():
    # Each code span and example line of "Command line" that names a command
    # names only that command's options; any other names options of some command.
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {name: {option for action in parser._actions for option in action.option_strings}
                for name, parser in sub.choices.items()}
    section = README.split("\n## Command line\n")[1].split("\n## ")[0].replace("\\\n", " ")
    blocks = re.findall(r"^```sh\n(.*?)^```", section, re.M | re.S)
    texts = re.findall(r"`([^`\n]+)`", section) + "\n".join(blocks).splitlines()
    assert len(blocks) == 1 and len(texts) > 100
    for text in texts:
        words = text.removeprefix("rapklab ").split()
        known = commands.get(words[0] if words else "") or set().union(*commands.values())
        flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
        assert flags <= known, (text, flags - known)
