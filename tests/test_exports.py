import ast
import importlib
import pkgutil
from pathlib import Path

import rapklab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_exported_names_resolve_and_each_is_in_its_modules_all():
    modules = [rapklab] + [
        importlib.import_module(f"rapklab.{info.name}")
        for info in pkgutil.iter_modules(rapklab.__path__)
    ]
    for mod in modules:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
    # The package exports what it imports; each name must come from a module
    # that lists it as public.
    tree = ast.parse(Path(rapklab.__file__).read_text())
    source = {alias.asname or alias.name: node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert set(rapklab.__all__) <= set(source)
    unlisted = [name for name in rapklab.__all__
                if name not in importlib.import_module(f"rapklab.{source[name]}").__all__]
    assert not unlisted


def test_every_rapklab_import_of_the_benchmark_resolves():
    # The benchmark's checks import library names inside functions, and a
    # crashed check reads as wrong outputs; so every such import, read from
    # the source without running it, must name something that exists.
    files = sorted(PERFBENCH.glob("*.py"))
    assert files
    unresolved = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rapklab":
                mod = importlib.import_module(node.module)
                unresolved += [(path.name, node.module, alias.name) for alias in node.names
                               if not hasattr(mod, alias.name)]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "rapklab":
                        importlib.import_module(alias.name)  # raises if the module is gone
    assert not unresolved
