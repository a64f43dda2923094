import importlib
import pkgutil
import types

import rapklab


def test_exported_names_resolve_and_the_package_exports_what_it_imports():
    modules = [rapklab] + [
        importlib.import_module(f"rapklab.{info.name}")
        for info in pkgutil.iter_modules(rapklab.__path__)
    ]
    for mod in modules:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
    imported = {
        name for name, value in vars(rapklab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert imported == set(rapklab.__all__)
