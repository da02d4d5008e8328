"""The package's public names.  The benchmark tracer wraps each function a
module lists in __all__, so a stale entry there would go unseen."""

import importlib
import pkgutil
import types

import cyclehit

MODULES = [
    importlib.import_module(f"cyclehit.{info.name}")
    for info in pkgutil.iter_modules(cyclehit.__path__)
]
# Listed in their module's __all__ but not re-exported by the package.
NOT_EXPORTED = {("cli", "main"), ("multigraph", "bridge_sides")}


def test_every_name_in_all_is_defined_in_its_module():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert name in vars(module), (module.__name__, name)
            home = getattr(vars(module)[name], "__module__", module.__name__)
            assert home == module.__name__, (module.__name__, name, home)


def test_package_exports_the_union_of_all():
    listed = {
        name
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if (module.__name__.rsplit(".", 1)[1], name) not in NOT_EXPORTED
    }
    exported = {
        name
        for name, value in vars(cyclehit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed
