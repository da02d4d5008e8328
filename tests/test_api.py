"""The package's public names.  The benchmark tracer wraps each function a
module lists in __all__, so a stale entry there would go unseen.  An import
that nothing reads is a stale name too."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import cyclehit

MODULES = [
    importlib.import_module(f"cyclehit.{info.name}")
    for info in pkgutil.iter_modules(cyclehit.__path__)
]
# Listed in their module's __all__ but not re-exported by the package.
NOT_EXPORTED = {("cli", "main")}


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


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module binds by import, __future__ features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def _read_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, in code or in an annotation, quoted
    annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _read_names(ast.parse(part.value, mode="eval"))
    return names


def test_every_import_is_read():
    for path in sorted(Path(cyclehit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"cyclehit.{path.stem}")
        tree = ast.parse(path.read_text())
        unread = _imported_names(tree) - _read_names(tree) - set(getattr(module, "__all__", ()))
        assert not unread, (path.name, sorted(unread))
