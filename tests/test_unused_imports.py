"""Every name a library module imports is used in that module, and
every name a module exports in ``__all__`` exists.

``__init__.py`` only re-exports, so the import check skips it; its
``__all__`` is checked with the modules'.  No linter is needed: the
import check parses each module with ``ast``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hazrates"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Imported name -> line, for every import but ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


@pytest.mark.parametrize(
    "module",
    ["hazrates"] + [f"hazrates.{p.stem}" for p in MODULES if p.stem != "__main__"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what the module lacks: " + ", ".join(missing)
