"""Every private module-level name, every public module-level function
and class, and every public method in the library is used in the
library.

A private name (``_name``, not a dunder) is defined at the top of a
module as a function, a class or a constant.  A public method or
property is one whose name does not start with ``_``, defined in a
class of the package.  Helpers that no code in ``src/hazrates`` calls
get deleted, not maintained, so each private name must be loaded
somewhere in the package; each public function or class must be loaded
by name in its own module or in a module that imports it from there,
or read as ``<module>.<name>`` with ``<module>`` a module of the
package (an import or an ``__all__`` entry alone does not count); and
each public method's name must be read as an attribute somewhere in
it.  A use only in the tests does not count.  Like the unused-imports
check, this parses each module with ``ast`` and needs no linter.

The method check matches attribute names only, not the objects they
are read from.  A method whose name some other object's attribute
shares therefore counts as used: a ``kind`` property would pass on
``dtype.kind`` and a ``u`` property on ``args.u``.  A read of ``.name``
inside a function itself called ``name`` does not count, so two
same-named methods where one only calls the other are both found.  The
function and class check follows each name to its module, so a dead
function whose name a method shares is still found.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hazrates"

# Public names that only code outside the package calls, each with
# that caller.  The acceptance criteria (tests/test_acceptance.py) and
# the benchmark workloads (perfbench/) are the package's entry points
# besides the command line.
CALLED_FROM_OUTSIDE = {
    "cli.py _Parser.error": "argparse, on a bad command line",
    "frailty.py FrailtySpec.laplace": "perfbench/workloads.py, checking the closed forms",
    "frailty.py DegenerateFrailty.laplace": "test_frailty.py, checking the conditional mean",
    "frailty.py GammaFrailty.laplace": "perfbench/workloads.py, checking the closed forms",
    "construct.py rate_ratio": "test_acceptance.py and perfbench/tracing.py",
    "contrast.py duration_model_ratio": "test_acceptance.py, criterion 9",
    "estimators.py cox_loglik_parts": "test_acceptance.py, criterion 10",
    "rates.py ode_residual": "test_acceptance.py, criterion 8",
    "frailty.py markov_violation_gap": "test_acceptance.py and perfbench/workloads.py",
    "frailty.py invert_rate_to_h": "test_acceptance.py and perfbench/workloads.py",
    "simulate.py sample_frailty_cohort": "test_acceptance.py and perfbench/workloads.py",
    "frailty.py DegenerateFrailty": "test_acceptance.py and perfbench/workloads.py",
    "kernels.py GridKernel": "test_kernels.py and perfbench/workloads.py",
    "grid.py GridFunction.node_index": "test_acceptance.py, criteria 2 and 3",
}


def _modules(src: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(src.glob("*.py"))}


def _private_definitions(tree):
    """Private module-level name -> line of its definition."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def unused_private_names(src: Path) -> list[str]:
    """``module.py:line name`` for each private name no module of ``src`` loads."""
    trees = _modules(src)
    loaded = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in loaded
    ]


def _public_uses(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module stem, name) for each module-level name some module uses.

    A name is used where its own module loads it, where a module that
    imported it with ``from .module import name`` loads it, and where a
    module reads it as ``module.name``.
    """
    stems = {module.removesuffix(".py") for module in trees}
    uses = set()
    for module, tree in trees.items():
        bound = {
            node.name: (module.removesuffix(".py"), node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in stems:
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                uses.add(bound[node.id])
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in stems
            ):
                uses.add((node.value.id, node.attr))
    return uses


def unused_public_names(src: Path) -> list[str]:
    """``module.py:line name`` for each public module-level function or
    class of ``src`` that no module of ``src`` uses (``_public_uses``)."""
    trees = _modules(src)
    uses = _public_uses(trees)
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module.removesuffix(".py"), node.name) not in uses
        and f"{module} {node.name}" not in CALLED_FROM_OUTSIDE
    ]


def _attribute_reads(node, enclosing=frozenset()) -> set[str]:
    """Attribute names read in ``node``, leaving out a read of ``.name``
    inside a function itself called ``name``: a method that only hands
    on to its namesake on another class makes neither of them used."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    reads = set()
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr not in enclosing:
            reads.add(node.attr)
    for child in ast.iter_child_nodes(node):
        reads |= _attribute_reads(child, enclosing)
    return reads


def unused_public_methods(src: Path) -> list[str]:
    """``module.py:line Class.name`` for each public method or property
    of a class in ``src`` whose name no module of ``src`` reads as an
    attribute (``_attribute_reads``)."""
    trees = _modules(src)
    loaded = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    return [
        f"{module}:{item.lineno} {cls.name}.{item.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in loaded
        and f"{module} {cls.name}.{item.name}" not in CALLED_FROM_OUTSIDE
    ]


def stale_exemptions(src: Path, exemptions=CALLED_FROM_OUTSIDE) -> list[str]:
    """Keys of ``exemptions`` that name no module-level function or
    class (``module.py name``) and no method (``module.py Class.name``)
    defined in ``src``: an exemption outlives what it was for."""
    defined = set()
    for module, tree in _modules(src).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(f"{module} {node.name}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined.update(
                    f"{module} {cls.name}.{item.name}"
                    for item in cls.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return [key for key in exemptions if key not in defined]


def test_every_exemption_names_a_definition():
    stale = stale_exemptions(SRC)
    assert not stale, "exemptions naming nothing in src/hazrates: " + ", ".join(stale)


def test_a_stale_exemption_is_found(tmp_path):
    (tmp_path / "tools.py").write_text(
        "LIMIT = 3\n\n\ndef helper():\n    return LIMIT\n\n\n"
        "class Kit:\n    def open(self):\n        return helper()\n"
    )
    exemptions = dict.fromkeys(
        ["tools.py helper", "tools.py Kit", "tools.py Kit.open", "tools.py LIMIT",
         "tools.py Kit.close", "tools.py gone", "other.py helper"],
        "a caller",
    )
    assert stale_exemptions(tmp_path, exemptions) == [
        "tools.py LIMIT", "tools.py Kit.close", "tools.py gone", "other.py helper",
    ]


def test_package_uses_every_private_name():
    unused = unused_private_names(SRC)
    assert not unused, "private names no code in src/hazrates uses: " + ", ".join(unused)


def test_an_unused_helper_is_found(tmp_path):
    (tmp_path / "used.py").write_text(
        "_LIMIT = 3\n\n\nclass _Box:\n    pass\n\n\n"
        "def _helper():\n    return _LIMIT\n\n\n"
        "def public():\n    return _Box(), _helper()\n"
    )
    (tmp_path / "dead.py").write_text(
        "from .used import _helper\n\n\n"
        "def _unused(x):\n    return _helper() + x\n\n\n"
        "_unused_table: dict = {}\n__all__ = []\n"
    )
    assert unused_private_names(tmp_path) == ["dead.py:4 _unused", "dead.py:8 _unused_table"]


def test_package_uses_every_public_function_and_class():
    unused = unused_public_names(SRC)
    assert not unused, "public names no code in src/hazrates uses: " + ", ".join(unused)


def test_an_unused_public_function_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .tools import Kit, helper, orphan\n\n__all__ = [\"Kit\", \"helper\", \"orphan\"]\n"
    )
    (tmp_path / "tools.py").write_text(
        "class Kit:\n    pass\n\n\n"
        "def helper():\n    return Kit()\n\n\n"
        "def orphan():\n    return helper()\n"
    )
    (tmp_path / "cli.py").write_text("from . import tools\n\nDEFAULT = tools.helper()\n")
    assert unused_public_names(tmp_path) == ["tools.py:9 orphan"]


def test_a_dead_function_sharing_a_method_name_is_found(tmp_path):
    (tmp_path / "engine.py").write_text(
        "class Quadrature:\n    def occupation(self):\n        return 1\n\n\n"
        "def occupation(model):\n    return model\n\n\n"
        "def rate(q):\n    return q.occupation()\n"
    )
    (tmp_path / "other.py").write_text(
        "from . import engine\nfrom .engine import Quadrature\n\n\n"
        "def run(occupation):\n    return engine.rate(Quadrature()), occupation\n\n\n"
        "DEFAULT = run(None)\n"
    )
    assert unused_public_names(tmp_path) == ["engine.py:6 occupation"]


def test_package_uses_every_public_method():
    unused = unused_public_methods(SRC)
    assert not unused, "public methods no code in src/hazrates uses: " + ", ".join(unused)


def test_an_unused_method_is_found(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n        return 1\n\n"
        "    @property\n    def width(self):\n        return 2\n\n"
        "    def area(self):\n        return self.width\n\n"
        "    @staticmethod\n    def unit():\n        return Box()\n\n"
        "    def _scale(self):\n        return 3\n\n\n"
        "def make():\n    return Box.unit().area()\n"
    )
    (tmp_path / "plain.py").write_text("class Dot:\n    def size(self):\n        return 0\n")
    assert unused_public_methods(tmp_path) == ["plain.py:2 Dot.size"]


def test_a_method_read_only_by_its_namesake_is_found(tmp_path):
    (tmp_path / "grids.py").write_text(
        "class Grid:\n"
        "    @classmethod\n    def sample(cls, fn):\n        return cls()\n\n"
        "    def total(self):\n        return 0\n\n\n"
        "class Spec:\n"
        "    @classmethod\n    def sample(cls, fn):\n"
        "        return cls(Grid.sample(lambda t: fn(t, 0)))\n\n"
        "    def total(self, grid):\n        return grid.total()\n\n\n"
        "def run(spec, grid):\n    return spec.total(grid)\n"
    )
    assert unused_public_methods(tmp_path) == [
        "grids.py:3 Grid.sample",
        "grids.py:12 Spec.sample",
    ]
