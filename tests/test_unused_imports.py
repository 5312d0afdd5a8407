"""No module, script or test imports a name that it never uses, no private
module-level name of the package goes unread, and no public one, nor any
public method or property of a public class, goes unread outside the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for pattern in ("src/catsim/*.py", "scripts/*.py",
                                    "tests/*.py")
               for path in ROOT.glob(pattern))
PACKAGE = sorted((ROOT / "src" / "catsim").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that source binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(tree) -> list:
    """The names that the module tree binds at module level by def, class
    or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return names


def read_names(tree, strings: bool = False) -> set:
    """The names that tree reads: loaded names, attributes and the names a
    from-import takes; with strings, also identifier-shaped string constants,
    by which a patcher names what it replaces."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return read


def dead_private_names(sources: dict) -> list:
    """The module-level _names (def, class or assignment) that sources, a
    {module: source} map, define and none of them reads, as module.name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in defined_names(tree)
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


def test_checker_finds_a_dead_private_name():
    sources = {"a": "_KEPT = 1\n_DEAD, _ALSO = 2, 3\n"
                    "def _orphan():\n    return _KEPT\n"
                    "class _Gone:\n    pass\n"
                    "def _helper():\n    pass\n",
               "b": "from . import a\n_USED: int = 0\na._helper(_USED)\n"}
    assert dead_private_names(sources) == ["a._ALSO", "a._DEAD", "a._Gone", "a._orphan"]


def test_no_dead_private_names():
    assert dead_private_names({path.stem: path.read_text(encoding="utf-8")
                               for path in PACKAGE}) == []


def unread_public_names(package: dict, readers: list, patchers: list) -> list:
    """The module-level public names (def, class or assignment) that package,
    a {module: source} map, defines and no source reads, as module.name.
    The package and the readers read by name, attribute and from-import;
    the patchers also by string."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = set().union(*map(read_names, trees.values()),
                       *(read_names(ast.parse(source)) for source in readers),
                       *(read_names(ast.parse(source), strings=True)
                         for source in patchers))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in defined_names(tree)
                  if not name.startswith("_") and name not in read)


def test_checker_finds_an_unread_public_name():
    package = {"a": "KEPT = 1\nDEAD, ALSO = 2, 3\n"
                    "def orphan():\n    return KEPT\n"
                    "class Gone:\n    pass\n"
                    "def patched():\n    pass\n"
                    "def imported():\n    pass\n"
                    "def _private():\n    pass\n",
               "b": "from .a import imported\nUSED: int = 0\n"}
    # a string names a target only in a patcher; a script's string reads nothing
    scripts = ["from catsim import b\nprint(b.USED, 'Gone')\n"]
    bench = ["patch(a, 'patched')\n"]
    assert unread_public_names(package, scripts, bench) == [
        "a.ALSO", "a.DEAD", "a.Gone", "a.orphan"]


def package_scripts_bench():
    """The sources that may read a public name: the package as a
    {module: source} map, and the scripts' and the benchmark's sources.
    __init__.py counts as neither definer nor reader, and no test reads."""
    package = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE if path.name != "__init__.py"}
    return package, *([path.read_text(encoding="utf-8")
                       for path in sorted(ROOT.glob(pattern))]
                      for pattern in ("scripts/*.py", "bench/*.py"))


def test_every_public_name_is_read_outside_the_tests():
    assert unread_public_names(*package_scripts_bench()) == []


def public_methods(tree) -> list:
    """The public defs, properties included, of the module tree's public
    classes, as (class, name)."""
    return [(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def unread_public_methods(package: dict, readers: list, patchers: list) -> list:
    """The public methods and properties of the public classes that package,
    a {module: source} map, defines and no source reads as an attribute, as
    module.class.name.  The patchers also read by identifier-shaped string."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    patcher_trees = [ast.parse(source) for source in patchers]
    read = {node.attr
            for tree in [*trees.values(), *map(ast.parse, readers), *patcher_trees]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.value for tree in patcher_trees for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    return sorted(f"{module}.{cls}.{name}" for module, tree in trees.items()
                  for cls, name in public_methods(tree) if name not in read)


def test_checker_finds_an_unread_public_method():
    package = {"a": "class Kept:\n"
                    "    def used(self):\n        pass\n"
                    "    @property\n    def size(self):\n        return 1\n"
                    "    def orphan(self):\n        pass\n"
                    "    @property\n    def gone(self):\n        return 2\n"
                    "    def named(self):\n        pass\n"
                    "    def patched(self):\n        pass\n"
                    "    def _private(self):\n        pass\n"
                    "    def __init__(self):\n        pass\n"
                    "class _Hidden:\n    def unread(self):\n        pass\n",
               "b": "from .a import Kept\nKept().used()\n"}
    # a bare name is no attribute read, and a script's string reads nothing
    scripts = ["from catsim import a\nnamed = a.Kept().size\nprint(named, 'orphan')\n"]
    bench = ["patch(a.Kept, 'patched')\n"]
    assert unread_public_methods(package, scripts, bench) == [
        "a.Kept.gone", "a.Kept.named", "a.Kept.orphan"]


def test_every_public_method_is_read_outside_the_tests():
    assert unread_public_methods(*package_scripts_bench()) == []
