"""No module, script or test imports a name that it never uses, and no
private module-level name of the package goes unread.

The package's __init__.py is left out of the import check: its imports are
the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for pattern in ("src/catsim/*.py", "scripts/*.py",
                                    "tests/*.py")
               for path in ROOT.glob(pattern) if path.name != "__init__.py")
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


def dead_private_names(sources: dict) -> list:
    """The module-level _names (def, class or assignment) that sources, a
    {module: source} map, define and none of them reads, as module.name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


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
