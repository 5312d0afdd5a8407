"""No module, script or test imports a name that it never uses.

The package's __init__.py is left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for pattern in ("src/catsim/*.py", "scripts/*.py",
                                    "tests/*.py")
               for path in ROOT.glob(pattern) if path.name != "__init__.py")


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
