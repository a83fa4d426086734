"""Every name a ptskit module imports is used in that module.

``__init__.py`` is exempt: its imports are the public API.  A name
counts as used when it occurs as an identifier anywhere in the module
outside the import statements (annotations included).  ``import x as
x`` marks a deliberate re-export and is not checked.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "ptskit")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.asname != alias.name:
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_caught():
    source = "import os\nfrom re import match, sub, escape as escape\nsub('a', 'b', 'c')\n"
    assert unused_imports(source) == ["os", "match"]
