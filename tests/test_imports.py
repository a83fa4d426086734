"""Every name a ptskit module imports is used in that module, and every
private module-level name is used somewhere in the package.

``__init__.py`` is exempt from the import check: its imports are the
public API.  A name counts as used when it occurs as an identifier
anywhere in the module outside the import statements (annotations
included).  ``import x as x`` marks a deliberate re-export and is not
checked.  A private name (``_name``, not a dunder) defined by a
module-level ``def``, ``class`` or assignment counts as used when it is
read, imported or taken as an attribute outside its own definition.
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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name no module reads."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            private = [n for n in names if n.startswith("_") and not n.endswith("__")]
            defined += [(module, n) for n in private]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found = node.id
                elif isinstance(node, ast.Attribute):
                    found = node.attr
                elif isinstance(node, ast.alias):
                    found = node.asname or node.name
                else:
                    continue
                if found not in private:  # a definition's own body does not count
                    used.add(found)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_no_unreferenced_private_names():
    sources = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module[:-3]] = fh.read()
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_caught():
    sources = {
        "a": "_used = 1\n_dead = 2\n__dunder__ = 3\ndef _self(n):\n    return _self(n - 1)\nclass _K:\n    pass\n",
        "b": "from .a import _K\nprint(_used, _K)\n",
    }
    assert unreferenced_private_names(sources) == ["a._dead", "a._self"]
