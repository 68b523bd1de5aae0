"""Every import in the package and the scripts is used, and every private name.

An import that nothing reads is left over from deleted code.  For each
module of ``src/cloneguard/`` (but ``__init__.py``, which re-exports)
and of ``scripts/``, every name an import binds must appear as a name
somewhere in that module.

A private name that nothing reads is left over in the same way.  Every
single-underscore function, class, method or module constant defined in
``src/cloneguard/`` or ``scripts/`` must be read somewhere in those
sources: as a name, an attribute, an imported name, or a string that
names it for ``getattr``.  A test that reads it does not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(list((ROOT / "src" / "cloneguard").glob("*.py"))
                 + list((ROOT / "scripts").glob("*.py")))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private definition in ``sources`` that none of them reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names = [node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    names += [t.id for t in ast.walk(target) if isinstance(t, ast.Name)]
        defined += [f"{module}:{name}" for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(entry for entry in defined if entry.partition(":")[2] not in read)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nimport os.path as p\nfrom typing import Any\n"
                          "p.join(math.pi)\n") == ["Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a": ("_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
              "def _helper(x):\n    return x < _LIMIT\n"
              "def _dead():\n    pass\n"
              "class _Box:\n    def _peek(self):\n        pass\n"
              "    def _hidden(self):\n        pass\n"),
        "b": ("from a import _Box, _helper\n"
              "getattr(_Box(), '_peek')()\n_helper(1)\n"),
    }
    assert unused_private_names(sources) == ["a:_SPARE", "a:_dead", "a:_hidden"]


def test_every_private_name_is_read():
    sources = {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
               for path in SOURCES}
    assert unused_private_names(sources) == []
