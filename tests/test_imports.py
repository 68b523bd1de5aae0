"""Every import in the package and the scripts is used.

An import that nothing reads is left over from deleted code.  For each
module of ``src/cloneguard/`` (but ``__init__.py``, which re-exports)
and of ``scripts/``, every name an import binds must appear as a name
somewhere in that module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([path for path in (ROOT / "src" / "cloneguard").glob("*.py")
                  if path.name != "__init__.py"] + list((ROOT / "scripts").glob("*.py")))


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


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nimport os.path as p\nfrom typing import Any\n"
                          "p.join(math.pi)\n") == ["Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
