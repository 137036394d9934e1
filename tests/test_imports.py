import ast
import pathlib

import allocshift

PACKAGE = pathlib.Path(allocshift.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references; a dotted `import a.b` binds a."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy as np\nfrom .data import A, B\nB()\n") == \
        ["line 1: os", "line 2: np", "line 3: A"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_every_module_uses_what_it_imports():
    # __init__.py imports names to re-export them, so it is exempt
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: found for p in modules
              if (found := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}
