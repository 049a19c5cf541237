"""No module imports a name it never uses.

An AST scan of the top-level imports of every module under ``src/repro``,
``tests``, ``tools`` and ``examples`` (``perfbench/`` is not scanned).
An import counts as used when the name it binds appears as a name
anywhere in the module, or as a word in a string constant (a string
annotation), or when its statement carries ``# noqa: F401`` (a
deliberate re-export).  Package ``__init__`` modules, which re-export by
design, are not scanned.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src/repro", "tests", "tools", "examples")


def unused_imports(path):
    """``"module: name"`` for each top-level import nothing uses."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "# noqa: F401" in "\n".join(lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT).as_posix()}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = [
        entry
        for tree in SCANNED
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
