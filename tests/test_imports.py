"""Every module imports only names it uses: the library (but for the package
``__init__``, which imports to re-export), the tests and the tools."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checked_modules():
    library = [p for p in sorted((ROOT / "src" / "sapforce").glob("*.py"))
               if p.name != "__init__.py"]
    return library + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in checked_modules()}
    assert {path: names for path, names in found.items() if names} == {}


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b (line 2)", "os (line 1)"]
    assert unused_imports("from typing import List\ndef f() -> 'List[int]': pass\n") == []
