"""No module imports a name it never uses: a stand-in for a linter's unused-import rule."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for d in ("src/optrace", "tests", "perfbench")
               for path in (ROOT / d).glob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but neither reads nor lists in `__all__`, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            if getattr(node, "module", None) != "__future__":
                imported += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    # A quoted annotation such as "SideChannelTrace" reads the names in it.
    for annotation in _annotations(tree):
        for quoted in ast.walk(annotation):
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                parsed = ast.parse(quoted.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [name for name in dict.fromkeys(imported) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_imports():
    source = (
        "import os, sys as system\nfrom dataclasses import dataclass, field\n"
        "from typing import TYPE_CHECKING\n__all__ = ['field']\n"
        "def f(x: 'os.PathLike') -> dataclass: return x\n"
    )
    assert unused_imports(source) == ["system", "TYPE_CHECKING"]
