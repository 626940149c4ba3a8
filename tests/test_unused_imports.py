"""No module in ``src/repro`` imports a name it never uses.

An unused module-level import misstates what a module depends on and
can drag a whole package into a lazy-import budget.  The scan reads
each module's AST: every name bound by a module-level import (under a
top-level ``if``/``try`` too, e.g. ``if TYPE_CHECKING:``) must be read
somewhere in the module, be listed in its ``__all__``, or carry a
``# noqa: F401`` marking a deliberate side-effect import.  Package
``__init__`` modules are exempt: their imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_level_imports(tree: ast.Module):
    """Import statements outside every function and class body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for suite in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, suite, ()))
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)


def _declared_exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(_is_all(target) for target in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            }
    return set()


def _is_all(target) -> bool:
    return isinstance(target, ast.Name) and target.id == "__all__"


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(
                    sub.id
                    for sub in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(sub, ast.Name)
                )
    return names


def unused_imports(path: Path, root: Path = SRC.parent) -> list[str]:
    """``path:line: name`` (``path`` relative to ``root``) for every
    unused module-level import."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = _read_names(tree) | _declared_exports(tree)
    found = []
    for node in _module_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(
            "# noqa: F401" in lines[line - 1]
            for line in range(node.lineno, node.end_lineno + 1)
        ):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                found.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    return sorted(found)


def test_no_module_imports_a_name_it_never_uses():
    found = [
        entry
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert found == [], "unused module-level imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import(tmp_path):
    # The scan itself: a dead import is reported, a used one, an export
    # and a noqa-marked side-effect import are not.
    module = tmp_path / "mod.py"
    module.write_text(
        "from typing import TYPE_CHECKING, Optional\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from .a import exported\n"
        "if TYPE_CHECKING:\n"
        "    from .b import Hinted, Dead\n"
        "def f(x: 'Hinted') -> Optional[int]:\n"
        "    return None\n"
        "__all__ = ['exported']\n"
    )
    assert unused_imports(module, tmp_path) == [
        "mod.py:2: os",
        "mod.py:6: Dead",
    ]
