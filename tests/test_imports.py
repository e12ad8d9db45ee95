"""The engine is numpy-only: every module imports the standard library,
numpy (pyproject's one dependency) and its own package, nothing else."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mrpdiff"


def _absolute_imports(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_engine_imports_only_the_standard_library_and_numpy():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    imported = {path.relative_to(SRC).as_posix(): _absolute_imports(path) for path in modules}
    outside = {module: sorted(names - set(sys.stdlib_module_names) - {"numpy"})
               for module, names in imported.items()}
    assert {module: names for module, names in outside.items() if names} == {}
    # the declared dependency is used
    assert any("numpy" in names for names in imported.values())
