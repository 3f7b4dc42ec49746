"""Every engine module parses as the oldest Python that `pyproject.toml`
admits, so syntax newer than that stays out of the engine, and uses each
name it imports at module level."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from conftest import load_tracing

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "lineage_forge").glob("*.py"))
WRAPS = load_tracing().WRAPS


def oldest_python() -> tuple[int, int]:
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (REPO / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    assert match, "pyproject.toml names no oldest Python"
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=oldest_python())


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's top-level imports bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def patched_names(module: str) -> set[str]:
    """The names in `module` that the benchmark's tracer replaces."""
    return {attr.partition(".")[0] for owner, attr, *_ in WRAPS if owner == module}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | exported_names(tree) | patched_names(f"lineage_forge.{path.stem}")
    assert [name for name in imported_names(tree) if name not in kept] == []
