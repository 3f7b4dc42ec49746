"""Every engine module parses as the oldest Python that `pyproject.toml`
admits, so syntax newer than that stays out of the engine."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "lineage_forge").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (REPO / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    assert match, "pyproject.toml names no oldest Python"
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=oldest_python())
