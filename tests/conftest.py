from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from lineage_forge.demo import create_demo_project
from lineage_forge.project import configure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def git(cwd: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(cwd), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def init_repo(path: Path) -> None:
    git(path, "init", "-q")
    git(path, "add", "-A")
    git(path, "-c", "user.email=demo@example.org", "-c", "user.name=demo",
        "commit", "-qm", "initial")


def load_tracing():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def demo_project(tmp_path: Path) -> Path:
    """Demo project in a fresh git repo, configured against a local build dir."""
    root = tmp_path / "proj"
    create_demo_project(root)
    init_repo(root)
    configure(root, tmp_path / "build", input_dir="data")
    return root


@pytest.fixture
def demo_project_unconfigured(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    create_demo_project(root)
    return root


def run_cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    """Invoke the CLI as a subprocess so exit codes are end-to-end real."""
    import sys

    return subprocess.run(
        [sys.executable, "-m", "lineage_forge.cli", "-C", str(root), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
