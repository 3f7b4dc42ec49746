"""The benchmark's traced mode wraps engine functions by name; every name
it wraps must still resolve, or `perfbench/run.py --trace 1` breaks. The
benchmark's own tests (generator, oracle, tracer) run here too, so an
engine change that breaks them fails this suite."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"


def load_wraps() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WRAPS


WRAPPED = [(module_name, attr) for module_name, attr, *_ in load_wraps()]


@pytest.mark.parametrize("module_name, attr", WRAPPED, ids=[f"{m}:{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_perfbench_own_tests_pass():
    # A subprocess: perfbench/tests has its own conftest.py, which cannot
    # share one collection with tests/conftest.py.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
