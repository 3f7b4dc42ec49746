"""The benchmark's traced mode wraps engine functions by name; every name
it wraps must still resolve, or `perfbench/run.py --trace 1` breaks, and
the engine must still call each one through the wrapped name, or its
layer silently records nothing. The benchmark's own tests (generator,
oracle, tracer) run here too, so an engine change that breaks them fails
this suite."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import init_repo
from lineage_forge import lineage_cache, parser, project
from lineage_forge.demo import create_demo_project
from lineage_forge.executor import DIGEST

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACING_MODULE = load_tracing()
WRAPPED = [(module_name, attr) for module_name, attr, *_ in TRACING_MODULE.WRAPS]


@pytest.mark.parametrize("module_name, attr", WRAPPED, ids=[f"{m}:{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_every_wrapped_span_fires(tmp_path):
    root = tmp_path / "proj"
    create_demo_project(root)
    init_repo(root)
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        tracer.begin_op("configure")
        project.configure(root, tmp_path / "build", input_dir="data")
        tracer.begin_op("make")
        project.run_make(root, mode=DIGEST, offline=True)
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    assert sorted({name for _, _, name, _ in TRACING_MODULE.WRAPS} - recorded) == []


def test_run_recipe_fires_once_per_executed_target(tmp_path):
    # perfbench checks its recipe count against the oracle's target count,
    # so a recipe of several lines must still be one `run_recipe` call.
    root = tmp_path / "proj"
    create_demo_project(root)
    init_repo(root)
    project.configure(root, tmp_path / "build", input_dir="data")
    rules = project.Project.load(root).graph.rules.values()
    assert any(len(r.recipe) > 1 for r in rules if r.origin.path.endswith("/download.wf"))
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        tracer.begin_op("make")
        result = project.run_make(root, offline=True)
    finally:
        tracer.uninstall()
    fired = [span for span in tracer.spans if span.name == "executor.run_recipe"]
    assert len(fired) == len(result.report.executed) > 0


def test_second_make_parses_nothing(tmp_path):
    root = tmp_path / "proj"
    create_demo_project(root)
    init_repo(root)
    project.configure(root, tmp_path / "build", input_dir="data")
    project.run_make(root, offline=True)
    parsed = []
    real = parser.parse_workflow

    def spy(text, origin):
        parsed.append(origin)
        return real(text, origin)

    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        tracer.begin_op("make")
        with mock.patch.object(parser, "parse_workflow", spy), \
                mock.patch.object(lineage_cache, "parse_workflow", spy):
            project.run_make(root, offline=True)
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    assert "project.Project.load" in recorded
    assert "graph.build_graph" not in recorded
    assert parsed == []


def test_perfbench_own_tests_pass():
    # A subprocess: perfbench/tests has its own conftest.py, which cannot
    # share one collection with tests/conftest.py.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
