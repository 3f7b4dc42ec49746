"""Tests of the benchmark itself: generator determinism, and the oracle
checked against the engine on tiny generated projects.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
from pathlib import Path

import pytest

import lineage_forge.project as project
from genproject import WORKLOADS, build_model, write_project
from oracle import Oracle
from run import _write_newer
from setup_project import set_up
from tracing import WRAPS, Span, Tracer, op_metrics

WORKLOAD_NAMES = sorted(WORKLOADS)


def tree_digest(dest: str | Path) -> str:
    """Digest over the path and bytes of every regular file under `dest`,
    skipping `.git` and the build directory."""
    dest = Path(dest)
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(dest):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", "build"))
        for name in sorted(filenames):
            path = Path(dirpath) / name
            if not path.is_symlink():
                h.update(str(path.relative_to(dest)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_trees(tmp_path: Path, workload: str):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        write_project(build_model(workload, seed, small=True), tmp_path / name)
        digests.append(tree_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_full_size_dag_model_is_deterministic_and_sized():
    a, b = build_model("edit-rebuild", 3), build_model("edit-rebuild", 3)
    assert [dataclasses.astuple(r) for r in a.rules] == [dataclasses.astuple(r) for r in b.rules]
    assert 2900 <= len(a.rules) <= 3100
    assert len(a.stages) == 31 and len(a.params) == 30
    oracle = Oracle(a, "0" * 40)
    for path in a.params:
        _data, invalidated = oracle.edit(path)
        assert len(invalidated) == 100


def _make(root: Path, workload: str, tracer: Tracer | None = None):
    if tracer:
        tracer.begin_op("op")
        tracer.install()
    try:
        return project.run_make(root, jobs=2, offline=True, mode=WORKLOADS[workload][2])
    finally:
        if tracer:
            tracer.uninstall()


def _recipe_calls(tracer: Tracer) -> int:
    return sum(1 for s in tracer.spans if s.name == "executor.run_recipe")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_oracle_matches_engine_on_build_edit_and_noop(tmp_path: Path, workload: str):
    info = set_up(workload, 7, tmp_path, small=True)
    assert info["problems"] == []  # clean build: every target, verified
    model = build_model(workload, 7, small=True)
    model.bulk_macros = info["bulk_macros"]
    oracle = Oracle(model, info["head"])
    proj, build = tmp_path / "proj", tmp_path / "build"

    tracer = Tracer()
    result = _make(proj, workload, tracer)
    assert oracle.check(result, build, set()) == []
    assert _recipe_calls(tracer) == 0

    path = sorted(model.params)[0]
    data, expected = oracle.edit(path)
    assert expected
    _write_newer(proj / path, data, [proj / d for d in oracle.direct_dependents(path)])
    tracer = Tracer()
    result = _make(proj, workload, tracer)
    assert oracle.check(result, build, expected) == []
    assert _recipe_calls(tracer) == len(expected)
    aggregate = (build / "tex/project.tex").read_text()
    assert f"{{{info['head'][:7]}-dirty}}" in aggregate

    result = _make(proj, workload)
    assert oracle.check(result, build, set()) == []


def test_oracle_reports_a_missed_rebuild(tmp_path: Path):
    info = set_up("edit-rebuild", 8, tmp_path, small=True)
    model = build_model("edit-rebuild", 8, small=True)
    oracle = Oracle(model, info["head"])
    path = sorted(model.params)[0]
    _data, expected = oracle.edit(path)  # predicted, but the file is not written
    result = _make(tmp_path / "proj", "edit-rebuild")
    problems = oracle.check(result, tmp_path / "build", expected)
    assert any("executed 0 targets" in p for p in problems)
    assert any("aggregate macros differ" in p for p in problems)


def _lookup(module: str, attr: str):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return vars(owner)[name]


def test_tracer_restores_every_wrapped_name():
    before = [_lookup(m, a) for m, a, _n, _p in WRAPS]
    tracer = Tracer()
    tracer.install()
    assert all(x is not y for x, y in zip(before, [_lookup(m, a) for m, a, _n, _p in WRAPS]))
    tracer.uninstall()
    assert all(x is y for x, y in zip(before, [_lookup(m, a) for m, a, _n, _p in WRAPS]))


def test_self_times_sum_to_wall_time_with_parallel_children():
    spans = [
        Span(1, "project.run_make", None, "op", 0.000, 0.100),
        Span(2, "executor.execute", 1, "op", 0.010, 0.060),
        Span(3, "executor.run_recipe", 2, "op", 0.020, 0.050),
        Span(4, "executor.run_recipe", 2, "op", 0.030, 0.055),
    ]
    m = op_metrics(spans, 100.0, jobs=2, expected=2, executed=2)
    assert m["executor.execute.self_ms"] == pytest.approx(15.0)
    assert m["project.run_make.self_ms"] == pytest.approx(50.0)
    assert m["executor.worker_busy_ratio"] == pytest.approx(55.0 / 100.0)
    assert m["trace.unaccounted_ms"] == pytest.approx(0.0, abs=1e-9)
