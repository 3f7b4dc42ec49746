"""Traced runs: spans around the engine's public functions, from outside.

Each wrapper is installed at the name its caller resolves at call time
(`project.py` imports most functions by name, so `execute` is wrapped as
`lineage_forge.project.execute`, `stale_set` as
`lineage_forge.executor.stale_set`, and so on). Wrappers exist only
between `install()` and `uninstall()`; untraced ops run the engine
unpatched.

A span records its name, start, end, parent span and op id, plus the
file size and path for hashing functions. Spans are appended to an
in-memory list under a lock, since the executor and the verifier call
wrapped functions from worker threads; a span that starts on a worker
thread takes as parent the innermost open span on the op's own thread
that hands work to a pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, span name, index of a path argument whose size is
# recorded). Two call sites share "graph.ancestors".
WRAPS = (
    ("lineage_forge.project", "run_make", "project.run_make", None),
    ("lineage_forge.project", "Project.load", "project.Project.load", None),
    ("lineage_forge.project", "flatten_statements", "parser.flatten_statements", None),
    ("lineage_forge.project", "build_env", "parser.build_env", None),
    ("lineage_forge.project", "instantiate_rules", "parser.instantiate_rules", None),
    ("lineage_forge.project", "build_graph", "graph.build_graph", None),
    ("lineage_forge.project", "ancestors", "graph.ancestors", None),
    ("lineage_forge.executor", "ancestors", "graph.ancestors", None),
    ("lineage_forge.project", "execute", "executor.execute", None),
    ("lineage_forge.executor", "stale_set", "executor.stale_set", None),
    ("lineage_forge.executor", "run_recipe", "executor.run_recipe", None),
    ("lineage_forge.executor", "file_digest", "state.file_digest", 0),
    ("lineage_forge.state", "BuildState.load", "state.BuildState.load", None),
    ("lineage_forge.state", "BuildState.save", "state.BuildState.save", None),
    ("lineage_forge.fetch", "InputResolver.resolve_all", "fetch.resolve_all", None),
    ("lineage_forge.fetch", "verify_checksum", "fetch.verify_checksum", 0),
    ("lineage_forge.project", "verify_all", "verify.verify_all", None),
    ("lineage_forge.verify", "filtered_digest", "verify.filtered_digest", 0),
    ("lineage_forge.project", "git_state", "provenance.git_state", None),
    ("lineage_forge.project", "machine_info", "provenance.machine_info", None),
    ("lineage_forge.project", "aggregate_macros", "provenance.aggregate_macros", None),
    ("lineage_forge.project", "verify_tarballs", "software.verify_tarballs", None),
)

# Functions that hand work to a thread pool.
DISPATCHERS = frozenset({"executor.execute", "verify.verify_all", "fetch.resolve_all",
                         "software.verify_tarballs"})

# Every per-layer metric: (name, unit, better). Values are per-op medians
# over the traced ops; software.verify_tarballs is timed over configure.
PER_LAYER = (
    ("parser.flatten_statements.ms", "ms", "lower"),
    ("parser.instantiate_rules.ms", "ms", "lower"),
    ("parser.build_env.ms", "ms", "lower"),
    ("graph.build_graph.ms", "ms", "lower"),
    ("graph.ancestors.calls", "count", "lower"),
    ("graph.ancestors.ms", "ms", "lower"),
    ("executor.stale_set.ms", "ms", "lower"),
    ("executor.run_recipe.calls", "count", "lower"),
    ("executor.run_recipe.ms", "ms", "lower"),
    ("executor.worker_busy_ratio", "ratio", "higher"),
    ("executor.execute.self_ms", "ms", "lower"),
    ("executor.useful_ratio", "ratio", "higher"),
    ("state.file_digest.calls", "count", "lower"),
    ("state.file_digest.bytes", "B", "lower"),
    ("state.file_digest.ms", "ms", "lower"),
    ("state.file_digest.distinct_ratio", "ratio", "higher"),
    ("state.BuildState.load.ms", "ms", "lower"),
    ("state.BuildState.save.ms", "ms", "lower"),
    ("fetch.resolve_all.ms", "ms", "lower"),
    ("fetch.verify_checksum.bytes", "B", "lower"),
    ("fetch.verify_checksum.ms", "ms", "lower"),
    ("verify.verify_all.ms", "ms", "lower"),
    ("verify.filtered_digest.calls", "count", "lower"),
    ("verify.filtered_digest.bytes", "B", "lower"),
    ("verify.filtered_digest.ms", "ms", "lower"),
    ("provenance.git_state.ms", "ms", "lower"),
    ("provenance.machine_info.ms", "ms", "lower"),
    ("provenance.aggregate_macros.ms", "ms", "lower"),
    ("software.verify_tarballs.ms", "ms", "lower"),
    ("project.Project.load.ms", "ms", "lower"),
    ("project.run_make.self_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.unaccounted_ms", "ms", "lower"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    start: float
    end: float
    nbytes: int = 0
    path: str | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._op = ""
        self._op_thread = 0
        self._op_stack: list[tuple[int, str]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _pool_parent(self) -> int | None:
        if threading.get_ident() == self._op_thread:
            return None
        open_spans = list(self._op_stack)
        for sid, name in reversed(open_spans):
            if name in DISPATCHERS:
                return sid
        return open_spans[0][0] if open_spans else None

    def begin_op(self, op: str) -> None:
        self._op = op
        self._op_thread = threading.get_ident()
        self._op_stack = self._stack()

    def _wrap(self, fn, name: str, path_arg: int | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else self._pool_parent()
            nbytes, path = 0, None
            if path_arg is not None:
                path = os.fspath(args[path_arg])
                try:
                    nbytes = os.stat(path).st_size
                except OSError:
                    pass
            sid = next(self._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(sid, name, parent, self._op, start, end, nbytes, path))
        return traced

    def install(self) -> None:
        for module_name, attr, name, path_arg in WRAPS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, path_arg))
                else:
                    patched = self._wrap(raw, name, path_arg)
            else:
                raw = getattr(owner, attr)
                patched = self._wrap(raw, name, path_arg)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _union_ms(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total * 1e3


def op_metrics(spans: list[Span], wall_ms: float, jobs: int, expected: int,
               executed: int) -> dict[str, float]:
    """Per-layer values of one op from its spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def self_ms(span: Span) -> float:
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.id, ())]
        return span.ms - _union_ms([k for k in kids if k[1] > k[0]])

    out: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    for name, group in by_name.items():
        out[f"{name}.ms"] = sum(s.ms for s in group)
        out[f"{name}.calls"] = len(group)
        out[f"{name}.bytes"] = sum(s.nbytes for s in group)
    digests = by_name.get("state.file_digest", [])
    out["state.file_digest.distinct_ratio"] = (
        len({s.path for s in digests}) / len(digests) if digests else 1.0)
    execute = by_name.get("executor.execute", [])
    execute_ms = sum(s.ms for s in execute)
    out["executor.execute.self_ms"] = sum(self_ms(s) for s in execute)
    out["executor.worker_busy_ratio"] = (
        out.get("executor.run_recipe.ms", 0.0) / (jobs * execute_ms) if execute_ms else 0.0)
    out["executor.useful_ratio"] = expected / executed if executed else 1.0
    out["project.run_make.self_ms"] = sum(self_ms(s) for s in by_name.get("project.run_make", []))
    # Self times of concurrent siblings overlap in wall time; take the
    # overlap out again so the sum can be compared with the op's wall.
    overlap = sum(sum(c.ms for c in kids) - _union_ms([(c.start, c.end) for c in kids])
                  for kids in children.values())
    out["trace.unaccounted_ms"] = wall_ms - (sum(self_ms(s) for s in spans) - overlap)
    return out


def per_layer(traced_ops: list[dict[str, float]], configure_ms: list[float],
              overhead_ms: float) -> dict[str, float]:
    """Median over ops of every PER_LAYER metric."""
    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name == "software.verify_tarballs.ms":
            values[name] = statistics.median(configure_ms)
        elif name == "trace.overhead_ms":
            values[name] = overhead_ms
        else:
            values[name] = statistics.median(op.get(name, 0.0) for op in traced_ops)
    return values
