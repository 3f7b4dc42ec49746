"""Benchmark of `lineage_forge.project.run_make` on seeded projects.

    python3 perfbench/run.py --workload noop-large --seed 1 --seconds 20 --trace 0

One op is one `run_make(root, jobs=2, offline=True)` call on an already
configured project, issued in process by one client in a closed loop:
the next op starts when the previous one returns. Set-up (generate,
`git init`/commit, configure, cold build) runs three times, each in its
own process, and is reported as a median. Every op is checked against
the oracle in `oracle.py`; a raise or any mismatch counts as a failed op.

With `--trace 0` the engine runs unpatched and the end-to-end metrics
are printed. With `--trace 1` every second op runs with the wrappers of
`tracing.py` installed, the others without; the per-layer metrics come
from the traced ops and the tracing overhead is the difference between
the two halves' median op times. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from genproject import WORKLOADS, build_model
from oracle import Oracle
from setup_project import GIT_ISOLATION, configure_kwargs
from tracing import PER_LAYER, Tracer, op_metrics, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

JOBS = 2  # the reference machine has two cores
SETUP_REPS = 3
WARMUP_OPS = 2
MIN_OPS = 40  # so that the tail percentile has at least 10 ops beyond it
TAIL_PERCENTILE = 75
DEADLINE_S = 150  # hard stop for the whole run, set-up included
TRACED_CONFIGURES = 3
# The sum of per-op self times may miss the op's wall time by the
# wrapper's own cost around the root span; allow this much beyond the
# measured tracing overhead.
UNACCOUNTED_SLACK_MS = 0.5

END_TO_END = (
    ("make_p50_ms", "ms"), ("make_tail_ms", "ms"), ("engine_cpu_ms_p50", "ms"),
    ("child_cpu_ms_p50", "ms"), ("peak_rss_mb", "MB"), ("cold_build_s", "s"),
    ("setup_s", "s"),
)


def _cpu_ms(usage) -> float:
    return (usage.ru_utime + usage.ru_stime) * 1e3


def _write_newer(path: Path, data: bytes, dependents: list[Path]) -> None:
    """Write a parameter file so its mtime is strictly newer than every
    direct dependent's, as timestamp-mode staleness requires."""
    for _ in range(500):
        path.write_bytes(data)
        newest = max((d.stat().st_mtime_ns for d in dependents if d.exists()), default=0)
        if path.stat().st_mtime_ns > newest:
            return
        time.sleep(0.002)
    raise RuntimeError(f"could not make {path} newer than its dependents")


def _tail(values: list[float]) -> float:
    """Nearest-rank TAIL_PERCENTILE of `values`."""
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1]


class Bench:
    def __init__(self, project, workload: str, seed: int, dest: Path, info: dict):
        self.project = project  # the lineage_forge.project module
        self.dest = dest
        self.proj = dest / "proj"
        self.build = dest / "build"
        _shape, self.edits, self.mode = WORKLOADS[workload]
        model = build_model(workload, seed)
        model.bulk_macros = info["bulk_macros"]
        self.oracle = Oracle(model, info["head"])
        # Edits visit the parameter files in a seeded order, round-robin,
        # so every run spreads its ops evenly over them.
        params = sorted(model.params)
        random.Random(f"ops-{seed}").shuffle(params)
        self.edit_order = itertools.cycle(params)
        self.tracer = Tracer()

    def op(self, op_id: str, traced: bool) -> dict:
        expected: set[str] = set()
        if self.edits:
            path = next(self.edit_order)
            data, expected = self.oracle.edit(path)
            _write_newer(self.proj / path, data,
                         [self.proj / d for d in self.oracle.direct_dependents(path)])
        if traced:
            self.tracer.begin_op(op_id)
            self.tracer.install()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            result = self.project.run_make(self.proj, jobs=JOBS, offline=True, mode=self.mode)
            problems = []
        except Exception:  # a failed op is counted, never fatal to the run
            result = None
            problems = [traceback.format_exc()]
        finally:
            wall_ms = (time.perf_counter() - started) * 1e3
            self_after = resource.getrusage(resource.RUSAGE_SELF)
            children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
            if traced:
                self.tracer.uninstall()
        if result is not None:
            problems = self.oracle.check(result, self.build, expected)
        return {
            "id": op_id, "traced": traced, "wall_ms": wall_ms,
            "engine_cpu_ms": _cpu_ms(self_after) - _cpu_ms(self_before),
            "child_cpu_ms": _cpu_ms(children_after) - _cpu_ms(children_before),
            "executed": len(result.report.executed) if result else 0,
            "expected": len(expected), "problems": problems,
        }

    def traced_configures(self) -> list[float]:
        """software.verify_tarballs time over repeated, idempotent configures."""
        times = []
        for i in range(TRACED_CONFIGURES):
            op_id = f"configure-{i}"
            self.tracer.begin_op(op_id)
            self.tracer.install()
            try:
                self.project.configure(self.proj, **configure_kwargs(self.dest))
            finally:
                self.tracer.uninstall()
            times.append(sum(s.ms for s in self.tracer.spans
                             if s.op == op_id and s.name == "software.verify_tarballs"))
        return times


def set_up(workload: str, seed: int, dest: Path, deadline: float) -> tuple[list, list, dict]:
    """Run the set-up SETUP_REPS times; returns set-up and cold-build
    seconds per rep and the last rep's report."""
    setup_s, cold_s, info = [], [], {}
    for _ in range(SETUP_REPS):
        shutil.rmtree(dest, ignore_errors=True)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_project.py"), "--workload", workload,
             "--seed", str(seed), "--dest", str(dest)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
        setup_s.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stdout}{proc.stderr}")
        info = json.loads(proc.stdout.splitlines()[-1])
        cold_s.append(info["cold_build_s"])
    return setup_s, cold_s, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run_started = time.perf_counter()
    deadline = run_started + DEADLINE_S

    if not (SRC / "lineage_forge" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lineage_forge.project as project

    if not Path(project.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported the engine from {project.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.environ.update(GIT_ISOLATION)
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    dest = work / "project"
    try:
        setup_s, cold_s, info = set_up(args.workload, args.seed, dest, deadline)
        bench = Bench(project, args.workload, args.seed, dest, info)
        configure_ms = bench.traced_configures() if args.trace else []
        rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        ops = [bench.op(f"warmup-{i}", False) for i in range(WARMUP_OPS)]
        timed: list[dict] = []
        started = time.perf_counter()
        while ((time.perf_counter() - started < args.seconds or len(timed) < MIN_OPS)
               and time.perf_counter() < deadline):
            timed.append(bench.op(f"op-{len(timed)}", bool(args.trace and len(timed) % 2)))
        ops += timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(dest, ignore_errors=True)

    failures = [op for op in ops if op["problems"]]
    for op in failures[:3]:
        print(f"FAILED {op['id']}: {op['problems'][0]}", file=sys.stderr)
    correct = not failures and len(timed) >= MIN_OPS
    walls = [op["wall_ms"] for op in timed]
    print(f"workload {args.workload} seed {args.seed}: {len(timed)} timed ops "
          f"(+{WARMUP_OPS} warm-up), tail = p{TAIL_PERCENTILE}, "
          f"{len(timed) - math.ceil(len(timed) * TAIL_PERCENTILE / 100)} ops beyond it; "
          f"max RSS before the ops {rss_before_kb / 1024:.1f} MB")

    if args.trace:
        plain = [op["wall_ms"] for op in timed if not op["traced"]]
        traced = [op for op in timed if op["traced"]]
        overhead_ms = statistics.median(op["wall_ms"] for op in traced) - statistics.median(plain)
        by_op: dict[str, list] = {}
        for span in bench.tracer.spans:
            by_op.setdefault(span.op, []).append(span)
        traced_metrics = [op_metrics(by_op.get(op["id"], []), op["wall_ms"], JOBS,
                                     op["expected"], op["executed"]) for op in traced]
        metrics = per_layer(traced_metrics, configure_ms, overhead_ms)
        bench.tracer.dump(work / f"spans-seed{args.seed}.jsonl")
        miscounted = [op["id"] for op, m in zip(traced, traced_metrics)
                      if m.get("executor.run_recipe.calls", 0) != op["expected"]]
        if miscounted:
            print(f"run_recipe calls differ from the oracle on {miscounted[:3]}", file=sys.stderr)
            correct = False
        worst = max(abs(m["trace.unaccounted_ms"]) for m in traced_metrics)
        if worst > max(overhead_ms, 0.0) + UNACCOUNTED_SLACK_MS:
            print(f"trace check failed: self times miss an op's wall time by {worst:.3f} ms",
                  file=sys.stderr)
            correct = False
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "make_p50_ms": statistics.median(walls),
            "make_tail_ms": _tail(walls),
            "engine_cpu_ms_p50": statistics.median(op["engine_cpu_ms"] for op in timed),
            "child_cpu_ms_p50": statistics.median(op["child_cpu_ms"] for op in timed),
            "peak_rss_mb": peak_rss_mb,
            "cold_build_s": statistics.median(cold_s),
            "setup_s": statistics.median(setup_s),
        }
        units = dict(END_TO_END)

    # Not a BENCHMARK.json metric, since it reads 0 on a correct engine;
    # the result line carries it as `failed` / `attempted`.
    print(f"  {'failed_ops_ratio':<34} {len(failures) / len(ops):>14.6f} ratio")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
