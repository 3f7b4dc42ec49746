"""Incremental recipe execution from one wait loop, in a scrubbed environment.

Staleness follows classic rebuild semantics: in `timestamp` mode a target
is stale when missing or older than any prerequisite; in `digest` mode
when missing or when any prerequisite's content digest differs from the
digest recorded at the target's last successful build. Staleness always
propagates downstream. Recipes run under an environment constructed
strictly from an EnvPolicy; nothing leaks in from the host.
"""

from __future__ import annotations

import errno
import heapq
import os
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Generator

from .errors import (
    MissingSource,
    RecipeFailed,
    ShellNotFound,
    TargetNotProduced,
    UsageError,
)
from .graph import BUILT, SOURCE, LineageGraph, Rule, ancestors
from .state import BuildState, DigestCache, TargetRecord, file_digest

TIMESTAMP = "timestamp"
DIGEST = "digest"

OUTPUT_TAIL_CHARS = 2000


@dataclass(frozen=True)
class EnvPolicy:
    """Recipe environment: fixed variables plus explicit passthrough only."""

    fixed: dict[str, str]
    passthrough: tuple[str, ...] = ()
    workdir: str = "."
    shell: str = "/bin/sh"

    @classmethod
    def hermetic(cls, build_dir: str | Path, tool_path: str, workdir: str | Path,
                 passthrough: tuple[str, ...] = ()) -> "EnvPolicy":
        return cls(
            fixed={
                "HOME": str(build_dir),
                "PATH": tool_path,
                "LC_ALL": "C",
                "TZ": "UTC0",
            },
            passthrough=passthrough,
            workdir=str(workdir),
        )

    def environment(self) -> dict[str, str]:
        env = dict(self.fixed)
        for name in self.passthrough:
            if name in os.environ:
                env[name] = os.environ[name]
        return env


@dataclass(frozen=True)
class ExecutedTarget:
    target: str
    status: int
    seconds: float
    started: float
    finished: float


@dataclass(frozen=True)
class FailedTarget:
    target: str
    status: int
    output_tail: str
    kind: str  # "recipe" | "not-produced"


@dataclass
class ExecutionReport:
    executed: list[ExecutedTarget] = field(default_factory=list)
    skipped_fresh: list[str] = field(default_factory=list)
    failed: FailedTarget | None = None
    jobs: int = 1

    def executed_targets(self) -> list[str]:
        return [e.target for e in self.executed]


def run_recipe(rule: Rule, env: EnvPolicy,
               log: BinaryIO) -> Generator[subprocess.Popen, int, int]:
    """Start a rule's recipe lines one by one, stopping at the first failure.

    Each line goes through the policy's POSIX shell with `-e`, so a
    multi-command line also aborts at its first failing command. Its
    stdout and stderr go straight to `log`. The generator yields each
    line's process and must be sent that line's exit status before it
    starts the next; it returns the last status (0 for no lines).
    """
    environment = env.environment()
    status = 0
    for line in rule.recipe:
        try:
            proc = subprocess.Popen([env.shell, "-e", "-c", line], cwd=env.workdir,
                                    env=environment, stdout=log, stderr=subprocess.STDOUT)
        except FileNotFoundError:
            raise ShellNotFound(env.shell) from None
        status = yield proc
        if status != 0:
            break
    return status


# Errors for which `Path.exists()` reports a path as absent.
_ABSENT_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def _mtime(path: str) -> int | None:
    """Modification time in ns, or None where `Path.exists()` is False."""
    try:
        return os.stat(path).st_mtime_ns
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            return None
        raise
    except ValueError:  # e.g. an embedded NUL byte
        return None


def _digest_or_empty(path: str, cache: DigestCache | None) -> str:
    """The file's digest, or "" where `Path.exists()` is False."""
    try:
        return file_digest(path, cache=cache)
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            return ""
        raise
    except ValueError:
        return ""


def stale_set(
    graph: LineageGraph,
    goal: str,
    state: BuildState,
    mode: str = TIMESTAMP,
    root: str | Path = ".",
    *,
    closure: set[str] | None = None,
    cache: DigestCache | None = None,
) -> set[str]:
    """Built nodes in the goal's closure that need rebuilding.

    Each node of the closure is stat'd once. Raises MissingSource for any
    source file in the closure that does not exist on disk. `closure` is
    `ancestors(graph, goal)` when the caller has it already; `cache` is
    passed to every `file_digest` call.
    """
    # Graph paths are normalized and relative, so `prefix + node` names
    # the file `root / node` does, without building a Path per node.
    prefix = os.path.join(root, "")
    if closure is None:
        closure = ancestors(graph, goal)
    order = [n for n in graph.order if n in closure]
    mtime = {n: _mtime(prefix + n) for n in order}  # None: missing

    missing = [n for n in order if mtime[n] is None and graph.nodes[n] == SOURCE]
    if missing:
        raise MissingSource(min(missing))

    digests: dict[str, str] = {}

    def digest_changed(rule: Rule) -> bool:
        rec = state.get(rule.target)
        if rec is None or len(rec.prereq_digests) != len(rule.prerequisites):
            return True
        for prereq, recorded in zip(rule.prerequisites, rec.prereq_digests):
            if prereq not in digests:
                digests[prereq] = file_digest(prefix + prereq, cache=cache)
            if digests[prereq] != recorded:
                return True
        return False

    # Prerequisites precede their targets in `order`, so each one's
    # staleness is settled before any target that reads it. A missing
    # prerequisite is either a source (raised above) or stale itself,
    # so the timestamp comparison only sees existing files.
    stale: set[str] = set()
    for target in order:
        rule = graph.rules.get(target)
        if rule is None:
            continue
        built = mtime[target]
        if built is None or not stale.isdisjoint(rule.prerequisites):
            stale.add(target)
        elif mode == TIMESTAMP:
            for prereq in rule.prerequisites:  # a loop, not a generator per rule
                if mtime[prereq] > built:
                    stale.add(target)
                    break
        elif mode == DIGEST and digest_changed(rule):
            stale.add(target)
    return stale


def _open_log(build_dir: Path | None, target: str) -> BinaryIO:
    """The target's log, `<build>/logs/<target>.log`, or an anonymous
    temporary file when there is no build directory."""
    if build_dir is None:
        return tempfile.TemporaryFile()
    path = build_dir / "logs" / (target.removeprefix(".build/") + ".log")
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w+b")


def _output_tail(log: BinaryIO) -> str:
    """The last OUTPUT_TAIL_CHARS characters of the log, undecodable bytes
    replaced. A UTF-8 character is at most 4 bytes, and 3 more bytes cover
    one cut at the front."""
    size = log.seek(0, os.SEEK_END)
    log.seek(max(0, size - 4 * OUTPUT_TAIL_CHARS - 3))
    return log.read().decode("utf-8", errors="replace")[-OUTPUT_TAIL_CHARS:]


def execute(
    graph: LineageGraph,
    goal: str,
    jobs: int,
    env: EnvPolicy,
    state: BuildState,
    mode: str = TIMESTAMP,
    root: str | Path = ".",
    build_dir: str | Path | None = None,
    on_event: Callable[[dict], None] | None = None,
    group_gid: int | None = None,
    cache: DigestCache | None = None,
) -> ExecutionReport:
    """Bring the goal up to date, running at most `jobs` recipes at once.

    A recipe starts only once all its prerequisites are fresh. On the
    first failure no new work is scheduled; running recipes drain. Each
    recipe writes `<build>/logs/<target>.log` as it runs, and the build
    state records content digests for the digest staleness mode.
    """
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    prefix = os.path.join(root, "")
    build_path = Path(build_dir) if build_dir else None

    closure = ancestors(graph, goal)
    stale = stale_set(graph, goal, state, mode, root, closure=closure, cache=cache)
    report = ExecutionReport(jobs=jobs)
    report.skipped_fresh = sorted(n for n in closure - stale if graph.nodes[n] == BUILT)

    if not stale:
        return report

    pending: dict[str, int] = {}
    dependents: dict[str, list[str]] = {t: [] for t in stale}
    for target in stale:
        rule = graph.rules[target]
        count = 0
        for prereq in set(rule.prerequisites):
            if prereq in stale:
                count += 1
                dependents[prereq].append(target)
        pending[target] = count

    ready = [t for t, c in pending.items() if c == 0]
    heapq.heapify(ready)  # smallest ready target is started first
    failure: FailedTarget | None = None
    failure_exc: Exception | None = None
    # pid -> (target, steps, log, started, process) for each running line;
    # `done` holds targets whose recipe ended, in the order they ended.
    # A target holds its slot until the loop has settled it.
    running: dict[int, tuple[str, Generator, BinaryIO, float, subprocess.Popen]] = {}
    done: deque[tuple[str, int, BinaryIO, float, float]] = deque()

    def advance(target: str, steps: Generator, log: BinaryIO, started: float,
                status: int | None) -> None:
        """Start the target's next line, or queue the target as done."""
        try:
            proc = steps.send(status)
        except StopIteration as stop:
            done.append((target, stop.value, log, started, time.monotonic()))
        except BaseException:
            log.close()
            raise
        else:
            running[proc.pid] = (target, steps, log, started, proc)

    def fill() -> None:
        while ready and len(running) + len(done) < jobs and failure is None:
            target = heapq.heappop(ready)
            log = _open_log(build_path, target)
            advance(target, run_recipe(graph.rules[target], env, log), log,
                    time.monotonic(), None)

    try:
        fill()
        while running or done:
            if not done:
                # `execute` starts no child but its recipes while it runs,
                # so a pid it did not start is not its to handle: ignore it.
                pid, wait_status = os.wait()
                if pid in running:
                    target, steps, log, started, proc = running.pop(pid)
                    # Reaped here, so the Popen must never wait on the pid.
                    proc.returncode = os.waitstatus_to_exitcode(wait_status)
                    advance(target, steps, log, started, proc.returncode)
                continue
            target, status, log, started, finished = done.popleft()
            with log:
                rule = graph.rules[target]
                tpath = prefix + target
                if status == 0 and (not rule.recipe or os.path.exists(tpath)):
                    # Release dependents and refill the slots first, so
                    # recipes run while this target is recorded.
                    for dep in dependents[target]:
                        pending[dep] -= 1
                        if pending[dep] == 0:
                            heapq.heappush(ready, dep)
                    fill()
                    seconds = finished - started
                    report.executed.append(ExecutedTarget(target, 0, seconds, started, finished))
                    if group_gid is not None and os.path.exists(tpath):
                        _apply_group(tpath, group_gid)
                    _record(state, rule, prefix, tpath, cache)
                    if on_event:
                        on_event({"event": "built", "target": target, "seconds": round(seconds, 4)})
                    continue
                if failure is None:
                    tail = _output_tail(log)
                    failure = FailedTarget(target, status, tail,
                                           "recipe" if status else "not-produced")
                    failure_exc = (RecipeFailed(target, status, tail) if status
                                   else TargetNotProduced(target))
                if status != 0 and os.path.exists(tpath):
                    os.rename(tpath, tpath + ".failed")
                if on_event:
                    on_event({"event": "failed", "target": target, "status": status})
    finally:
        # Whatever leaves the loop, no recipe outlives it.
        for _, _, log, _, proc in running.values():
            proc.wait()
            log.close()
        for _, _, log, _, _ in done:
            log.close()

    report.failed = failure
    if failure is not None:
        assert failure_exc is not None
        failure_exc.report = report  # type: ignore[attr-defined]
        raise failure_exc
    return report


def _record(state: BuildState, rule: Rule, prefix: str, tpath: str,
            cache: DigestCache | None) -> None:
    """Record the target's digest and its prerequisites', each "" for a
    path that is missing (see `state.py`)."""
    state.put(
        TargetRecord(
            target=rule.target,
            built_at=int(time.time()),
            target_digest=_digest_or_empty(tpath, cache),
            prereq_digests=tuple(_digest_or_empty(prefix + p, cache)
                                 for p in rule.prerequisites),
        )
    )


def _apply_group(path: str, gid: int) -> None:
    try:
        os.chown(path, -1, gid)
    except (PermissionError, OSError):
        pass
    mode = os.stat(path).st_mode
    os.chmod(path, mode | 0o060)  # group rw
