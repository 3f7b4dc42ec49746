"""Incremental recipe execution by one loop over one worker shell per job
slot, in a scrubbed environment.

Staleness follows classic rebuild semantics: in `timestamp` mode a target
is stale when missing or older than any prerequisite; in `digest` mode
when missing or when any prerequisite's content differs from what the
target's last successful build recorded: an unchanged, trusted StatKey
settles it, else the content digest, and with no digest recorded the
target is stale. Staleness always propagates downstream. A make takes
each file's digest at most once, and only where something reads it: a
built target's own, and in digest mode its prerequisites'. Recipes run
under an environment constructed strictly from an EnvPolicy; nothing
leaks in from the host.
"""

from __future__ import annotations

import contextlib
import errno
import heapq
import operator
import os
import selectors
import shlex
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

from .errors import (
    DslSyntaxError,
    MissingSource,
    RecipeFailed,
    ShellNotFound,
    TargetNotProduced,
    UsageError,
)
from .graph import BUILT, SOURCE, LineageGraph, Rule, ancestors
from .state import (
    BuildState,
    StatKey,
    TargetRecord,
    entry,
    entry_digest,
    file_digest,
    stat_key,
)

TIMESTAMP = "timestamp"
DIGEST = "digest"

OUTPUT_TAIL_CHARS = 2000


@dataclass(frozen=True)
class EnvPolicy:
    """Recipe environment: the fixed variables and nothing inherited."""

    fixed: dict[str, str]
    workdir: str = "."
    shell: str = "/bin/sh"

    @classmethod
    def hermetic(cls, build_dir: str | Path, tool_path: str, workdir: str | Path) -> "EnvPolicy":
        return cls(
            fixed={
                "HOME": str(build_dir),
                "PATH": tool_path,
                "LC_ALL": "C",
                "TZ": "UTC0",
            },
            workdir=str(workdir),
        )

    def environment(self) -> dict[str, str]:
        return dict(self.fixed)


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


def run_recipe(rule: Rule, log: str) -> list[bytes]:
    """A rule's recipe lines as worker commands, one per line, to be sent
    one at a time and no further than the first that fails.

    Each command runs its line in a subshell of a worker shell (see
    `Worker`) with `-e`, so a multi-command line also aborts at its first
    failing command. `eval` keeps a syntax error inside the subshell, whose
    stdin is /dev/null and whose stdout and stderr append to the log at
    path `log`. The subshell's status is never tested inside the command,
    since dash ignores `-e` in a subshell whose status is. A line with a
    NUL byte, which a shell would drop and `sh -c <line>` refused, raises
    DslSyntaxError, naming its file and line, before any command is built,
    so no line of the recipe runs. Recipe lines follow their rule's line.
    """
    recipe = rule.recipe
    for k, line in enumerate(recipe, start=1):
        if "\0" in line:
            raise DslSyntaxError(rule.origin.path, rule.origin.line + k,
                                 "NUL byte in recipe line")
    redirect = f" </dev/null >>{shlex.quote(log)} 2>&1; echo $?\n"
    return [os.fsencode(f"( set -e; eval {shlex.quote(line)} ){redirect}") for line in recipe]


class Worker:
    """One job slot's long-lived shell, started from the policy's
    environment and working directory in `make`'s process group. It reads
    the commands `run_recipe` builds from its stdin and answers each with
    its status line on its stdout."""

    def __init__(self, env: EnvPolicy) -> None:
        try:
            self.proc = subprocess.Popen([env.shell], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, cwd=env.workdir,
                                         env=env.environment())
        except FileNotFoundError:
            raise ShellNotFound(env.shell) from None

    def send(self, command: bytes) -> None:
        try:
            self.proc.stdin.write(command)
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker is dead; `status` reads the EOF and says how

    def status(self) -> int:
        """The status of the command sent, read once the worker's stdout is
        readable.
        If the worker died instead, it is waited for, and its exit status
        (-15 for SIGTERM) is the command's."""
        line = self.proc.stdout.readline()
        return int(line) if line else self.close()

    def close(self) -> int:
        """End the worker once its current command is done and wait for it."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # a `send` to the dead worker left bytes unflushed
        status = self.proc.wait()
        self.proc.stdout.close()
        return status


# Errors for which `Path.exists()` reports a path as absent.
_ABSENT_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


_MTIME = operator.attrgetter("st_mtime_ns")


def _stat(path: str, of: Callable[[os.stat_result], int | StatKey]) -> int | StatKey | None:
    """`of` the file's stat (`_MTIME` or `stat_key`), or None where
    `Path.exists()` is False."""
    try:
        return of(os.stat(path))
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            return None
        raise
    except ValueError:  # e.g. an embedded NUL byte
        return None


def _digest_or_empty(path: str, stat: StatKey, state: BuildState,
                     digests: dict[str, tuple[StatKey, str]]) -> str:
    """The digest of the file whose StatKey is `stat`, or "" where
    `Path.exists()` is False. `digests`, the make's memo, maps each path
    hashed so far to its StatKey and digest then, so that no file with
    an unchanged StatKey is hashed twice in one make."""
    seen = digests.get(path)
    if seen is not None and seen[0] == stat:
        return seen[1]
    try:
        digest = file_digest(path, cache=state)
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            return ""
        raise
    except ValueError:
        return ""
    digests[path] = (stat, digest)
    return digest


def stale_set(
    graph: LineageGraph,
    goal: str,
    state: BuildState,
    mode: str = TIMESTAMP,
    root: str | Path = ".",
    *,
    closure: set[str] | None = None,
    digests: dict[str, tuple[StatKey, str]] | None = None,
) -> set[str]:
    """Built nodes in the goal's closure that need rebuilding.

    Each node of the closure is stat'd once. Raises MissingSource for any
    source file in the closure that does not exist on disk. `closure` is
    `ancestors(graph, goal)` when the caller has it already. In digest
    mode a prerequisite is hashed only where its record's entry does not
    settle it by StatKey (`BuildState.unchanged`), at most once, into the
    make's memo `digests`; `state` serves every `file_digest` call as its
    cache.
    """
    # Graph paths are normalized and relative, so `prefix + node` names
    # the file `root / node` does, without building a Path per node.
    prefix = os.path.join(root, "")
    if closure is None:
        closure = ancestors(graph, goal)
    order = [n for n in graph.order if n in closure]
    # Each node's mtime, or in digest mode its StatKey, which takes
    # several times the memory; None where it is missing.
    of = stat_key if mode == DIGEST else _MTIME
    stats = {n: _stat(prefix + n, of) for n in order}

    missing = [n for n in order if stats[n] is None and graph.nodes[n] == SOURCE]
    if missing:
        raise MissingSource(min(missing))

    if digests is None:
        digests = {}

    def digest_changed(rule: Rule) -> bool:
        rec = state.get(rule.target)
        if rec is None or len(rec.prereqs) != len(rule.prerequisites):
            return True
        for prereq, recorded in zip(rule.prerequisites, rec.prereqs):
            key = stats[prereq]
            if state.unchanged(recorded, key):
                continue
            digest = entry_digest(recorded)
            if not digest or _digest_or_empty(prefix + prereq, key, state, digests) != digest:
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
        built = stats[target]
        if built is None or not stale.isdisjoint(rule.prerequisites):
            stale.add(target)
        elif mode == TIMESTAMP:
            for prereq in rule.prerequisites:  # a loop, not a generator per rule
                if stats[prereq] > built:
                    stale.add(target)
                    break
        elif mode == DIGEST and digest_changed(rule):
            stale.add(target)
    return stale


def _open_log(path: Path) -> BinaryIO:
    """Open a target's log empty, for its recipe about to run."""
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
    *,
    build_dir: str | Path,
    on_event: Callable[[dict], None] | None = None,
    group_gid: int | None = None,
) -> ExecutionReport:
    """Bring the goal up to date, running at most `jobs` recipes at once.

    A recipe starts only once all its prerequisites are fresh. Each
    running recipe's lines go to one of at most `jobs` worker shells,
    each started the first time a slot needs it. On the first failure no
    new work is scheduled; running recipes drain. Each recipe writes
    `<build>/logs/<target>.log` as it runs; a refused recipe (see
    `run_recipe`) leaves the previous log as it was, and a target with
    no recipe lines has none written. The build state records each built
    target (see `_record`).
    """
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    prefix = os.path.join(root, "")
    # Absolute, since a worker's working directory is the policy's.
    build_path = Path(build_dir).absolute()

    closure = ancestors(graph, goal)
    digests: dict[str, tuple[StatKey, str]] = {}  # the make's memo, see `_digest_or_empty`
    stale = stale_set(graph, goal, state, mode, root, closure=closure, digests=digests)
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
    # worker -> (target, commands still to send, log, started) for each
    # running line, whose worker's stdout is registered with `selector`;
    # `done` holds targets whose recipe ended, in the order they ended,
    # with no log for an empty recipe. A target holds its slot until the
    # loop has settled it, so at most `jobs` workers live: those in
    # `idle` and those in `running`.
    running: dict[Worker, tuple[str, Iterator[bytes], BinaryIO, float]] = {}
    done: deque[tuple[str, int, BinaryIO | None, float, float]] = deque()
    idle: list[Worker] = []
    selector = selectors.DefaultSelector()

    def send(worker: Worker, command: bytes,
             job: tuple[str, Iterator[bytes], BinaryIO, float]) -> None:
        worker.send(command)
        running[worker] = job
        selector.register(worker.proc.stdout, selectors.EVENT_READ, worker)

    def fill() -> None:
        while ready and len(running) + len(done) < jobs and failure is None:
            target = heapq.heappop(ready)
            started = time.monotonic()
            path = build_path / "logs" / (target.removeprefix(".build/") + ".log")
            commands = iter(run_recipe(graph.rules[target], str(path)))
            command = next(commands, None)
            if command is None:
                done.append((target, 0, None, started, time.monotonic()))
                continue
            log = _open_log(path)
            try:
                worker = idle.pop() if idle else Worker(env)
            except BaseException:
                log.close()
                raise
            send(worker, command, (target, commands, log, started))

    try:
        fill()
        while running or done:
            if not done:
                for key, _ in selector.select():
                    worker = key.data
                    selector.unregister(worker.proc.stdout)
                    status = worker.status()
                    target, commands, log, started = job = running.pop(worker)
                    # The next line goes to the worker that ran this one.
                    command = next(commands, None) if status == 0 else None
                    if command is not None:
                        send(worker, command, job)
                        continue
                    if worker.proc.returncode is None:
                        idle.append(worker)  # else it died; a later target gets a new one
                    done.append((target, status, log, started, time.monotonic()))
                continue
            target, status, log, started, finished = done.popleft()
            with log or contextlib.nullcontext():
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
                    _record(state, rule, prefix, tpath, mode, digests)
                    if on_event:
                        on_event({"event": "built", "target": target, "seconds": round(seconds, 4)})
                    continue
                if failure is None:
                    tail = _output_tail(log)
                    failure = FailedTarget(target, status, tail,
                                           "recipe" if status else "not-produced")
                if status != 0 and os.path.exists(tpath):
                    os.rename(tpath, tpath + ".failed")
                if on_event:
                    on_event({"event": "failed", "target": target, "status": status})
    finally:
        # Whatever leaves the loop, no worker outlives it: each ends once
        # its running line, if any, is done.
        for worker in [*idle, *running]:
            worker.close()
        selector.close()
        for _, _, log, _ in running.values():
            log.close()
        for _, _, log, _, _ in done:
            if log is not None:
                log.close()

    report.failed = failure
    if failure is not None:
        exc = (RecipeFailed(failure.target, failure.status, failure.output_tail)
               if failure.status else TargetNotProduced(failure.target))
        exc.report = report  # type: ignore[attr-defined]
        raise exc
    return report


def _record(state: BuildState, rule: Rule, prefix: str, tpath: str, mode: str,
            digests: dict[str, tuple[StatKey, str]]) -> None:
    """Record the target's digest and an entry per prerequisite (see
    `state.py`): its StatKey, one stat each, and in digest mode, where
    staleness reads it, its digest. A missing file's digest or entry is
    "". `digests` is the make's memo (see `_digest_or_empty`)."""
    key = _stat(tpath, stat_key)
    target_digest = "" if key is None else _digest_or_empty(tpath, key, state, digests)
    paths = tuple(prefix + p for p in rule.prerequisites)
    entries = []
    newest = 0
    for path in paths:
        key = _stat(path, stat_key)
        if key is None:
            entries.append("")
            continue
        newest = max(newest, key[3], key[4])
        entries.append(entry(key, _digest_or_empty(path, key, state, digests)
                             if mode == DIGEST else ""))
    state.put(TargetRecord(rule.target, int(time.time()), target_digest, tuple(entries)),
              paths, newest)


def _apply_group(path: str, gid: int) -> None:
    try:
        os.chown(path, -1, gid)
    except (PermissionError, OSError):
        pass
    mode = os.stat(path).st_mode
    os.chmod(path, mode | 0o060)  # group rw
