"""Independent brute-force oracles the engine is checked against.

Everything here is written straight from first principles (permutation
enumeration, naive recursion) and deliberately shares no code with the
engine's implementations.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from pathlib import Path

from lineage_forge.errors import ExpansionDepthExceeded, UndefinedVariable

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
MAX_EXPANSION_DEPTH = 16


def brute_force_topo_permutations(nodes: list[str], deps: dict[str, list[str]]) -> list[str]:
    """Lexicographically smallest valid order by trying every permutation.

    Only feasible for <= 8 nodes. `deps[t]` lists the prerequisites of t.
    """
    best = None
    for perm in itertools.permutations(sorted(nodes)):
        position = {node: i for i, node in enumerate(perm)}
        ok = True
        for target, prereqs in deps.items():
            if target not in position:
                continue
            for prereq in prereqs:
                if prereq in position and position[prereq] > position[target]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            candidate = list(perm)
            if best is None or candidate < best:
                best = candidate
    assert best is not None, "graph has no valid order (cycle?)"
    return best


def brute_force_topo_backtracking(nodes: list[str], deps: dict[str, list[str]]) -> list[str]:
    """Lexicographically smallest valid order via recursive backtracking.

    Handles the 12-node acceptance graphs where permutation enumeration
    is infeasible.
    """
    remaining = set(nodes)
    placed: list[str] = []

    def candidates() -> list[str]:
        out = []
        for node in sorted(remaining):
            prereqs = deps.get(node, [])
            if all(p not in remaining for p in prereqs if p in set(nodes)):
                out.append(node)
        return out

    def search() -> bool:
        if not remaining:
            return True
        for node in candidates():
            placed.append(node)
            remaining.discard(node)
            if search():
                return True
            remaining.add(node)
            placed.pop()
        return False

    assert search(), "graph has no valid order (cycle?)"
    return placed


def brute_force_reachable(start: str, deps: dict[str, list[str]]) -> set[str]:
    """Everything downstream of `start`: naive DFS over inverted deps."""
    children: dict[str, set[str]] = {}
    for target, prereqs in deps.items():
        for prereq in prereqs:
            children.setdefault(prereq, set()).add(target)

    seen: set[str] = set()

    def dfs(node: str) -> None:
        for child in children.get(node, ()):
            if child not in seen:
                seen.add(child)
                dfs(child)

    dfs(start)
    return seen


def brute_force_ancestor_closure(goal: str, deps: dict[str, list[str]]) -> set[str]:
    closure: set[str] = set()

    def up(node: str) -> None:
        if node in closure:
            return
        closure.add(node)
        for prereq in deps.get(node, ()):
            up(prereq)

    up(goal)
    return closure


def brute_force_stale_timestamp(
    goal: str,
    deps: dict[str, list[str]],
    built: set[str],
    root: Path,
) -> set[str]:
    """Direct recursive evaluation of the timestamp staleness recurrence:
    stale(t) = missing(t) or any prereq stale or any prereq newer."""

    def mtime(name: str):
        p = root / name
        return p.stat().st_mtime_ns if p.exists() else None

    def stale(target: str) -> bool:
        t = mtime(target)
        if t is None:
            return True
        for prereq in deps.get(target, ()):
            if prereq in built and stale(prereq):
                return True
            p = mtime(prereq)
            if p is not None and p > t:
                return True
        return False

    closure = brute_force_ancestor_closure(goal, deps)
    return {t for t in closure if t in built and stale(t)}


def brute_force_stale_digest(
    goal: str,
    deps: dict[str, list[str]],
    built: set[str],
    root: Path,
    recorded: dict[str, list[str]],
    digest_of,
) -> set[str]:
    """Digest-mode recurrence: stale(t) = missing(t), no record, any
    prereq stale, or any prereq digest differing from the record."""

    def stale(target: str) -> bool:
        if not (root / target).exists():
            return True
        for prereq in deps.get(target, ()):
            if prereq in built and stale(prereq):
                return True
        rec = recorded.get(target)
        prereqs = deps.get(target, [])
        if rec is None or len(rec) != len(prereqs):
            return True
        for prereq, expected in zip(prereqs, rec):
            if digest_of(root / prereq) != expected:
                return True
        return False

    closure = brute_force_ancestor_closure(goal, deps)
    return {t for t in closure if t in built and stale(t)}


def whole_file_filtered_digest(data: bytes, prefix: bytes | None, algorithm: str) -> str:
    """The metadata-filtered digest computed on the whole content at once:
    split into lines (LF, CR or CRLF) and drop every line whose first byte
    is `prefix` before hashing; with no prefix, hash the bytes as they are."""
    h = hashlib.new(algorithm)
    if prefix is None:
        h.update(data)
    else:
        for line in data.splitlines(keepends=True):
            if line[:1] != prefix:
                h.update(line)
    return h.hexdigest()


def reference_expand(
    template: str,
    env: dict[str, str],
    rule_ctx: tuple[str, tuple[str, ...]] | None = None,
    origin: str = "?",
    _depth: int = 0,
) -> str:
    """Expand `$(NAME)`, `$$` and (inside recipes, whose target and
    prerequisites `rule_ctx` holds) `$@`, `$<`, `$^`.

    Variable values are themselves expanded, up to 16 levels deep. This
    is the engine's original expander, one character at a time, kept as
    the reference `parser.expand` must agree with, errors included.
    """
    if _depth > MAX_EXPANSION_DEPTH:
        raise ExpansionDepthExceeded(template, MAX_EXPANSION_DEPTH)

    out: list[str] = []
    i = 0
    n = len(template)
    while i < n:
        ch = template[i]
        if ch != "$":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            out.append("$")
            break
        nxt = template[i + 1]
        if nxt == "$":
            out.append("$")
            i += 2
        elif nxt == "(":
            end = template.find(")", i + 2)
            if end == -1:
                raise UndefinedVariable(template[i:], origin)
            name = template[i + 2:end]
            if not IDENT_RE.fullmatch(name):
                raise UndefinedVariable(name, origin)
            if name not in env:
                raise UndefinedVariable(name, origin)
            out.append(reference_expand(env[name], env, rule_ctx, origin, _depth + 1))
            i = end + 1
        elif nxt in "@<^" and rule_ctx is not None:
            target, prereqs = rule_ctx
            if nxt == "@":
                out.append(target)
            elif nxt == "<":
                out.append(prereqs[0] if prereqs else "")
            else:
                out.append(" ".join(prereqs))
            i += 2
        else:
            # Unrecognized escape: pass the '$' through literally.
            out.append("$")
            i += 1
    return "".join(out)
