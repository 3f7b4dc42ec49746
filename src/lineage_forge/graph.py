"""Lineage data model and graph algorithms.

A project's lineage is an acyclic graph over file paths. Files with a
producing rule are `built` nodes, everything else referenced as a
prerequisite is a `source` node. The rules are the only stored relation.
`build_graph` sorts every node topologically once, breaking ties
lexicographically, and keeps the result as `LineageGraph.order`; closures,
plans, staleness and dependents are all read off `rules` and `order`, so
they are identical run-to-run. No traversal recurses, so chains have no
depth limit.
"""

from __future__ import annotations

import heapq
import posixpath
from dataclasses import FrozenInstanceError, dataclass, field

from .errors import (
    AbsolutePathRejected,
    CycleDetected,
    DuplicateTarget,
    UnknownGoal,
    UnknownNode,
)

SOURCE = "source"
BUILT = "built"


@dataclass(frozen=True)
class Origin:
    """Where a rule or parameter came from: file path plus 1-based line."""

    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


class Rule:
    """One lineage step: build `target` from `prerequisites` via `recipe`.

    Recipe lines are stored fully expanded. An empty recipe is a grouping
    rule; empty prerequisites with a recipe is a pure generator.

    Immutable, and equal, hashed and shown by its four fields, as a frozen
    dataclass is. A rule from the lineage cache (`cached_rules`) keeps its
    recipe as the record's text, a newline before each line, and its
    origin as (path, line); `recipe` and `origin` build the tuple and the
    Origin on first access and keep them, so a rule that never runs
    decodes neither.
    """

    __slots__ = ("target", "prerequisites", "_recipe", "_origin")

    def __init__(self, target: str, prerequisites: tuple[str, ...],
                 recipe: tuple[str, ...], origin: Origin) -> None:
        if not target:
            raise ValueError("rule target must be non-empty")
        if origin.line < 1:
            raise ValueError("origin line must be >= 1")
        _set_target(self, target)
        _set_prerequisites(self, prerequisites)
        _set_recipe(self, recipe)
        _set_origin(self, origin)

    @property
    def recipe(self) -> tuple[str, ...]:
        recipe = self._recipe
        if type(recipe) is str:
            recipe = tuple(recipe.split("\n")[1:])
            _set_recipe(self, recipe)
        return recipe

    @property
    def origin(self) -> Origin:
        origin = self._origin
        if type(origin) is tuple:
            origin = Origin(*origin)
            _set_origin(self, origin)
        return origin

    def _fields(self) -> tuple:
        return (self.target, self.prerequisites, self.recipe, self.origin)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"Rule(target={self.target!r}, prerequisites={self.prerequisites!r}, "
                f"recipe={self.recipe!r}, origin={self.origin!r})")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_new = object.__new__
_set_target, _set_prerequisites, _set_recipe, _set_origin = (
    getattr(Rule, name).__set__ for name in Rule.__slots__)


def cached_rules(targets: str, prerequisites: tuple[str, ...], recipes: list[str],
                 path: str, line: int) -> list[Rule]:
    """The rules of one lineage-cache template: one per space-separated
    target, each with its recipe text, a newline before every line.
    Raises unless `line` is at least 1 and there are as many targets as
    recipes, at least one; the caller has checked that every recipe is a
    string, so nothing is left to fail when a rule's fields are read."""
    if line < 1:
        raise ValueError("origin line must be >= 1")
    where = (path, line)
    rules = []
    for target, recipe in zip(str.split(targets), recipes, strict=True):
        rule = _new(Rule)
        _set_target(rule, target)
        _set_prerequisites(rule, prerequisites)
        _set_recipe(rule, recipe or ())  # an empty one needs no decoding
        _set_origin(rule, where)
        rules.append(rule)
    if not rules:
        raise ValueError("template without rules")
    return rules


def normalize_path(path: str, origin: Origin | str = "?") -> str:
    """Normalize a rule path relative to the project root.

    Absolute paths are rejected: projects must stay relocatable.
    """
    if posixpath.isabs(path):
        raise AbsolutePathRejected(path, str(origin))
    norm = posixpath.normpath(path)
    if norm.startswith(".."):
        raise AbsolutePathRejected(path, str(origin))
    return norm


@dataclass
class LineageGraph:
    """Acyclic file-dependency graph over rules and source files.

    `rules` is the one stored relation; `order` lists every node in the
    lexicographically least topological order and is computed once, in
    `build_graph`. Everything else (edges, closures, dependents) is
    derived from these two. Immutable after construction.
    """

    nodes: dict[str, str] = field(default_factory=dict)  # path -> SOURCE|BUILT
    rules: dict[str, Rule] = field(default_factory=dict)  # target -> Rule
    order: list[str] = field(default_factory=list)  # prerequisites first

    @property
    def edges(self) -> list[tuple[str, str]]:
        """(prerequisite, target) pairs, sorted and deduplicated."""
        return sorted({(p, t) for t, rule in self.rules.items() for p in rule.prerequisites})

    def kind(self, path: str) -> str:
        try:
            return self.nodes[path]
        except KeyError:
            raise UnknownNode(path) from None

    def sources(self) -> list[str]:
        return sorted(p for p, k in self.nodes.items() if k == SOURCE)

    def built(self) -> list[str]:
        return sorted(p for p, k in self.nodes.items() if k == BUILT)


def build_graph(rules: list[Rule]) -> LineageGraph:
    """Assemble and validate the lineage graph from parsed rules.

    Raises DuplicateTarget when two rules share a target and CycleDetected
    when the dependency relation is not acyclic.
    """
    by_target: dict[str, Rule] = {}
    for rule in rules:
        prior = by_target.get(rule.target)
        if prior is not None:
            raise DuplicateTarget(rule.target, str(prior.origin), str(rule.origin))
        by_target[rule.target] = rule

    nodes = dict.fromkeys(by_target, BUILT)
    for rule in rules:
        for prereq in rule.prerequisites:
            nodes.setdefault(prereq, SOURCE)
    nodes = dict(sorted(nodes.items()))

    # Kahn's algorithm, always emitting the smallest ready node.
    indegree = dict.fromkeys(nodes, 0)
    dependents: dict[str, list[str]] = {n: [] for n in nodes}
    for target, rule in by_target.items():
        for prereq in set(rule.prerequisites):
            indegree[target] += 1
            dependents[prereq].append(target)
    ready = [n for n, d in indegree.items() if d == 0]  # sorted, so a heap
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for dep in dependents[node]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                heapq.heappush(ready, dep)

    if len(order) < len(nodes):
        # Every left-over node waits on a left-over prerequisite, so
        # following them from any left-over node must revisit one.
        left = {n for n, d in indegree.items() if d > 0}
        path = [min(left)]
        seen = {path[0]: 0}
        while True:
            node = next(p for p in by_target[path[-1]].prerequisites if p in left)
            if node in seen:
                raise CycleDetected(path[seen[node]:] + [node])
            seen[node] = len(path)
            path.append(node)
    return LineageGraph(nodes=nodes, rules=by_target, order=order)


def ancestors(graph: LineageGraph, goal: str) -> set[str]:
    """Every node the goal transitively depends on, including the goal."""
    if goal not in graph.nodes:
        raise UnknownGoal(goal)
    seen: set[str] = set()
    todo = [goal]
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        rule = graph.rules.get(node)
        if rule:
            todo.extend(rule.prerequisites)
    return seen


def topological_order(graph: LineageGraph, goal: str) -> list[str]:
    """Dependency-respecting order over the goal's ancestor closure.

    Every prerequisite precedes its target; among the ready nodes the
    lexicographically smallest is emitted first, so the result is the
    lexicographically least valid order and is fully deterministic. It
    is `graph.order` restricted to the closure: no node of a closure
    waits on a node outside it.
    """
    closure = ancestors(graph, goal)
    return [n for n in graph.order if n in closure]


def descendants(graph: LineageGraph, node: str) -> set[str]:
    """Transitive closure of targets reachable from `node`, excluding it."""
    if node not in graph.nodes:
        raise UnknownNode(node)
    reached = {node}
    for target in graph.order:  # every prerequisite is swept before its targets
        rule = graph.rules.get(target)
        if rule and not reached.isdisjoint(rule.prerequisites):
            reached.add(target)
    reached.discard(node)
    return reached
