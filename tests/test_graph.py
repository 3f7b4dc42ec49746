from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineage_forge.errors import CycleDetected, DuplicateTarget, UnknownGoal, UnknownNode
from lineage_forge.graph import (
    BUILT,
    SOURCE,
    Origin,
    Rule,
    ancestors,
    build_graph,
    descendants,
    normalize_path,
    topological_order,
)

from oracles import (
    brute_force_reachable,
    brute_force_topo_backtracking,
    brute_force_topo_permutations,
)


def R(target: str, prereqs=(), recipe=("run",), line: int = 1) -> Rule:
    return Rule(target, tuple(prereqs), tuple(recipe), Origin("test.wf", line))


def deps_of(rules) -> dict[str, list[str]]:
    return {r.target: list(r.prerequisites) for r in rules}


class TestBuildGraph:
    def test_empty(self):
        graph = build_graph([])
        assert graph.nodes == {}
        assert graph.edges == []

    def test_source_and_built_tagging(self):
        rules = [
            R("out/table.dat", ["input2.dat"]),
            R("tex/format.tex", ["out/table.dat"]),
        ]
        graph = build_graph(rules)
        assert graph.nodes["input2.dat"] == SOURCE
        assert graph.nodes["out/table.dat"] == BUILT
        assert graph.nodes["tex/format.tex"] == BUILT
        assert len(graph.edges) == 2

    def test_minimal_cycle_rejected(self):
        with pytest.raises(CycleDetected) as exc:
            build_graph([R("a", ["b"]), R("b", ["a"])])
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_self_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_graph([R("a", ["a"])])

    def test_duplicate_target_rejected(self):
        with pytest.raises(DuplicateTarget) as exc:
            build_graph([R("t", line=1), R("t", line=9)])
        assert exc.value.target == "t"
        assert "test.wf:1" in str(exc.value) and "test.wf:9" in str(exc.value)

    def test_node_ordering_deterministic(self):
        rules = [R("z", ["m"]), R("a", ["m"])]
        graph = build_graph(rules)
        assert list(graph.nodes) == sorted(graph.nodes)

    def test_absolute_path_rejected(self):
        from lineage_forge.errors import AbsolutePathRejected

        with pytest.raises(AbsolutePathRejected):
            normalize_path("/etc/passwd")
        with pytest.raises(AbsolutePathRejected):
            normalize_path("../outside")


class TestTopologicalOrder:
    def test_single_source_node_goal(self):
        graph = build_graph([R("t", ["s"])])
        assert topological_order(graph, "s") == ["s"]

    def test_unknown_goal(self):
        graph = build_graph([R("t", ["s"])])
        with pytest.raises(UnknownGoal):
            topological_order(graph, "nope")

    def test_stage_chain_verify_precedes_report(self):
        # Shape of the demo pipeline: per-stage macro files funnel through
        # the verify bottleneck before the final report.
        rules = [
            R("tex/initialize.tex"),
            R("data/papers.csv", ["inputs/papers.csv"]),
            R("tex/download.tex", ["data/papers.csv"]),
            R("data/formatted.txt", ["data/papers.csv"]),
            R("tex/format.tex", ["data/formatted.txt"]),
            R("tex/demo-plot.tex", ["data/formatted.txt", "conf/year.conf"]),
            R("tex/verify.tex", ["tex/initialize.tex", "tex/download.tex",
                                 "tex/format.tex", "tex/demo-plot.tex"]),
            R("report.txt", ["tex/verify.tex"]),
        ]
        graph = build_graph(rules)
        order = topological_order(graph, "report.txt")
        assert order.index("tex/verify.tex") < order.index("report.txt")
        for stage_tex in ("tex/initialize.tex", "tex/download.tex",
                          "tex/format.tex", "tex/demo-plot.tex"):
            assert order.index(stage_tex) < order.index("tex/verify.tex")

    def test_only_ancestor_closure_returned(self):
        graph = build_graph([R("t", ["s"]), R("unrelated", ["other"])])
        order = topological_order(graph, "t")
        assert set(order) == {"s", "t"}

    def test_matches_permutation_oracle_on_random_8_node_dags(self):
        rng = random.Random(20210104)
        for _ in range(25):
            n = rng.randint(2, 8)
            names = [f"n{i:02d}" for i in range(n)]
            rng.shuffle(names)
            rules = []
            for i in range(1, n):
                k = rng.randint(0, min(i, 3))
                prereqs = rng.sample(names[:i], k)
                rules.append(R(names[i], prereqs))
            graph = build_graph(rules)
            goal = names[-1]
            closure = ancestors(graph, goal)
            expected = brute_force_topo_permutations(
                sorted(closure), deps_of(rules)
            )
            assert topological_order(graph, goal) == expected

    def test_matches_backtracking_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(8, 12)
            names = [f"n{i:02d}" for i in range(n)]
            rules = [R(names[i], rng.sample(names[:i], rng.randint(0, min(i, 4))))
                     for i in range(1, n)]
            graph = build_graph(rules)
            goal = names[-1]
            closure = sorted(ancestors(graph, goal))
            deps = {t: p for t, p in deps_of(rules).items() if t in closure}
            assert topological_order(graph, goal) == brute_force_topo_backtracking(
                closure, deps
            )


class TestDescendants:
    def test_leaf_output_empty(self):
        graph = build_graph([R("report", ["tex/verify.tex"])])
        assert descendants(graph, "report") == set()

    def test_unknown_node(self):
        graph = build_graph([R("t", ["s"])])
        with pytest.raises(UnknownNode):
            descendants(graph, "missing")

    def test_config_file_descendants(self):
        rules = [
            R("tex/demo-plot.tex", ["counts.txt", "conf/year.conf"]),
            R("tex/verify.tex", ["tex/demo-plot.tex"]),
            R("report.txt", ["tex/verify.tex"]),
            R("counts.txt", ["formatted.txt"]),
        ]
        graph = build_graph(rules)
        assert descendants(graph, "conf/year.conf") == {
            "tex/demo-plot.tex", "tex/verify.tex", "report.txt",
        }

    def test_matches_dfs_oracle_on_6_node_graph(self):
        rules = [
            R("b", ["a"]),
            R("c", ["a", "b"]),
            R("d", ["c"]),
            R("e", ["x"]),
            R("f", ["d", "e"]),
        ]
        graph = build_graph(rules)
        deps = deps_of(rules)
        for node in graph.nodes:
            assert descendants(graph, node) == brute_force_reachable(node, deps)


# --- hypothesis strategies -------------------------------------------------

@st.composite
def random_dag_rules(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    names = [f"f{i:02d}" for i in range(n)]
    rules = []
    for i in range(n):
        # prerequisites only from earlier names keeps the input acyclic
        k = draw(st.integers(min_value=0, max_value=min(i, 3)))
        prereqs = draw(
            st.lists(st.sampled_from(names[:i]) if i else st.nothing(),
                     min_size=k, max_size=k, unique=True)
        ) if i else []
        rules.append(R(names[i], prereqs))
    return rules


class TestProperties:
    @given(random_dag_rules())
    @settings(max_examples=60, deadline=None)
    def test_accepted_graphs_are_acyclic(self, rules):
        graph = build_graph(rules)
        # no node may reach itself
        for node in graph.nodes:
            assert node not in descendants(graph, node)

    @given(random_dag_rules())
    @settings(max_examples=60, deadline=None)
    def test_single_producer(self, rules):
        graph = build_graph(rules)
        for built_node in graph.built():
            producers = [r for r in rules if r.target == built_node]
            assert len(producers) == 1

    @given(random_dag_rules())
    @settings(max_examples=60, deadline=None)
    def test_topo_is_edge_respecting_permutation_of_closure(self, rules):
        graph = build_graph(rules)
        goal = rules[-1].target
        order = topological_order(graph, goal)
        closure = ancestors(graph, goal)
        assert sorted(order) == sorted(closure)
        position = {node: i for i, node in enumerate(order)}
        for prereq, target in graph.edges:
            if prereq in position and target in position:
                assert position[prereq] < position[target]

    @given(random_dag_rules())
    @settings(max_examples=60, deadline=None)
    def test_descendants_disjoint_from_ancestors(self, rules):
        graph = build_graph(rules)
        for node in graph.nodes:
            assert descendants(graph, node) & ancestors(graph, node) == set()

    @given(random_dag_rules(), st.integers(min_value=0, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_inputs_always_rejected(self, rules, idx):
        if not rules:
            return
        # Reverse one rule into a back-edge to force a cycle when possible.
        victim = rules[idx % len(rules)]
        if not victim.prerequisites:
            return
        back = R(victim.prerequisites[0], [victim.target], line=99)
        if any(r.target == back.target for r in rules):
            rules = [r for r in rules if r.target != back.target]
        rules = rules + [back]
        with pytest.raises(CycleDetected) as exc:
            build_graph(rules)
        # The reported path is a real cycle, prerequisite by prerequisite.
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        deps = deps_of(rules)
        for a, b in zip(cycle, cycle[1:]):
            assert b in deps[a]


class TestDeepGraphs:
    def test_deep_chain_has_no_depth_limit(self):
        names = [f"n{i:05d}" for i in range(5001)]  # the goal sorts first
        graph = build_graph([R(names[i], [names[i + 1]]) for i in range(5000)])
        assert topological_order(graph, names[0]) == names[::-1]
        assert descendants(graph, names[-1]) == set(names[:-1])

    def test_deep_cycle_reported_whole(self):
        names = [f"c{i:05d}" for i in range(5000)]
        rules = [R(names[i], [names[(i + 1) % 5000]]) for i in range(5000)]
        with pytest.raises(CycleDetected) as exc:
            build_graph(rules)
        assert exc.value.cycle == names + [names[0]]
