from __future__ import annotations

import os
import random
import signal
import subprocess
import tempfile
from pathlib import Path

import pytest

from lineage_forge import executor as executor_module
from lineage_forge.errors import (
    DslSyntaxError,
    MissingSource,
    RecipeFailed,
    ShellNotFound,
    TargetNotProduced,
    UsageError,
)
from lineage_forge.executor import (
    DIGEST,
    TIMESTAMP,
    EnvPolicy,
    Worker,
    execute,
    run_recipe,
    stale_set,
)
from lineage_forge.graph import Origin, Rule, ancestors, build_graph, descendants
from lineage_forge.state import STATE_RELPATH, BuildState, TargetRecord, file_digest

from oracles import brute_force_stale_digest, brute_force_stale_timestamp


def R(target: str, prereqs=(), recipe=None, line: int = 1) -> Rule:
    if recipe is None:
        if prereqs:
            recipe = (f"cat {' '.join(prereqs)} > {target}",)
        else:
            recipe = (f"echo {target} > {target}",)
    return Rule(target, tuple(prereqs), tuple(recipe), Origin("test.wf", line))


def policy(tmp_path: Path) -> EnvPolicy:
    return EnvPolicy(
        fixed={"PATH": os.environ["PATH"], "LC_ALL": "C", "HOME": str(tmp_path)},
        workdir=str(tmp_path),
    )


def write(root: Path, name: str, content: str = "data\n") -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def set_mtime(root: Path, name: str, ns: int) -> None:
    os.utime(root / name, ns=(ns, ns))


def drive(rule: Rule, worker: Worker) -> tuple[int, bytes]:
    """Send `run_recipe`'s commands to `worker` one at a time, waiting for
    each line and stopping at the first that fails; returns the last
    status (0 for no lines) and everything the lines wrote."""
    with tempfile.NamedTemporaryFile() as log:
        status = 0
        for command in run_recipe(rule, log.name):
            worker.send(command)
            status = worker.status()
            if status != 0:
                break
        log.seek(0)
        return status, log.read()


def run_lines(rule: Rule, env: EnvPolicy) -> tuple[int, str]:
    """`drive` in a worker of its own, output decoded."""
    worker = Worker(env)
    try:
        status, output = drive(rule, worker)
    finally:
        worker.close()
    return status, output.decode()


class TestRunRecipe:
    def test_sentinel_host_variable_is_scrubbed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOSTSENTINEL", "leaky")
        rule = R("out.txt", recipe=("printenv HOSTSENTINEL > out.txt || true",))
        status, _ = run_lines(rule, policy(tmp_path))
        assert status == 0
        assert (tmp_path / "out.txt").read_text() == ""

    def test_empty_recipe(self, tmp_path):
        rule = Rule("group", (), (), Origin("test.wf", 1))
        assert run_lines(rule, policy(tmp_path)) == (0, "")

    def test_first_failing_line_aborts(self, tmp_path):
        rule = R("t", recipe=("false", "touch t"))
        status, _ = run_lines(rule, policy(tmp_path))
        assert status != 0
        assert not (tmp_path / "t").exists()

    def test_fail_fast_within_one_line(self, tmp_path):
        rule = R("t", recipe=("false; touch t",))
        status, _ = run_lines(rule, policy(tmp_path))
        assert status != 0
        assert not (tmp_path / "t").exists()

    def test_output_captured(self, tmp_path):
        rule = R("t", recipe=("echo hello-out", "echo hello-err >&2", "touch t"))
        status, output = run_lines(rule, policy(tmp_path))
        assert status == 0
        assert "hello-out" in output and "hello-err" in output

    def test_shell_not_found(self, tmp_path):
        bad = EnvPolicy(fixed={}, workdir=str(tmp_path), shell="/no/such/shell")
        with pytest.raises(ShellNotFound):
            run_lines(R("t", recipe=("true",)), bad)

    def test_nul_byte_in_a_later_line_runs_no_line(self, tmp_path):
        rules = [R("t", recipe=("touch first", "echo a\0b"), line=4)]
        with pytest.raises(DslSyntaxError) as exc:
            execute(build_graph(rules), "t", 1, policy(tmp_path), BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")
        assert (exc.value.origin, exc.value.line) == ("test.wf", 6)
        assert not (tmp_path / "first").exists()


class TestStaleSet:
    def chain(self, tmp_path):
        # conf -> plot.tex -> verify.tex -> report
        rules = [
            R("plot.tex", ["counts.txt", "year.conf"]),
            R("verify.tex", ["plot.tex"]),
            R("report", ["verify.tex"]),
            R("counts.txt", ["data.csv"]),
        ]
        graph = build_graph(rules)
        base = 1_000_000_000_000_000_000
        for i, name in enumerate(["data.csv", "year.conf", "counts.txt",
                                  "plot.tex", "verify.tex", "report"]):
            write(tmp_path, name)
            set_mtime(tmp_path, name, base + i * 1_000_000_000)
        return graph, base

    def test_fresh_tree_nothing_stale(self, tmp_path):
        graph, _ = self.chain(tmp_path)
        assert stale_set(graph, "report", BuildState(), TIMESTAMP, tmp_path) == set()

    def test_touched_config_marks_exactly_descendants(self, tmp_path):
        graph, base = self.chain(tmp_path)
        set_mtime(tmp_path, "year.conf", base + 100 * 1_000_000_000)
        stale = stale_set(graph, "report", BuildState(), TIMESTAMP, tmp_path)
        expected = descendants(graph, "year.conf") & ancestors(graph, "report")
        assert stale == expected == {"plot.tex", "verify.tex", "report"}

    def test_missing_source_raises(self, tmp_path):
        graph, _ = self.chain(tmp_path)
        (tmp_path / "data.csv").unlink()
        with pytest.raises(MissingSource):
            stale_set(graph, "report", BuildState(), TIMESTAMP, tmp_path)

    def test_missing_target_is_stale(self, tmp_path):
        graph, _ = self.chain(tmp_path)
        (tmp_path / "plot.tex").unlink()
        stale = stale_set(graph, "report", BuildState(), TIMESTAMP, tmp_path)
        assert stale == {"plot.tex", "verify.tex", "report"}

    def test_built_node_under_a_regular_file_is_stale(self, tmp_path):
        graph = build_graph([R("gen/out.txt", ["src.txt"]), R("report", ["gen/out.txt"])])
        for name in ["src.txt", "gen", "report"]:
            write(tmp_path, name)  # `gen` is a file, so `gen/out.txt` is ENOTDIR
        assert stale_set(graph, "report", BuildState(), TIMESTAMP, tmp_path) == {
            "gen/out.txt", "report"}

    def test_source_under_a_regular_file_is_missing(self, tmp_path):
        graph = build_graph([R("report", ["data/in.csv"])])
        write(tmp_path, "data")
        with pytest.raises(MissingSource) as info:
            stale_set(graph, "report", BuildState(), TIMESTAMP, tmp_path)
        assert "data/in.csv" in str(info.value)

    @pytest.mark.parametrize("mode", [TIMESTAMP, DIGEST])
    def test_relative_root_matches_absolute_root(self, tmp_path, monkeypatch, mode):
        graph, base = self.chain(tmp_path)
        state = BuildState()
        for rule in graph.rules.values():
            state.put(TargetRecord(rule.target, 1, "x", tuple(
                file_digest(tmp_path / p) for p in rule.prerequisites)))
        write(tmp_path, "year.conf", "edited\n")
        set_mtime(tmp_path, "year.conf", base + 100 * 1_000_000_000)
        absolute = stale_set(graph, "report", state, mode, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert stale_set(graph, "report", state, mode, ".") == absolute == {
            "plot.tex", "verify.tex", "report"}

    def _random_dag(self, rng, n):
        names = [f"f{i:02d}" for i in range(n)]
        n_sources = max(1, n // 3)
        rules = []
        for i in range(n_sources, n):
            prereqs = rng.sample(names[:i], rng.randint(1, min(i, 3)))
            rules.append(R(names[i], prereqs))
        return names, rules

    def test_timestamp_mode_matches_oracle_on_random_dags(self, tmp_path):
        rng = random.Random(1996)
        for trial in range(30):
            root = tmp_path / f"t{trial}"
            root.mkdir()
            names, rules = self._random_dag(rng, rng.randint(4, 10))
            graph = build_graph(rules)
            built = set(graph.rules)
            base = 1_000_000_000_000_000_000
            for name in names:
                if name in built and rng.random() < 0.15:
                    continue  # missing target
                write(root, name)
                set_mtime(root, name, base + rng.randint(0, 50) * 1_000_000_000)
            for name in graph.sources():
                if not (root / name).exists():
                    write(root, name)
                    set_mtime(root, name, base)
            goal = names[-1]
            deps = {r.target: list(r.prerequisites) for r in rules}
            expected = brute_force_stale_timestamp(goal, deps, built, root)
            assert stale_set(graph, goal, BuildState(), TIMESTAMP, root) == expected

    def test_digest_mode_matches_oracle_on_random_dags(self, tmp_path):
        rng = random.Random(53)
        for trial in range(30):
            root = tmp_path / f"d{trial}"
            root.mkdir()
            names, rules = self._random_dag(rng, rng.randint(4, 10))
            graph = build_graph(rules)
            built = set(graph.rules)
            for name in names:
                if name in built and rng.random() < 0.15:
                    continue
                write(root, name, content=f"{name} v{rng.randint(0, 2)}\n")
            for name in graph.sources():
                if not (root / name).exists():
                    write(root, name)
            state = BuildState()
            recorded: dict[str, list[str]] = {}
            for rule in rules:
                choice = rng.random()
                if choice < 0.2:
                    continue  # never built
                digests = []
                for prereq in rule.prerequisites:
                    path = root / prereq
                    if path.exists() and choice < 0.8:
                        digests.append(file_digest(path))
                    else:
                        digests.append("0" * 64)  # stale or missing record
                recorded[rule.target] = digests
                state.put(TargetRecord(rule.target, 1, "x", tuple(digests)))
            goal = names[-1]
            deps = {r.target: list(r.prerequisites) for r in rules}
            expected = brute_force_stale_digest(
                goal, deps, built, root, recorded,
                lambda p: file_digest(p) if Path(p).exists() else None,
            )
            assert stale_set(graph, goal, state, DIGEST, root) == expected


class TestStatCount:
    """Each closure node is stat'd once per stale_set, however many rules
    share it: a guard against per-rule stats coming back."""

    def fan_in(self, tmp_path):
        rules = [R(f"use{i:03d}", ["shared.csv"]) for i in range(200)]
        rules.append(R("goal", [r.target for r in rules]))
        graph = build_graph(rules)
        state = BuildState()
        write(tmp_path, "shared.csv")
        for rule in rules:
            write(tmp_path, rule.target)
            state.put(TargetRecord(rule.target, 1, "x", tuple(
                file_digest(tmp_path / p) for p in rule.prerequisites)))
        for node in graph.nodes:
            set_mtime(tmp_path, node, 1_000_000_000_000_000_000)
        return graph, state

    @pytest.mark.parametrize("mode", [TIMESTAMP, DIGEST])
    def test_every_closure_node_stat_once(self, tmp_path, monkeypatch, mode):
        graph, state = self.fan_in(tmp_path)
        calls: list[str] = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            calls.append(os.path.relpath(path, tmp_path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        assert stale_set(graph, "goal", state, mode, tmp_path) == set()
        monkeypatch.undo()
        assert sorted(calls) == sorted(ancestors(graph, "goal"))


class TestDeepChain:
    def test_5000_rule_chain_stale_set_and_noop_execute(self, tmp_path):
        names = [f"n{i:05d}" for i in range(5001)]  # the goal sorts first
        graph = build_graph([R(names[i], [names[i + 1]]) for i in range(5000)])
        for node in graph.nodes:
            write(tmp_path, node)
            set_mtime(tmp_path, node, 1_000_000_000_000_000_000)
        assert stale_set(graph, "n00000", BuildState(), TIMESTAMP, tmp_path) == set()
        report = execute(graph, "n00000", 1, policy(tmp_path), BuildState(), root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert report.executed == []
        assert len(report.skipped_fresh) == 5000


class TestExecute:
    def diamond(self, tmp_path):
        rules = [
            R("left", ["src"]),
            R("right", ["src"]),
            R("goal", ["left", "right"]),
        ]
        write(tmp_path, "src", "payload\n")
        return build_graph(rules)

    def test_builds_everything_then_nothing(self, tmp_path):
        graph = self.diamond(tmp_path)
        state = BuildState()
        report = execute(graph, "goal", 1, policy(tmp_path), state, root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert sorted(report.executed_targets()) == ["goal", "left", "right"]
        again = execute(graph, "goal", 1, policy(tmp_path), state, root=tmp_path,
                        build_dir=tmp_path / "bd")
        assert again.executed == []
        assert sorted(again.skipped_fresh) == ["goal", "left", "right"]

    def test_idempotence_in_digest_mode(self, tmp_path):
        graph = self.diamond(tmp_path)
        state = BuildState()
        execute(graph, "goal", 2, policy(tmp_path), state, mode=DIGEST, root=tmp_path,
                build_dir=tmp_path / "bd")
        again = execute(graph, "goal", 2, policy(tmp_path), state, mode=DIGEST,
                        root=tmp_path, build_dir=tmp_path / "bd")
        assert again.executed == []

    def test_empty_stale_set_report(self, tmp_path):
        graph = self.diamond(tmp_path)
        state = BuildState()
        execute(graph, "goal", 1, policy(tmp_path), state, root=tmp_path, build_dir=tmp_path / "bd")
        report = execute(graph, "goal", 4, policy(tmp_path), state, root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert report.executed == [] and report.failed is None

    def test_recipe_failure_halts_descendants(self, tmp_path):
        rules = [
            R("bad", ["src"], recipe=("exit 3",)),
            R("after", ["bad"]),
        ]
        write(tmp_path, "src")
        graph = build_graph(rules)
        with pytest.raises(RecipeFailed) as exc:
            execute(graph, "after", 1, policy(tmp_path), BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")
        assert exc.value.status == 3
        assert exc.value.target == "bad"
        report = exc.value.report
        assert report.failed.target == "bad"
        assert "after" not in report.executed_targets()
        assert not (tmp_path / "after").exists()

    def test_failed_partial_target_renamed(self, tmp_path):
        rules = [R("part", ["src"], recipe=("echo partial > part", "exit 7"))]
        write(tmp_path, "src")
        graph = build_graph(rules)
        with pytest.raises(RecipeFailed):
            execute(graph, "part", 1, policy(tmp_path), BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")
        assert not (tmp_path / "part").exists()
        assert (tmp_path / "part.failed").read_text() == "partial\n"

    def test_target_not_produced(self, tmp_path):
        rules = [R("ghost", ["src"], recipe=("true",))]
        write(tmp_path, "src")
        graph = build_graph(rules)
        with pytest.raises(TargetNotProduced):
            execute(graph, "ghost", 1, policy(tmp_path), BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")

    def test_jobs_one_vs_eight_identical_outputs(self, tmp_path):
        def run(jobs: int, sub: str) -> dict[str, str]:
            root = tmp_path / sub
            root.mkdir()
            rules = [
                R("a", ["src"]),
                R("b", ["src"]),
                R("c", ["a", "b"]),
                R("d", ["a"]),
                R("goal", ["c", "d"]),
            ]
            write(root, "src", "fixed input\n")
            graph = build_graph(rules)
            execute(graph, "goal", jobs, policy(root), BuildState(), root=root,
                    build_dir=root / "bd")
            return {t: file_digest(root / t) for t in graph.rules}

        assert run(1, "serial") == run(8, "parallel")

    def test_parallel_soundness_timeline(self, tmp_path):
        rng = random.Random(8)
        names = [f"n{i:02d}" for i in range(10)]
        rules = []
        for i in range(1, 10):
            prereqs = rng.sample(names[:i], rng.randint(1, min(i, 3)))
            recipe = (f"sleep 0.01 && cat {' '.join(prereqs)} > {names[i]}",)
            rules.append(R(names[i], prereqs, recipe=recipe))
        graph = build_graph(rules)
        for jobs in (1, 2, 4, 8):
            root = tmp_path / f"j{jobs}"
            root.mkdir()
            write(root, names[0], "seed\n")
            state = BuildState()
            report = execute(graph, names[-1], jobs, policy(root), state, root=root,
                             build_dir=root / "bd")
            # every built node in the goal's closure was missing, so the
            # executed set must equal exactly that closure
            closure_built = {
                n for n in ancestors(graph, names[-1]) if n in graph.rules
            }
            assert set(report.executed_targets()) == closure_built
            finished = {e.target: e.finished for e in report.executed}
            started = {e.target: e.started for e in report.executed}
            for rule in rules:
                for prereq in rule.prerequisites:
                    if prereq in finished and rule.target in started:
                        assert started[rule.target] >= finished[prereq]

    def test_logs_written_per_target(self, tmp_path):
        build = tmp_path / "bd"
        rules = [R("noisy", ["src"], recipe=("echo captured-line", "touch noisy"))]
        write(tmp_path, "src")
        graph = build_graph(rules)
        execute(graph, "noisy", 1, policy(tmp_path), BuildState(), root=tmp_path,
                build_dir=build)
        assert (build / "logs" / "noisy.log").read_text() == "captured-line\n"

    def test_state_round_trip(self, tmp_path):
        graph = self.diamond(tmp_path)
        state = BuildState()
        execute(graph, "goal", 1, policy(tmp_path), state, mode=DIGEST, root=tmp_path,
                build_dir=tmp_path / "bd")
        state.save(tmp_path / "bd")
        loaded = BuildState.load(tmp_path / "bd")
        assert loaded.records.keys() == state.records.keys()
        for target, rec in state.records.items():
            assert loaded.records[target] == rec
        report = execute(graph, "goal", 1, policy(tmp_path), loaded, mode=DIGEST,
                         root=tmp_path, build_dir=tmp_path / "bd")
        assert report.executed == []

    def test_missing_prerequisite_recorded_empty_stays_stale_under_hash(self, tmp_path):
        # The recipe moves its prerequisite away, so `_record` finds it
        # missing: its digest is "", dropped on load, and the record is
        # one digest short, so `--hash` rebuilds the target every time.
        write(tmp_path, "src")
        graph = build_graph([R("mid", ["src"]), R("goal", ["mid"], ("cp mid goal", "mv mid away"))])
        state = BuildState()
        execute(graph, "goal", 1, policy(tmp_path), state, mode=DIGEST, root=tmp_path,
                build_dir=tmp_path / "bd")
        record = state.records["goal"]
        assert (record.target_digest, record.prereq_digests) == (
            file_digest(tmp_path / "goal"), ("",))
        state.save(tmp_path / "bd")
        loaded = BuildState.load(tmp_path / "bd")
        assert loaded.records["goal"].prereq_digests == ()
        (tmp_path / "away").rename(tmp_path / "mid")  # `mid` is fresh again
        for _ in range(2):
            report = execute(graph, "goal", 1, policy(tmp_path), loaded, mode=DIGEST,
                             root=tmp_path, build_dir=tmp_path / "bd")
            assert report.executed_targets() == ["goal"]
            (tmp_path / "away").rename(tmp_path / "mid")

    def test_state_saved_only_when_changed(self, tmp_path):
        graph = self.diamond(tmp_path)
        state = BuildState()
        execute(graph, "goal", 1, policy(tmp_path), state, mode=DIGEST, root=tmp_path,
                build_dir=tmp_path / "bd")
        state.save(tmp_path / "bd")
        state_file = tmp_path / "bd" / STATE_RELPATH
        unsorted = b"".join(reversed(state_file.read_bytes().splitlines(keepends=True)))
        state_file.write_bytes(unsorted)  # a save would sort it
        loaded = BuildState.load(tmp_path / "bd")
        report = execute(graph, "goal", 1, policy(tmp_path), loaded, mode=DIGEST,
                         root=tmp_path, build_dir=tmp_path / "bd")
        assert report.executed == []
        loaded.save(tmp_path / "bd")
        assert state_file.read_bytes() == unsorted

    def test_ancestors_computed_once(self, tmp_path, monkeypatch):
        graph = self.diamond(tmp_path)
        calls = []
        monkeypatch.setattr(executor_module, "ancestors",
                            lambda *args: calls.append(args) or ancestors(*args))
        report = execute(graph, "goal", 1, policy(tmp_path), BuildState(), root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert len(report.executed) == 3 and len(calls) == 1
        report = execute(graph, "goal", 1, policy(tmp_path), BuildState(), root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert report.skipped_fresh == ["goal", "left", "right"] and len(calls) == 2

    def test_jobs_must_be_positive(self, tmp_path):
        graph = self.diamond(tmp_path)
        with pytest.raises(UsageError):
            execute(graph, "goal", 0, policy(tmp_path), BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")

    def test_minimality_after_single_source_change(self, tmp_path):
        # touching exactly one source re-executes exactly its descendants
        # within the goal's closure, over random graphs
        rng = random.Random(427)
        for trial in range(12):
            root = tmp_path / f"m{trial}"
            root.mkdir()
            names = [f"n{i:02d}" for i in range(rng.randint(4, 9))]
            rules = []
            for i in range(1, len(names)):
                prereqs = rng.sample(names[:i], rng.randint(1, min(i, 3)))
                rules.append(R(names[i], prereqs))
            graph = build_graph(rules)
            write(root, names[0], "seed\n")
            goal = names[-1]
            state = BuildState()
            execute(graph, goal, 2, policy(root), state, root=root, build_dir=root / "bd")

            victim = rng.choice(sorted(ancestors(graph, goal)))
            time_base = (root / goal).stat().st_mtime_ns
            os.utime(root / victim, ns=(time_base + 10**9, time_base + 10**9))

            report = execute(graph, goal, 2, policy(root), state, root=root, build_dir=root / "bd")
            expected = descendants(graph, victim) & ancestors(graph, goal)
            assert set(report.executed_targets()) == expected


class TestWaitLoop:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_live_recipes_never_exceed_jobs(self, tmp_path, jobs):
        # Each recipe holds a marker directory under live/ while it runs and
        # records how many markers it sees. The first `jobs` targets (the
        # heap starts the smallest first) wait until `jobs` markers exist,
        # so the largest count seen is exactly `jobs` if the loop fills
        # every slot, and no count may exceed it.
        (tmp_path / "live").mkdir()
        names = [f"t{i:02d}" for i in range(3 * jobs + 1)]
        rules = []
        for i, name in enumerate(names):
            wait = (f"n=0; while [ $(ls live | wc -l) -lt {jobs} ] && [ $n -lt 1000 ]; "
                    "do sleep 0.01; n=$((n+1)); done; " if i < jobs else "sleep 0.02; ")
            rules.append(R(name, recipe=(
                f"mkdir live/{name}; {wait}ls live | wc -l > {name}; rmdir live/{name}",)))
        rules.append(R("goal", names))
        report = execute(build_graph(rules), "goal", jobs, policy(tmp_path), BuildState(),
                         root=tmp_path, build_dir=tmp_path / "bd")
        assert len(report.executed) == len(names) + 1
        counts = [int((tmp_path / name).read_text()) for name in names]
        assert max(counts) == jobs

    def test_non_utf8_output_is_logged_byte_for_byte(self, tmp_path):
        build = tmp_path / "bd"
        rules = [R("out", recipe=("printf '\\377\\r\\nok\\n'; echo hi > out",))]
        state = BuildState()
        report = execute(build_graph(rules), "out", 1, policy(tmp_path), state,
                         root=tmp_path, build_dir=build)
        assert report.executed_targets() == ["out"]
        assert (build / "logs" / "out.log").read_bytes() == b"\xff\r\nok\n"
        assert state.get("out") is not None

    def test_non_utf8_output_of_failing_recipe(self, tmp_path):
        rules = [R("out", recipe=("printf '\\377\\r\\nok\\n'; exit 3",))]
        with pytest.raises(RecipeFailed) as exc:
            execute(build_graph(rules), "out", 1, policy(tmp_path), BuildState(),
                    root=tmp_path, build_dir=tmp_path / "bd")
        assert exc.value.status == 3
        assert exc.value.output_tail == "\ufffd\r\nok\n"

    def test_output_tail_is_the_end_of_the_log(self, tmp_path):
        rules = [R("out", recipe=("printf 'x%.0s' $(seq 5000); printf '\\303\\251nd'; exit 1",))]
        with pytest.raises(RecipeFailed) as exc:
            execute(build_graph(rules), "out", 1, policy(tmp_path), BuildState(),
                    root=tmp_path, build_dir=tmp_path / "bd")
        assert exc.value.output_tail == "x" * 1997 + "\u00e9nd"

    def test_shell_not_found_mid_build_leaves_no_child(self, tmp_path):
        # At jobs 2 only "a" runs at first, in the one worker, and removes
        # the shell. Once it is done, "x" takes that worker and "y" needs a
        # second one, whose start fails while "x" still runs.
        shell = tmp_path / "sh"
        shell.symlink_to("/bin/sh")
        env = EnvPolicy(fixed={"PATH": os.environ["PATH"]}, workdir=str(tmp_path),
                        shell=str(shell))
        rules = [
            R("a", recipe=("echo $$ > a.pid; rm sh; touch a",)),
            R("x", ["a"], recipe=("echo $$ > x.pid; sleep 0.3; touch x",)),
            R("y", ["a"], recipe=("touch y",)),
            R("goal", ["x", "y"]),
        ]
        with pytest.raises(ShellNotFound):
            execute(build_graph(rules), "goal", 2, env, BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")
        assert (tmp_path / "x").exists() and not (tmp_path / "y").exists()
        [pid] = {int((tmp_path / name).read_text()) for name in ("a.pid", "x.pid")}
        with pytest.raises(ProcessLookupError):  # reaped, not a zombie
            os.kill(pid, 0)


def reference(lines: tuple[str, ...], env: EnvPolicy) -> tuple[int, bytes]:
    """What a fresh `sh -e -c` per line gives, the way recipes once ran:
    the last status and everything the lines wrote."""
    with tempfile.TemporaryFile() as log:
        status = 0
        for line in lines:
            status = subprocess.run([env.shell, "-e", "-c", line], cwd=env.workdir,
                                    env=env.environment(), stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT).returncode
            if status != 0:
                break
        log.seek(0)
        return status, log.read()


# Shell state a line could leak to the next: working directory, umask,
# a variable and an exported one.
DISTURB = "cd /; umask 077; X=1; export Y=2; "
PROBE = R("probe", recipe=('echo "$(pwd) $(umask) ${X-unset} ${Y-unset}"',))


class TestWorkerSemantics:
    @pytest.mark.parametrize("lines", [
        ("exit 3",),
        ("exec true",),
        ("false; touch t",),
        ("set +e; false; echo x",),
        ("trap 'echo bye' EXIT",),
        ("printf '\\377\\r\\nok\\n'",),
        ("echo one", "echo two; false", "echo three"),
        ("true", 'echo "$(pwd) $(umask) ${X-unset} ${Y-unset}"'),
    ])
    def test_line_matches_a_fresh_shell(self, tmp_path, lines):
        env = policy(tmp_path)
        lines = (DISTURB + lines[0],) + lines[1:]
        expected = reference(lines, env)
        worker = Worker(env)
        try:
            assert drive(R("t", recipe=lines), worker) == expected
            # The next line in the same worker sees none of it.
            assert drive(PROBE, worker) == reference(PROBE.recipe, env)
        finally:
            worker.close()
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("line", ["if", "echo 'unbalanced", ")", "( exit 4"])
    def test_syntax_error_stays_in_its_line(self, tmp_path, line):
        env = policy(tmp_path)
        worker = Worker(env)
        try:
            status, _ = drive(R("t", recipe=(line,)), worker)
            assert status == 2  # the message's shape differs, gaining "eval: "
            assert drive(PROBE, worker) == reference(PROBE.recipe, env)
        finally:
            worker.close()

    def test_stdin_is_empty(self, tmp_path):
        rule = R("t", recipe=("timeout 10 cat; echo read-all", "touch t"))
        assert run_lines(rule, policy(tmp_path)) == (0, "read-all\n")

    def test_worker_killed_while_idle_fails_its_next_line(self, tmp_path):
        worker = Worker(policy(tmp_path))
        try:
            os.kill(worker.proc.pid, signal.SIGTERM)
            assert drive(R("t", recipe=("touch t",)), worker) == (-15, b"")
        finally:
            worker.close()
        assert not (tmp_path / "t").exists()

    def test_nul_byte_is_refused(self, tmp_path):
        # A shell reading the line would drop the byte; the line is refused,
        # as starting `sh -c <line>` refused it.
        rules = [R("n", recipe=("touch n; echo a\0b",))]
        with pytest.raises(DslSyntaxError, match="^test.wf:2: NUL byte in recipe line$"):
            execute(build_graph(rules), "n", 1, policy(tmp_path), BuildState(), root=tmp_path,
                    build_dir=tmp_path / "bd")
        assert not (tmp_path / "n").exists()

    def test_killing_the_worker_fails_the_target(self, tmp_path):
        rules = [R("k", recipe=("test -e once || { touch once; kill -TERM $$; }",
                                "touch k"))]
        graph = build_graph(rules)
        state = BuildState()
        with pytest.raises(RecipeFailed) as exc:
            execute(graph, "k", 1, policy(tmp_path), state, root=tmp_path,
                    build_dir=tmp_path / "bd")
        assert exc.value.status == -15
        report = execute(graph, "k", 1, policy(tmp_path), state, root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert report.executed_targets() == ["k"]


class TestSpawnCount:
    @pytest.fixture
    def spawned(self, monkeypatch):
        calls = []
        real = subprocess.Popen

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module.subprocess, "Popen", spy)
        return calls

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_at_most_one_shell_per_slot(self, tmp_path, spawned, jobs):
        write(tmp_path, "src")
        rules = [R(f"t{i:02d}", ["src"], recipe=(f"echo {i} > t{i:02d}", "true"))
                 for i in range(29)]
        rules.append(R("goal", [r.target for r in rules]))
        graph = build_graph(rules)
        state = BuildState()
        report = execute(graph, "goal", jobs, policy(tmp_path), state, root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert len(report.executed) == 30
        assert 1 <= len(spawned) <= jobs
        spawned.clear()
        report = execute(graph, "goal", jobs, policy(tmp_path), state, root=tmp_path,
                         build_dir=tmp_path / "bd")
        assert report.executed == [] and spawned == []
