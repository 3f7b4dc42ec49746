from __future__ import annotations

import array
import json
import re
from pathlib import Path

import pytest

from lineage_forge import provenance
from lineage_forge.errors import DslSyntaxError, DuplicateMacro, MissingStageMacroFile
from lineage_forge.graph import Origin, Rule, build_graph
from lineage_forge.provenance import (
    GitState,
    MacroDefinition,
    acknowledgment_text,
    aggregate_macros,
    builtin_macros,
    export_graph,
    git_state,
    machine_info,
    parse_macro_file,
)
from lineage_forge.software import SoftwareEntry

from conftest import git, init_repo


class TestParseMacroFile:
    def test_single_definition(self):
        [macro] = parse_macro_file("\\newcommand{\\plotsnthreshold}{0.25}")
        assert macro.name == "plotsnthreshold"
        assert macro.value == "0.25"

    def test_empty_text(self):
        assert parse_macro_file("") == []

    def test_large_integer_value(self):
        [macro] = parse_macro_file("\\newcommand{\\totalrowcount}{1308507}")
        assert macro.value == "1308507"

    def test_non_macro_line_is_error(self):
        with pytest.raises(DslSyntaxError):
            parse_macro_file("\\def\\x{1}")

    def test_duplicate_macro(self):
        text = "\\newcommand{\\x}{1}\n\\newcommand{\\x}{2}\n"
        with pytest.raises(DuplicateMacro):
            parse_macro_file(text)

    def test_name_must_be_letters_only(self):
        with pytest.raises(DslSyntaxError):
            parse_macro_file("\\newcommand{\\bad2name}{1}")

    def test_definition_type_rejects_bad_names(self):
        with pytest.raises(ValueError):
            MacroDefinition("", "v")
        with pytest.raises(ValueError):
            MacroDefinition("with space", "v")
        with pytest.raises(ValueError):
            MacroDefinition("ok", "line1\nline2")


class TestAggregateMacros:
    def write_stage(self, tmp_path: Path, stage: str, body: str) -> tuple[str, Path]:
        path = tmp_path / f"{stage}.tex"
        path.write_text(body, encoding="utf-8")
        return stage, path

    def test_builtins_first_then_stages_in_order(self, tmp_path):
        stages = [
            self.write_stage(tmp_path, "format", "\\newcommand{\\rows}{427}\n"),
            self.write_stage(tmp_path, "plot", "\\newcommand{\\yearcount}{47}\n"),
        ]
        builtins = [MacroDefinition("projectversion", "abc1234")]
        text = aggregate_macros(stages, builtins)
        names = re.findall(r"\\newcommand\{\\([A-Za-z]+)\}", text)
        assert names == ["projectversion", "rows", "yearcount"]
        assert text.endswith("\n")

    def test_zero_stages_builtins_only(self):
        builtins = [MacroDefinition("projectversion", "abc1234")]
        assert aggregate_macros([], builtins) == "\\newcommand{\\projectversion}{abc1234}\n"

    def test_duplicate_across_stage_files(self, tmp_path):
        stages = [
            self.write_stage(tmp_path, "one", "\\newcommand{\\same}{1}\n"),
            self.write_stage(tmp_path, "two", "\\newcommand{\\same}{2}\n"),
        ]
        with pytest.raises(DuplicateMacro):
            aggregate_macros(stages, [])

    def test_missing_stage_file(self, tmp_path):
        with pytest.raises(MissingStageMacroFile):
            aggregate_macros([("ghost", tmp_path / "ghost.tex")], [])

    def test_byte_deterministic(self, tmp_path):
        stages = [self.write_stage(tmp_path, "s", "\\newcommand{\\v}{9}\n")]
        builtins = [MacroDefinition("projectversion", "abc1234")]
        assert aggregate_macros(stages, builtins) == aggregate_macros(stages, builtins)


class TestGitState:
    def test_clean_repo(self, tmp_path):
        (tmp_path / "f.txt").write_text("x\n", encoding="utf-8")
        init_repo(tmp_path)
        state = git_state(tmp_path)
        assert state is not None
        expected_short = git(tmp_path, "rev-parse", "--short", "HEAD")
        assert state.short == expected_short
        assert state.full.startswith(state.short)
        assert not state.dirty
        assert state.version == expected_short

    def test_dirty_after_tracked_edit(self, tmp_path):
        (tmp_path / "f.txt").write_text("x\n", encoding="utf-8")
        init_repo(tmp_path)
        (tmp_path / "f.txt").write_text("edited\n", encoding="utf-8")
        state = git_state(tmp_path)
        assert state.dirty
        assert state.version.endswith("-dirty")

    def test_untracked_files_do_not_count_as_dirty(self, tmp_path):
        (tmp_path / "f.txt").write_text("x\n", encoding="utf-8")
        init_repo(tmp_path)
        (tmp_path / "new-untracked.txt").write_text("y\n", encoding="utf-8")
        assert not git_state(tmp_path).dirty

    def test_repo_without_commits_returns_none(self, tmp_path):
        (tmp_path / "f.txt").write_text("x\n", encoding="utf-8")
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", "-A")
        assert git_state(tmp_path) is None

    def test_one_git_process(self, tmp_path, monkeypatch):
        (tmp_path / "f.txt").write_text("x\n", encoding="utf-8")
        init_repo(tmp_path)
        (tmp_path / "f.txt").write_text("edited\n", encoding="utf-8")
        calls = []
        run = provenance.subprocess.run
        monkeypatch.setattr(provenance.subprocess, "run",
                            lambda *args, **kwargs: calls.append(args) or run(*args, **kwargs))
        assert git_state(tmp_path).dirty
        assert len(calls) == 1

    def test_non_repo_returns_none(self, tmp_path):
        assert git_state(tmp_path) is None
        builtins = builtin_macros(None, machine_info(), "")
        assert builtins[0] == MacroDefinition("projectversion", "no-git")


class TestMachineInfo:
    def test_architecture_populated(self):
        import platform

        info = machine_info("1.2.3")
        assert info.architecture == (platform.machine() or "unknown")
        assert info.engine_version == "1.2.3"

    def test_byte_order_matches_independent_probe(self):
        # independent probe: write a 32-bit int through the array module
        first_byte = array.array("I", [0x01020304]).tobytes()[0]
        expected = "little" if first_byte == 0x04 else "big"
        assert machine_info().byte_order == expected

    def test_address_sizes_string(self):
        info = machine_info()
        assert isinstance(info.address_sizes, str) and info.address_sizes


class TestBuiltinMacros:
    def test_projectversion_and_machine_macros_present(self):
        state = GitState("a" * 40, "a" * 7, dirty=False)
        macros = builtin_macros(state, machine_info(), "tool 1.0")
        names = [m.name for m in macros]
        assert names == [
            "projectversion", "machinearchitecture", "machinebyteorder",
            "machineaddresssizes", "projectsoftware",
        ]

    def test_upstream_commit_macro_when_configured(self):
        state = GitState("a" * 40, "a" * 7, dirty=True)
        macros = builtin_macros(state, machine_info(), "", upstream_commit="b1b966a")
        assert MacroDefinition("upstreamversion", "b1b966a") in macros
        assert macros[0].value.endswith("-dirty")


DOT_NODE = re.compile(r'^  "[^"]+" \[shape=box, style=filled, fillcolor="[a-z]+"\];$')
DOT_EDGE = re.compile(r'^  "[^"]+" -> "[^"]+";$')


def check_dot_grammar(text: str) -> None:
    lines = text.splitlines()
    assert lines[0] == "digraph lineage {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert (
            line == "  rankdir=LR;" or DOT_NODE.match(line) or DOT_EDGE.match(line)
        ), f"unexpected DOT line: {line!r}"


class TestExportGraph:
    def demo_graph(self):
        rules = [
            Rule("counts.txt", ("formatted.txt",), ("x",), Origin("f.wf", 1)),
            Rule("plot.tex", ("counts.txt", "year.conf"), ("x",), Origin("g.wf", 2)),
        ]
        return build_graph(rules)

    def test_dot_styles_sources_and_built_differently(self):
        text = export_graph(self.demo_graph(), "dot")
        check_dot_grammar(text)
        assert '"year.conf" [shape=box, style=filled, fillcolor="palegreen"];' in text
        assert '"plot.tex" [shape=box, style=filled, fillcolor="lightblue"];' in text
        assert '"counts.txt" -> "plot.tex";' in text

    def test_empty_graph_valid_documents(self):
        empty = build_graph([])
        check_dot_grammar(export_graph(empty, "dot"))
        doc = json.loads(export_graph(empty, "json"))
        assert doc == {"nodes": [], "edges": [], "rules": []}

    def test_json_round_trips_counts(self):
        graph = self.demo_graph()
        doc = json.loads(export_graph(graph, "json"))
        assert len(doc["nodes"]) == len(graph.nodes)
        assert len(doc["edges"]) == len(graph.edges)
        assert len(doc["rules"]) == len(graph.rules)
        assert {(e["from"], e["to"]) for e in doc["edges"]} == set(graph.edges)

    def test_deterministic_output(self):
        graph = self.demo_graph()
        assert export_graph(graph, "dot") == export_graph(graph, "dot")
        assert export_graph(graph, "json") == export_graph(graph, "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_graph(self.demo_graph(), "yaml")


class TestAcknowledgmentText:
    def entry(self, name, version, keys=()):
        return SoftwareEntry(name, version, f"{name}.tar.gz", "0" * 128, tuple(keys))

    def test_sorted_name_version_join(self):
        text, keys = acknowledgment_text([
            self.entry("GNU Make", "4.3", ["make2020"]),
            self.entry("Git", "2.28.0"),
        ])
        assert text == "Git 2.28.0, GNU Make 4.3"
        assert keys == ["make2020"]

    def test_empty(self):
        assert acknowledgment_text([]) == ("", [])

    def test_duplicates_collapse(self):
        text, keys = acknowledgment_text([
            self.entry("tool", "1.0", ["t1"]),
            self.entry("tool", "1.0", ["t1"]),
        ])
        assert text == "tool 1.0"
        assert keys == ["t1"]
