from __future__ import annotations

import logging
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineage_forge import parser as parser_module
from lineage_forge.errors import (
    AmbiguousDigest,
    DslSyntaxError,
    DuplicateInclude,
    ExpansionDepthExceeded,
    IncludeCycle,
    IncludeNotFound,
    InputError,
    LineageError,
    MalformedDigest,
    MissingDigest,
    MissingFilename,
    MissingURL,
    UndefinedVariable,
)
from lineage_forge.graph import Origin, Rule
from lineage_forge.parser import (
    ConfigParam,
    RuleTemplate,
    build_env,
    expand,
    flatten_statements,
    instantiate_rules,
    parse_config,
    parse_inputs_manifest,
    parse_workflow,
    serialize_config,
)
from lineage_forge.provenance import parse_macro_file
from lineage_forge.software import parse_targets
from lineage_forge.verify import parse_manifest
from oracles import reference_expand


class TestParseConfig:
    def test_simple_assignment(self):
        params = parse_config("demo-year = 1996\n", "demo-year.conf")
        assert [(p.key, p.value) for p in params] == [("demo-year", "1996")]
        assert params[0].origin == Origin("demo-year.conf", 1)

    def test_empty_text(self):
        assert parse_config("", "x.conf") == []

    def test_comments_and_blanks_ignored(self):
        assert parse_config("# note\n\n   # indented\n", "x.conf") == []

    def test_last_write_wins_with_logged_override(self, caplog):
        with caplog.at_level(logging.INFO, logger="lineage_forge.parser"):
            params = parse_config("# note\nX = 1\nX = 2\n", "x.conf")
        assert [(p.key, p.value) for p in params] == [("X", "2")]
        assert any("overrides" in r.message for r in caplog.records)

    def test_value_is_everything_after_equals_trimmed(self):
        params = parse_config("URL = https://example.org/a=b\n", "x.conf")
        assert params[0].value == "https://example.org/a=b"

    def test_line_without_equals_is_error(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_config("not an assignment\n", "x.conf")
        assert exc.value.line == 1

    def test_crlf_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_config("X = 1\r\n", "x.conf")

    @given(
        st.dictionaries(
            st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,8}", fullmatch=True),
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                max_size=12,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip(self, mapping):
        params = [
            ConfigParam(k, v, Origin("x.conf", i + 1))
            for i, (k, v) in enumerate(mapping.items())
        ]
        reparsed = parse_config(serialize_config(params), "x.conf")
        assert [(p.key, p.value) for p in reparsed] == [
            (p.key, p.value) for p in params
        ]


class TestParseWorkflow:
    def test_goal_rule(self):
        parsed = parse_workflow("all: paper.out\n", "top.wf")
        [rule] = parsed.rules
        assert rule.target_text == "all"
        assert rule.prereq_text == "paper.out"
        assert rule.recipe == ()

    def test_include_line(self):
        parsed = parse_workflow("include reproduce/analysis/config/*.conf\n", "top.wf")
        [inc] = parsed.includes
        assert inc.pattern == "reproduce/analysis/config/*.conf"
        assert not inc.optional

    def test_optional_include(self):
        parsed = parse_workflow("include extras/*.wf?\n", "top.wf")
        assert parsed.includes[0].optional
        assert parsed.includes[0].pattern == "extras/*.wf"

    def test_rule_with_recipe(self):
        parsed = parse_workflow("x:\n\techo hi > $@\n", "f.wf")
        [rule] = parsed.rules
        assert rule.recipe == ("echo hi > $@",)

    def test_multi_line_recipe_and_following_statement(self):
        text = "x: a\n\tfirst\n\tsecond\nY = 2\n"
        parsed = parse_workflow(text, "f.wf")
        assert parsed.rules[0].recipe == ("first", "second")
        assert parsed.assignments[0].key == "Y"

    def test_recipe_outside_rule_is_error(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_workflow("\techo lost\n", "f.wf")
        assert exc.value.line == 1

    def test_comment_between_rule_and_recipe_detaches_recipe(self):
        with pytest.raises(DslSyntaxError):
            parse_workflow("x: a\n# comment ends the rule\n\techo hi\n", "f.wf")

    def test_empty_target_is_error(self):
        with pytest.raises(DslSyntaxError):
            parse_workflow(": prereq\n", "f.wf")

    def test_unrecognized_statement(self):
        with pytest.raises(DslSyntaxError):
            parse_workflow("what is this\n", "f.wf")

    def test_assignment_recognized_before_rule(self):
        parsed = parse_workflow("U-URL = https://example.org/x\n", "f.wf")
        assert parsed.assignments[0].value == "https://example.org/x"
        assert parsed.rules == []


class TestResolveIncludes:
    def write(self, root: Path, rel: str, text: str) -> None:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def test_stage_files_load_in_listed_order(self, tmp_path):
        order = ["initialize", "download", "format", "demo-plot", "verify", "paper"]
        entry_lines = [f"include stages/{name}.wf" for name in order]
        self.write(tmp_path, "top.wf", "".join(l + "\n" for l in entry_lines))
        for name in order:
            self.write(tmp_path, f"stages/{name}.wf", f"{name}.out:\n\ttouch $@\n")
        files = flatten_statements("top.wf", tmp_path)[0]
        assert [f.path for f in files] == ["top.wf"] + [f"stages/{n}.wf" for n in order]

    def test_entry_without_includes(self, tmp_path):
        self.write(tmp_path, "top.wf", "x:\n\ttouch $@\n")
        files = flatten_statements("top.wf", tmp_path)[0]
        assert [f.path for f in files] == ["top.wf"]

    def test_include_cycle(self, tmp_path):
        self.write(tmp_path, "a.wf", "include b.wf\n")
        self.write(tmp_path, "b.wf", "include a.wf\n")
        with pytest.raises(IncludeCycle):
            flatten_statements("a.wf", tmp_path)

    def test_second_include_is_error_not_noop(self, tmp_path):
        self.write(tmp_path, "top.wf", "include sub.wf\ninclude sub.wf\n")
        self.write(tmp_path, "sub.wf", "x:\n\ttouch $@\n")
        with pytest.raises(DuplicateInclude):
            flatten_statements("top.wf", tmp_path)

    def test_zero_matches_is_error_unless_optional(self, tmp_path):
        self.write(tmp_path, "top.wf", "include missing/*.conf\n")
        with pytest.raises(IncludeNotFound):
            flatten_statements("top.wf", tmp_path)
        self.write(tmp_path, "top2.wf", "include missing/*.conf?\n")
        files = flatten_statements("top2.wf", tmp_path)[0]
        assert [f.path for f in files] == ["top2.wf"]

    def test_glob_matches_sorted(self, tmp_path):
        self.write(tmp_path, "top.wf", "include conf/*.conf\n")
        self.write(tmp_path, "conf/zz.conf", "Z = 1\n")
        self.write(tmp_path, "conf/aa.conf", "A = 1\n")
        files = flatten_statements("top.wf", tmp_path)[0]
        assert [f.path for f in files] == ["top.wf", "conf/aa.conf", "conf/zz.conf"]

    def test_verify_manifest_excluded_from_globs(self, tmp_path):
        self.write(tmp_path, "reproduce/analysis/make/top.wf",
                   "include reproduce/analysis/config/*.conf\n")
        self.write(tmp_path, "reproduce/analysis/config/a.conf", "A = 1\n")
        self.write(tmp_path, "reproduce/analysis/config/verify.conf",
                   "path\tsha256\tdeadbeef\tnone\n")
        files = flatten_statements("reproduce/analysis/make/top.wf", tmp_path)[0]
        assert [f.path for f in files] == [
            "reproduce/analysis/make/top.wf",
            "reproduce/analysis/config/a.conf",
        ]

    def test_deterministic_across_runs(self, tmp_path):
        self.write(tmp_path, "top.wf", "include conf/*.conf\nx: y\n\ttouch $@\n")
        self.write(tmp_path, "conf/a.conf", "A = 1\n")
        self.write(tmp_path, "conf/b.conf", "B = 2\n")
        first = [(f.path, f.parsed.items) for f in flatten_statements("top.wf", tmp_path)[0]]
        second = [(f.path, f.parsed.items) for f in flatten_statements("top.wf", tmp_path)[0]]
        assert first == second


def recipe_ctx(target="t", prereqs=("a", "b")) -> tuple[str, tuple[str, ...]]:
    """What a recipe's automatic variables name: its target and prerequisites."""
    return target, tuple(prereqs)


# Templates weighted toward the characters expansion reacts to; values
# drawn from the same pieces reference each other, cycles included.
EXPAND_NAMES = ["A", "B", "C", "1x", "a-b"]
EXPAND_TEMPLATES = st.lists(
    st.sampled_from(["$", "$", "$", "(", "(", ")", ")", "@", "<", "^", "$(A)", "$(B)",
                     "$(C)", "$(1x)", "$(a-b)", "$$", "a", " ", "-", "x"]),
    max_size=12,
).map("".join)


class TestExpand:
    def test_config_reference(self):
        assert expand("year=$(demo-year)", {"demo-year": "1996"}) == "year=1996"

    def test_dollar_dollar_escape(self):
        assert expand("$$HOME", {}) == "$HOME"

    def test_automatic_variables(self):
        rule = recipe_ctx()
        assert expand("cp $< $@", {}, rule) == "cp a t"
        assert expand("join $^", {}, rule) == "join a b"

    def test_first_prereq_of_none_is_empty(self):
        rule = recipe_ctx(prereqs=())
        assert expand("x $< y", {}, rule) == "x  y"

    def test_matches_reference_make_implementation(self, tmp_path):
        if shutil.which("make") is None:
            pytest.skip("make not available")
        (tmp_path / "Makefile").write_text(
            "t: a b\n\t@echo cp $< $@\n", encoding="utf-8"
        )
        (tmp_path / "a").touch()
        (tmp_path / "b").touch()
        proc = subprocess.run(
            ["make", "-s", "t"], cwd=tmp_path, stdout=subprocess.PIPE, text=True
        )
        assert proc.returncode == 0
        assert expand("cp $< $@", {}, recipe_ctx()) == proc.stdout.strip()

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariable):
            expand("$(nope)", {})

    def test_automatic_variable_outside_recipe_is_literal(self):
        # automatic variables are live only inside recipes
        assert expand("$@ $< $^", {}) == "$@ $< $^"

    def test_recursive_values(self):
        env = {"A": "$(B)/x", "B": "top"}
        assert expand("$(A)", env) == "top/x"

    def test_expansion_depth_limit(self):
        with pytest.raises(ExpansionDepthExceeded):
            expand("$(X)", {"X": "$(X)"})

    def test_unknown_escape_passes_through(self):
        assert expand("$HOME and 100$", {}) == "$HOME and 100$"

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_dollar_escape_round_trips(self, value):
        # Expansion is not idempotent ("$$" gives "$"), but escaping every
        # "$" as "$$" makes any text come out of one expansion unchanged.
        assert expand("$(V)", {"V": value.replace("$", "$$")}) == value

    @pytest.mark.parametrize("fn", [expand, reference_expand], ids=["expand", "reference"])
    @pytest.mark.parametrize("links, ok", [(15, True), (16, False), (17, False)])
    def test_depth_limit_on_a_chain_ending_without_dollar(self, fn, links, ok):
        # V0 -> V1 -> ... -> V<links> = "x": the last value sits at depth
        # links + 1 and holds no "$", so the depth check alone must fire.
        env = {f"V{i}": f"$(V{i + 1})" for i in range(links)}
        env[f"V{links}"] = "x"
        if ok:
            assert fn("$(V0)", env) == "x"
        else:
            with pytest.raises(ExpansionDepthExceeded):
                fn("$(V0)", env)

    @given(
        template=EXPAND_TEMPLATES,
        env=st.dictionaries(st.sampled_from(EXPAND_NAMES), EXPAND_TEMPLATES, max_size=4),
        rule_ctx=st.sampled_from([None, recipe_ctx(), recipe_ctx(prereqs=())]),
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_expander(self, template, env, rule_ctx):
        def outcome(fn):
            try:
                return fn(template, env, rule_ctx, "f.wf:1")
            except LineageError as exc:
                return type(exc), str(exc)

        assert outcome(expand) == outcome(reference_expand)


class TestInstantiateRules:
    def test_multi_target_line_yields_independent_rules(self):
        template = RuleTemplate("a b", "src", ("touch $@",), Origin("f.wf", 1))
        [rules] = instantiate_rules([template], {})
        assert [r.target for r in rules] == ["a", "b"]
        assert rules[0].recipe == ("touch a",)
        assert rules[1].recipe == ("touch b",)
        assert rules[0].prerequisites == ("src",)

    def test_variables_in_targets_and_recipes(self):
        template = RuleTemplate(
            "$(BDIR)/out.txt", "$(BDIR)/in.txt", ("cp $< $@",), Origin("f.wf", 3)
        )
        [[rule]] = instantiate_rules([template], {"BDIR": ".build"})
        assert rule.target == ".build/out.txt"
        assert rule.recipe == ("cp .build/in.txt .build/out.txt",)

    def test_one_list_per_template_in_order(self):
        templates = [RuleTemplate("x y", "", (), Origin("f.wf", 1)),
                     RuleTemplate("z", "x", (), Origin("f.wf", 2))]
        assert [[r.target for r in rules] for rules in instantiate_rules(templates, {})] \
            == [["x", "y"], ["z"]]

    def test_each_rule_is_built_once(self, monkeypatch):
        built = []

        class Counted(Rule):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(parser_module, "Rule", Counted)
        template = RuleTemplate("a b ./c", "p q", ("cp $< $@", "cat $^ > $@"), Origin("f.wf", 1))
        expanded = instantiate_rules([template], {})
        assert [r.target for r in built] == ["a", "b", "c"]
        assert expanded == [built]
        assert [r.recipe for r in built] == [(f"cp p {t}", f"cat p q > {t}") for t in "abc"]


class TestFlattenStatements:
    def test_assignment_after_include_overrides(self, tmp_path):
        (tmp_path / "sub.wf").write_text("X = from-sub\n", encoding="utf-8")
        (tmp_path / "top.wf").write_text(
            "X = before\ninclude sub.wf\nX = after\n", encoding="utf-8"
        )
        _, statements = flatten_statements("top.wf", tmp_path)
        env = build_env(statements)
        assert env["X"] == "after"

    def test_deep_include_chain_loads_in_order(self, tmp_path):
        chain = write_include_chain(tmp_path, 1100)
        files, statements = flatten_statements(chain[0], tmp_path)
        assert [f.path for f in files] == chain
        assert [s.value for s in statements] == [str(i) for i in range(1100)]

    def test_deep_include_cycle_names_the_whole_chain(self, tmp_path):
        chain = write_include_chain(tmp_path, 1100, close_cycle=True)
        with pytest.raises(IncludeCycle) as info:
            flatten_statements(chain[0], tmp_path)
        assert info.value.chain == chain + [chain[0]]


class TestCarriageReturnsInFiles:
    """Files are read without newline translation, so a CR in a file on
    disk is rejected as it is in text given to `parse_workflow`."""

    TOP = "reproduce/analysis/make/top.wf"
    CONF = "reproduce/analysis/config/year.conf"

    def project(self, root: Path) -> None:
        (root / "reproduce/analysis/make").mkdir(parents=True)
        (root / "reproduce/analysis/config").mkdir(parents=True)
        (root / self.TOP).write_bytes(
            b"all: out.txt\ninclude reproduce/analysis/config/*.conf\n"
            b"out.txt:\n\techo $(year) > $@\n")
        (root / self.CONF).write_bytes(b"year = 1996\n")

    @pytest.mark.parametrize("rel", [TOP, CONF])
    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_cr_line_endings_rejected_naming_file_and_line(self, tmp_path, rel, ending):
        from lineage_forge.project import Project

        self.project(tmp_path)
        path = tmp_path / rel
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        with pytest.raises(DslSyntaxError) as info:
            Project.load(tmp_path)
        assert (info.value.origin, info.value.line) == (rel, 1)
        assert "CR line ending" in str(info.value)

    def test_lf_files_load(self, tmp_path):
        from lineage_forge.project import Project

        self.project(tmp_path)
        assert Project.load(tmp_path).graph.rules["out.txt"].recipe == ("echo 1996 > out.txt",)


LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLinesSplitAtLfAlone:
    """`str.splitlines` also breaks at the characters in LINE_BREAKS; the
    parsers break at LF alone, as the lineage cache does when it reads a
    template's lines again."""

    def test_recipe_line_keeps_its_form_feed(self):
        [rule] = parse_workflow("t:\n\tprintf 'a\fb' > $@\n", "x.wf").rules
        assert rule.recipe == ("printf 'a\fb' > $@",)

    def test_config_value_keeps_a_line_separator(self):
        [param] = parse_config("k = a\u2028b\n", "x.conf")
        assert (param.value, param.origin.line) == ("a\u2028b", 1)

    @pytest.mark.parametrize("parse, bad", [
        (parse_workflow, "just some words"),
        (parse_config, "no equals sign"),
        (parse_manifest, "a\tb"),
        (parse_targets, "a\tb"),
        (parse_macro_file, "\\def\\x{1}"),
    ], ids=["workflow", "config", "manifest", "targets", "macros"])
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
    def test_error_line_counts_lf_only(self, parse, bad, brk):
        with pytest.raises(DslSyntaxError) as info:
            parse(f"{brk}\n{bad}\n", "x")
        assert info.value.line == 2


def write_include_chain(root: Path, n: int, close_cycle: bool = False) -> list[str]:
    """Files c0000.wf ... each setting N to its index and then including
    the next; the last one includes the first when `close_cycle`."""
    names = [f"c{i:04d}.wf" for i in range(n)]
    for i, name in enumerate(names):
        text = f"N = {i}\n"
        if i + 1 < n or close_cycle:
            text += f"include {names[(i + 1) % n]}\n"
        (root / name).write_text(text, encoding="utf-8")
    return names


# Curated invalid corpus: every construct the DSL rejects, with the line
# the error must point at.
INVALID_WORKFLOWS = [
    ("\techo orphan recipe\n", 1),
    ("x: a\n\tok\n\n\tdetached\n", 4),
    (": no-target\n", 1),
    ("just some words\n", 1),
    ("include\n", 1),
    ("include a.wf b.wf\n", 1),
    ("ok: a\nsecond line is broken here\n", 2),
    ("x: a\r\n\ttouch $@\n", 1),
]


class TestInvalidCorpus:
    @pytest.mark.parametrize("text,line", INVALID_WORKFLOWS)
    def test_rejected_with_line_accurate_error(self, text, line):
        with pytest.raises(DslSyntaxError) as exc:
            parse_workflow(text, "bad.wf")
        assert exc.value.line == line

    def test_demo_project_parses_clean(self, tmp_path):
        from lineage_forge.demo import create_demo_project
        from lineage_forge.project import Project

        root = create_demo_project(tmp_path / "demo")
        project = Project.load(root)
        assert len(project.graph.rules) == 9
        assert project.input_specs


def P(key: str, value: str) -> ConfigParam:
    return ConfigParam(key, value, Origin("INPUTS.conf", 1))


class TestParseInputsManifest:
    def test_single_input(self):
        specs = parse_inputs_manifest([
            P("M20DATA", "papers.xlsx"),
            P("M20DATA-MD5", "0" * 32),
            P("M20DATA-SIZE", "1.9MB"),
            P("M20DATA-URL", "https://example.org/papers.xlsx"),
        ])
        [spec] = specs
        assert spec.algorithm == "md5"
        assert spec.filename == "papers.xlsx"
        assert spec.size_hint == "1.9MB"

    def test_empty(self):
        assert parse_inputs_manifest([]) == []

    def test_two_digest_keys_rejected(self):
        with pytest.raises(AmbiguousDigest):
            parse_inputs_manifest([
                P("D", "f.dat"),
                P("D-MD5", "0" * 32),
                P("D-SHA512", "0" * 128),
                P("D-URL", "https://example.org/f.dat"),
            ])

    def test_missing_digest(self):
        with pytest.raises(MissingDigest):
            parse_inputs_manifest([P("D", "f.dat"), P("D-URL", "u")])

    def test_missing_url(self):
        with pytest.raises(MissingURL):
            parse_inputs_manifest([P("D", "f.dat"), P("D-MD5", "0" * 32)])

    def test_missing_filename(self):
        with pytest.raises(MissingFilename):
            parse_inputs_manifest([P("D-MD5", "0" * 32), P("D-URL", "u")])

    def test_malformed_digest_length(self):
        with pytest.raises(MalformedDigest):
            parse_inputs_manifest([
                P("D", "f.dat"), P("D-MD5", "abc"), P("D-URL", "u"),
            ])

    def test_digest_case_normalized(self):
        [spec] = parse_inputs_manifest([
            P("D", "f.dat"), P("D-SHA256", "A" * 64), P("D-URL", "u"),
        ])
        assert spec.digest == "a" * 64

    def test_filename_with_separator_rejected(self):
        with pytest.raises(InputError):
            parse_inputs_manifest([
                P("D", "sub/f.dat"), P("D-MD5", "0" * 32), P("D-URL", "u"),
            ])
