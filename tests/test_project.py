from __future__ import annotations

import grp
import os
import re
import stat
from pathlib import Path, PurePath
from unittest import mock

import pytest

from lineage_forge import parser, state
from lineage_forge.errors import (
    DslSyntaxError,
    LineageError,
    MissingSource,
    MissingStageMacroFile,
    UnknownGoal,
    VerificationFailed,
)
from lineage_forge.graph import Rule
from lineage_forge.parser import VERIFY_MANIFEST
from lineage_forge.project import (
    AGGREGATE_RELPATH,
    BIBLIOGRAPHY_RELPATH,
    LOCAL_CONFIG,
    LocalConfig,
    Project,
    clean,
    configure,
    run_make,
    run_record,
    _stages,
)
from lineage_forge.software import TARGETS_RELPATH
from lineage_forge.state import BuildState
from lineage_forge.verify import parse_manifest

from conftest import init_repo, run_cli


class TestProjectLoad:
    def test_demo_stage_order_and_goal(self, demo_project):
        project = Project.load(demo_project)
        assert project.stages == [
            "initialize", "download", "format", "demo-plot", "verify", "paper",
        ]
        assert project.goal == ".build/report.txt"
        assert project.stage_macro_files() == [
            ("initialize", "tex/initialize.tex"),
            ("download", "tex/download.tex"),
            ("format", "tex/format.tex"),
            ("demo-plot", "tex/demo-plot.tex"),
            ("verify", "tex/verify.tex"),
        ]

    def test_stages_follow_purepath_suffix_and_stem(self):
        names = ["top.wf", ".wf", "a.b.wf", "a.", "a..wf", "..wf", "...", "a", "a.wf.",
                 "x.conf", "d.wf/x", "d.wf/x.wf", "d/.wf", "d/a.b.wf", "d.x/y.z"]
        for entry in ["top.wf", "make/top.wf", ".wf", "top", "a."]:
            suffix = PurePath(entry).suffix
            expected = [PurePath(n).stem for n in names
                        if n != entry and PurePath(n).suffix == suffix]
            assert _stages(entry, names) == expected

    def test_input_specs_parsed(self, demo_project):
        project = Project.load(demo_project)
        [spec] = project.input_specs
        assert spec.filename == "demo-papers.csv"
        assert spec.algorithm == "md5"

    def test_goal_alias_must_have_one_prerequisite(self, tmp_path):
        root = tmp_path / "p"
        (root / "reproduce/analysis/make").mkdir(parents=True)
        (root / "reproduce/analysis/make/top.wf").write_text(
            "all: a b\n\na:\n\ttouch $@\n\nb:\n\ttouch $@\n", encoding="utf-8"
        )
        with pytest.raises(LineageError):
            Project.load(root)

    def test_stage_without_macro_target_rejected_at_make(self, demo_project):
        # strip the macro rule out of the format stage
        stage = demo_project / "reproduce/analysis/make/format.wf"
        text = stage.read_text()
        head = text.split("$(BDIR)/tex/format.tex:")[0]
        stage.write_text(head, encoding="utf-8")
        with pytest.raises(MissingStageMacroFile) as exc:
            run_make(demo_project)
        assert exc.value.stage == "format"

    def test_unknown_goal(self, demo_project):
        with pytest.raises(UnknownGoal):
            run_make(demo_project, goal="no/such/file")


class TestVerificationGate:
    def test_failure_prevents_final_goal_update(self, demo_project):
        run_make(demo_project)
        build = Path(os.readlink(demo_project / ".build"))
        aggregate = build / "tex" / "project.tex"
        before = aggregate.read_bytes()

        counts = build / "demo" / "papers-per-year.txt"
        raw = bytearray(counts.read_bytes())
        raw[0] ^= 0x01
        counts.write_bytes(bytes(raw))

        with pytest.raises(VerificationFailed) as exc:
            run_make(demo_project)
        assert exc.value.failing == ["demo/papers-per-year.txt"]
        # the aggregate (the engine's final deliverable) was not rewritten
        assert aggregate.read_bytes() == before

    def test_serial_verify_reruns_dag_once(self, demo_project):
        run_make(demo_project, jobs=4)
        # poison one pin so verification can never pass
        manifest = demo_project / VERIFY_MANIFEST
        entries = parse_manifest(manifest.read_text())
        lines = manifest.read_text().splitlines()
        lines[0] = lines[0].replace(entries[0].expected, "f" * 64)
        manifest.write_text("".join(l + "\n" for l in lines), encoding="utf-8")

        events: list[dict] = []
        with pytest.raises(VerificationFailed):
            run_make(demo_project, jobs=4, serial_verify=True, on_event=events.append)
        built = [e["target"] for e in events if e["event"] == "built"]
        # the serial retry re-executed the whole closure after the first
        # verification failure (nothing was stale before it)
        assert len(built) == 9
        verify_events = [e for e in events if e["event"] == "verify"]
        assert len(verify_events) == 2 * len(entries)


class TestDigestMode:
    def test_mtime_only_touch_rebuilds_nothing_under_hash(self, demo_project):
        run_make(demo_project, mode="digest")
        src = demo_project / "data/demo-papers.csv"
        os.utime(src, ns=(2_000_000_000_000_000_000, 2_000_000_000_000_000_000))
        conf = demo_project / "reproduce/analysis/config/demo-year.conf"
        os.utime(conf, ns=(2_000_000_000_000_000_000, 2_000_000_000_000_000_000))

        report = run_make(demo_project, mode="digest").report
        assert report.executed == []

        # while timestamp mode would consider the touched config stale
        report = run_make(demo_project, mode="timestamp").report
        assert ".build/tex/demo-plot.tex" in report.executed_targets()


class TestGroupMode:
    def test_group_writable_outputs(self, tmp_path):
        from lineage_forge.demo import create_demo_project

        root = tmp_path / "proj"
        create_demo_project(root)
        init_repo(root)
        group_name = grp.getgrgid(os.getgid()).gr_name
        build = tmp_path / "build"
        configure(root, build, input_dir="data", group=group_name)
        assert build.stat().st_mode & stat.S_ISGID
        run_make(root)
        mode = (build / "report.txt").stat().st_mode
        assert mode & stat.S_IWGRP and mode & stat.S_IRGRP


class TestBibliography:
    def test_bib_fragments_passed_through_verbatim(self, demo_project):
        build = Path(os.readlink(demo_project / ".build"))
        fragment = demo_project / "reproduce/software/bibtex/demo-toolkit.bib"
        for newline in (b"\n", b"\r\n"):
            fragment.write_bytes(fragment.read_bytes().replace(b"\n", newline))
            run_make(demo_project)
            bib = (build / "tex" / "software.bib").read_bytes()
            assert bib == fragment.read_bytes()  # only one fragment in the demo


def edit_demo_year(root: Path, year: int) -> None:
    conf = root / "reproduce/analysis/config/demo-year.conf"
    conf.write_text(re.sub(r"(?m)^demo-year = .*$", f"demo-year = {year}", conf.read_text()),
                    encoding="utf-8")


class TestAggregateWrittenOnChange:
    """`tex/project.tex` and `tex/software.bib` are replaced only when their
    bytes change, so their inode and mtime change only with their content."""

    @staticmethod
    def make(root: Path) -> tuple[list[dict], set[str]]:
        """A make's events, and which of the two files it replaced."""
        events, replaced = [], set()
        real = state.staged

        def spy(path):
            replaced.add(Path(path).name)
            return real(path)

        with mock.patch.object(state, "staged", spy):
            run_make(root, on_event=events.append)
        return events, replaced & {"project.tex", "software.bib"}

    @staticmethod
    def stamps(root: Path) -> list[tuple[int, int, int]]:
        build = Path(os.readlink(root / ".build"))
        stats = [(build / rel).stat() for rel in (AGGREGATE_RELPATH, BIBLIOGRAPHY_RELPATH)]
        return [(st.st_ino, st.st_mtime_ns, st.st_ctime_ns) for st in stats]

    def test_noop_makes_leave_both_files(self, demo_project):
        assert self.make(demo_project)[1] == {"project.tex", "software.bib"}
        before = self.stamps(demo_project)
        for _ in range(2):
            events, replaced = self.make(demo_project)
            assert replaced == set()
            assert [e["event"] for e in events].count("aggregate") == 1
        assert self.stamps(demo_project) == before

    def test_conf_edit_rewrites_project_tex(self, demo_project):
        run_make(demo_project)
        build = Path(os.readlink(demo_project / ".build"))
        old = (build / AGGREGATE_RELPATH).read_text()
        edit_demo_year(demo_project, 1997)
        assert self.make(demo_project)[1] == {"project.tex"}
        assert (build / AGGREGATE_RELPATH).read_text() != old

    def test_dirty_flip_rewrites_project_tex(self, demo_project):
        run_make(demo_project)
        build = Path(os.readlink(demo_project / ".build"))
        readme = demo_project / "README.md"
        text = readme.read_text()
        for content, dirty in [(text + "edited\n", True), (text, False)]:
            readme.write_text(content, encoding="utf-8")
            assert self.make(demo_project)[1] == {"project.tex"}
            assert ("-dirty}" in (build / AGGREGATE_RELPATH).read_text()) == dirty

    def test_group_mode_applied_when_the_write_is_skipped(self, tmp_path):
        from lineage_forge.demo import create_demo_project

        root = tmp_path / "proj"
        create_demo_project(root)
        init_repo(root)
        configure(root, tmp_path / "build", input_dir="data",
                  group=grp.getgrgid(os.getgid()).gr_name)
        run_make(root)
        out = tmp_path / "build" / AGGREGATE_RELPATH
        out.chmod(0o600)
        assert self.make(root)[1] == set()
        assert out.stat().st_mode & 0o060 == 0o060

    def test_unchanged_file_of_another_group_member_is_left_as_it_is(self, tmp_path):
        """In a shared build directory the unchanged `project.tex` may belong
        to another member: only its owner may chmod it, and a no-op make
        must not fail on that."""
        from lineage_forge.demo import create_demo_project

        root = tmp_path / "proj"
        create_demo_project(root)
        init_repo(root)
        configure(root, tmp_path / "build", input_dir="data",
                  group=grp.getgrgid(os.getgid()).gr_name)
        run_make(root)
        out = tmp_path / "build" / AGGREGATE_RELPATH
        real_chmod = os.chmod

        def not_the_owner(path, *args, **kwargs):
            if Path(path) == out:
                raise PermissionError(1, "Operation not permitted", str(path))
            return real_chmod(path, *args, **kwargs)

        for mode in (0o660, 0o600):  # group rw already, or not
            out.chmod(mode)
            with mock.patch("os.chmod", not_the_owner):
                assert self.make(root)[1] == set()
            assert stat.S_IMODE(out.stat().st_mode) == mode


class LazySpy:
    """Counts, with no timing, each recipe a cached rule decodes on first
    access (by target) and each parse of `build-state.tsv`."""

    def __init__(self):
        self.decoded: list[str] = []
        self.parses = 0
        self.workflows = 0

    def __enter__(self):
        real_recipe, real_parse, real_workflow = Rule.recipe, BuildState._parse, \
            parser.parse_workflow

        def recipe(rule):
            if type(rule._recipe) is str:  # not yet decoded
                self.decoded.append(rule.target)
            return real_recipe.fget(rule)

        def parse(state, *args):
            self.parses += 1
            return real_parse(state, *args)

        def workflow(*args):
            self.workflows += 1
            return real_workflow(*args)

        self.patches = [mock.patch.object(Rule, "recipe", property(recipe)),
                        mock.patch.object(BuildState, "_parse", parse),
                        mock.patch.object(parser, "parse_workflow", workflow)]
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self.patches:
            patch.stop()


class TestNoOpStaysLazy:
    def test_noop_decodes_no_recipe_and_parses_no_record(self, demo_project):
        run_make(demo_project)
        with LazySpy() as spy:
            assert run_make(demo_project).report.executed == []
            assert (spy.workflows, spy.decoded, spy.parses) == (0, [], 0)
            assert run_make(demo_project, mode="digest").report.executed == []
            assert (spy.workflows, spy.decoded, spy.parses) == (0, [], 1)

    def test_edit_decodes_exactly_the_stale_recipes(self, demo_project):
        run_make(demo_project)
        edit_demo_year(demo_project, 1997)
        with LazySpy() as spy:
            stale = run_make(demo_project).report.executed_targets()
        assert len(stale) == 3
        assert sorted(spy.decoded) == sorted(stale)


class TestUpstreamMacro:
    def test_upstream_commit_config_key(self, demo_project):
        conf = demo_project / "reproduce/analysis/config/demo-year.conf"
        conf.write_text(conf.read_text() + "upstream-commit = f00dfac\n",
                        encoding="utf-8")
        run_make(demo_project)
        build = Path(os.readlink(demo_project / ".build"))
        text = (build / "tex" / "project.tex").read_text()
        assert "\\newcommand{\\upstreamversion}{f00dfac}" in text


class TestDistWithoutGit:
    def test_fallback_walk_excludes_local_state(self, tmp_path):
        from lineage_forge.demo import create_demo_project
        from lineage_forge.project import make_dist
        import tarfile

        root = tmp_path / "proj"
        create_demo_project(root)
        configure(root, tmp_path / "build", input_dir="data")
        out = make_dist(root)
        assert "nogit" in out.name
        with tarfile.open(out) as tar:
            names = tar.getnames()
        assert not any(n.endswith(".local-config") for n in names)
        assert not any(".build" in n.split("/") for n in names)
        assert any(n.endswith("data/demo-papers.csv") for n in names)
        # second run is byte-identical and does not swallow the first tarball
        again = make_dist(root, tmp_path / "again.tar.gz")
        assert again.read_bytes() == out.read_bytes()


class TestErrors:
    def test_missing_source_is_generic_error(self, tmp_path):
        root = tmp_path / "p"
        (root / "reproduce/analysis/make").mkdir(parents=True)
        (root / "reproduce/analysis/make/top.wf").write_text(
            "all: $(BDIR)/out.txt\n\n$(BDIR)/out.txt: ghost.txt\n\tcp $< $@\n",
            encoding="utf-8",
        )
        configure(root, tmp_path / "bd")
        with pytest.raises(MissingSource):
            run_make(root)
        proc = run_cli(root, "make")
        assert proc.returncode == 1

    def test_clean_requires_configuration(self, demo_project_unconfigured):
        with pytest.raises(LineageError):
            clean(demo_project_unconfigured)

    def test_local_config_round_trip(self, tmp_path):
        root = tmp_path / "p"
        root.mkdir()
        config = LocalConfig(
            build_dir="/somewhere/build", input_dir="data", software_dir=None,
            group=None, jobs=4, tool_path="/usr/bin:/bin",
        )
        config.save(root)
        loaded = LocalConfig.load(root)
        assert loaded.build_dir == "/somewhere/build"
        assert loaded.input_dir == "data"
        assert loaded.jobs == 4
        assert loaded.tool_path == "/usr/bin:/bin"


def to_crlf(path: Path) -> None:
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


class TestCrlfConfigFiles:
    """The engine's own configuration files use LF, as its DSL files do:
    a CR is rejected, naming the file and line, not read past."""

    def test_local_config(self, demo_project):
        to_crlf(demo_project / LOCAL_CONFIG)
        with pytest.raises(DslSyntaxError) as info:
            run_make(demo_project, offline=True)
        assert str(info.value) == f"{LOCAL_CONFIG}:1: CR line ending (files must use LF)"

    def test_verify_manifest(self, demo_project):
        to_crlf(demo_project / VERIFY_MANIFEST)
        with pytest.raises(DslSyntaxError) as info:
            run_make(demo_project, offline=True)
        assert str(info.value) == f"{VERIFY_MANIFEST}:1: CR line ending (files must use LF)"

    def test_verify_manifest_when_recording(self, demo_project):
        to_crlf(demo_project / VERIFY_MANIFEST)
        with pytest.raises(DslSyntaxError) as info:
            run_record(demo_project)
        assert str(info.value) == f"{VERIFY_MANIFEST}:1: CR line ending (files must use LF)"

    def test_software_manifest(self, demo_project_unconfigured, tmp_path):
        root = demo_project_unconfigured
        to_crlf(root / TARGETS_RELPATH)
        with pytest.raises(DslSyntaxError) as info:
            configure(root, tmp_path / "build", input_dir="data")
        assert str(info.value) == f"{TARGETS_RELPATH}:1: CR line ending (files must use LF)"

    def test_cli_exit_1(self, demo_project):
        to_crlf(demo_project / LOCAL_CONFIG)
        proc = run_cli(demo_project, "make", "--offline")
        assert proc.returncode == 1
        assert f"{LOCAL_CONFIG}:1: CR line ending" in proc.stderr


class TestGitignore:
    """`configure` appends what the user's .gitignore lacks and leaves
    the rest of its bytes alone."""

    @pytest.mark.parametrize("before, after", [
        (b"*.o\r\nbuild/\r\n", b"*.o\r\nbuild/\r\n.local-config\r\n.build\r\n"),
        (b"*.o\nbuild/", b"*.o\nbuild/\n.local-config\n.build\n"),
        (b"*.o\r\n.build\r\n", b"*.o\r\n.build\r\n.local-config\r\n"),
    ], ids=["crlf", "no final newline", "one entry present"])
    def test_appends_in_the_files_own_line_ending(self, demo_project_unconfigured, tmp_path,
                                                  before, after):
        root = demo_project_unconfigured
        (root / ".gitignore").write_bytes(before)
        configure(root, tmp_path / "build", input_dir="data")
        assert (root / ".gitignore").read_bytes() == after
        configure(root, tmp_path / "build", input_dir="data")
        assert (root / ".gitignore").read_bytes() == after
