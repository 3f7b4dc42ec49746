from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

NO_SUCH_GROUP = "lineage-forge-no-such-group"


def tiny_project(tmp_path: Path, recipe: str = "cp src.txt $@") -> Path:
    """Minimal project with one rule, defined straight in the entry file."""
    root = tmp_path / "tiny"
    (root / "reproduce/analysis/make").mkdir(parents=True)
    (root / "reproduce/analysis/config").mkdir(parents=True)
    (root / "reproduce/analysis/make/top.wf").write_text(
        "all: $(BDIR)/out.txt\n"
        "\n"
        "$(BDIR)/out.txt: src.txt\n"
        f"\t{recipe}\n",
        encoding="utf-8",
    )
    (root / "src.txt").write_text("payload\n", encoding="utf-8")
    return root


class TestConfigure:
    def test_creates_link_dirs_and_ignore_file(self, tmp_path):
        root = tiny_project(tmp_path)
        build = tmp_path / "bd"
        proc = run_cli(root, "configure", "--build-dir", str(build))
        assert proc.returncode == 0, proc.stderr
        assert (root / ".build").is_symlink()
        assert os.readlink(root / ".build") == str(build)
        for sub in ("inputs", "logs", "state", "tex"):
            assert (build / sub).is_dir()
        ignored = (root / ".gitignore").read_text().splitlines()
        assert ".local-config" in ignored and ".build" in ignored

    def test_rerun_is_idempotent(self, tmp_path):
        root = tiny_project(tmp_path)
        build = str(tmp_path / "bd")
        assert run_cli(root, "configure", "--build-dir", build).returncode == 0
        again = run_cli(root, "configure", "--build-dir", build)
        assert again.returncode == 0

    def test_unwritable_build_dir_names_path(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("running as root; directory modes are not enforced")
        root = tiny_project(tmp_path)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        proc = run_cli(root, "configure", "--build-dir", str(locked / "bd"))
        assert proc.returncode == 1
        assert "locked" in proc.stderr

    def test_build_dir_under_a_regular_file_names_path(self, tmp_path):
        # Unlike directory modes, this holds for root as well.
        root = tiny_project(tmp_path)
        blocker = tmp_path / "plain-file"
        blocker.write_text("", encoding="utf-8")
        proc = run_cli(root, "configure", "--build-dir", str(blocker / "bd"))
        assert proc.returncode == 1
        assert str(blocker / "bd") in proc.stderr

    def test_missing_build_dir_non_interactive(self, tmp_path):
        root = tiny_project(tmp_path)
        proc = run_cli(root, "configure")
        assert proc.returncode == 64

    def test_unknown_group_fails_before_creating_anything(self, tmp_path):
        root = tiny_project(tmp_path)
        build = tmp_path / "bd"
        proc = run_cli(root, "configure", "--build-dir", str(build), "--group", NO_SUCH_GROUP)
        assert proc.returncode == 1
        assert NO_SUCH_GROUP in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (root / ".build").is_symlink()
        assert not build.exists()
        assert not (root / ".local-config").exists()

    def test_zero_jobs_is_usage_error_and_not_recorded(self, tmp_path):
        root = tiny_project(tmp_path)
        proc = run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"), "--jobs", "0")
        assert proc.returncode == 64
        assert not (root / ".local-config").exists()


class TestMake:
    def test_happy_path_builds_goal(self, tmp_path):
        root = tiny_project(tmp_path)
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        proc = run_cli(root, "make")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bd" / "out.txt").read_text() == "payload\n"
        assert (tmp_path / "bd" / "tex" / "project.tex").exists()
        assert "[built] .build/out.txt" in proc.stdout

    def test_unconfigured_project_exit_1(self, tmp_path):
        root = tiny_project(tmp_path)
        proc = run_cli(root, "make")
        assert proc.returncode == 1
        assert "configure" in proc.stderr

    def test_crlf_entry_file_exit_1_naming_file_and_line(self, tmp_path):
        root = tiny_project(tmp_path)
        top = root / "reproduce/analysis/make/top.wf"
        top.write_bytes(top.read_bytes().replace(b"\n", b"\r\n"))
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        proc = run_cli(root, "make")
        assert proc.returncode == 1
        assert "reproduce/analysis/make/top.wf:1: CR line ending" in proc.stderr
        assert not (tmp_path / "bd" / "out.txt").exists()

    @pytest.mark.parametrize("jobs", ["two", "0"])
    def test_malformed_jobs_in_local_config_exit_1(self, tmp_path, jobs):
        root = tiny_project(tmp_path)
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        config = root / ".local-config"
        lines = [l for l in config.read_text().splitlines() if not l.startswith("jobs")]
        config.write_text("\n".join(lines + [f"jobs = {jobs}"]) + "\n")
        proc = run_cli(root, "make")
        assert proc.returncode == 1
        assert ".local-config" in proc.stderr and repr(jobs) in proc.stderr

    def test_zero_jobs_exits_64_before_resolving_inputs(self, demo_project):
        proc = run_cli(demo_project, "make", "--offline", "--jobs", "0", "--log-json")
        assert proc.returncode == 64
        assert "jobs must be >= 1" in proc.stderr
        assert proc.stdout == ""  # no input event, nor any other
        build = demo_project / ".build"
        assert list((build / "inputs").iterdir()) == list((build / "state").iterdir()) == []

    def test_recorded_group_since_deleted_exit_1(self, tmp_path):
        root = tiny_project(tmp_path)
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        with open(root / ".local-config", "a") as fh:
            fh.write(f"group = {NO_SUCH_GROUP}\n")
        proc = run_cli(root, "make")
        assert proc.returncode == 1
        assert NO_SUCH_GROUP in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_offline_make_loads_no_network_stack(self, demo_project):
        code = (
            "import sys\n"
            "from lineage_forge.cli import main\n"
            "status = main(['-C', sys.argv[1], 'make', '--offline'])\n"
            "print([m for m in ('ssl', 'urllib.request', 'tarfile') if m in sys.modules])\n"
            "sys.exit(status)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(demo_project)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_engine_value_error_is_not_a_usage_error(self, tmp_path):
        # Only UsageError maps to 64; any other ValueError is an internal
        # fault and ends the process with a traceback and exit 1.
        code = (
            "import sys\n"
            "from lineage_forge import cli\n"
            "def run_make(*args, **kwargs):\n"
            "    raise ValueError('engine fault')\n"
            "cli.run_make = run_make\n"
            "sys.exit(cli.main(['-C', sys.argv[1], 'make']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "ValueError: engine fault" in proc.stderr

    def test_recipe_failure_exit_2(self, tmp_path):
        root = tiny_project(tmp_path, recipe="exit 3")
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        proc = run_cli(root, "make")
        assert proc.returncode == 2

    def test_non_utf8_recipe_output_is_logged_and_recorded(self, tmp_path):
        root = tiny_project(tmp_path, recipe="printf '\\377\\r\\nok\\n'; echo hi > $@")
        build = tmp_path / "bd"
        run_cli(root, "configure", "--build-dir", str(build))
        proc = run_cli(root, "make")
        assert proc.returncode == 0, proc.stderr
        assert (build / "logs" / "out.txt.log").read_bytes() == b"\xff\r\nok\n"
        proc = run_cli(root, "make", "--hash")  # the target was recorded
        assert proc.returncode == 0, proc.stderr
        assert "[built]" not in proc.stdout

    def test_non_utf8_output_of_failing_recipe_exit_2(self, tmp_path):
        root = tiny_project(tmp_path, recipe="printf '\\377\\r\\nok\\n'; exit 3")
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        proc = run_cli(root, "make")
        assert proc.returncode == 2
        assert "\ufffd" in proc.stderr and "Traceback" not in proc.stderr

    def test_second_line_failure_log_status_and_events(self, tmp_path):
        root = tiny_project(tmp_path, recipe="echo first; echo partial > $@\n"
                                             "\tprintf 'second\\n' >&2; exit 5")
        build = tmp_path / "bd"
        run_cli(root, "configure", "--build-dir", str(build))
        proc = run_cli(root, "make", "--log-json")
        assert proc.returncode == 2
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            {"event": "failed", "status": 5, "target": ".build/out.txt"}]
        assert (build / "logs" / "out.txt.log").read_bytes() == b"first\nsecond\n"
        assert not (build / "out.txt").exists()
        assert (build / "out.txt.failed").read_text() == "partial\n"

    @pytest.mark.parametrize("damage", ["truncate", "bad-epoch"])
    def test_malformed_state_line_is_skipped(self, tmp_path, damage):
        root = tiny_project(tmp_path)
        run_cli(root, "configure", "--build-dir", str(tmp_path / "bd"))
        assert run_cli(root, "make").returncode == 0
        state_file = tmp_path / "bd" / "state" / "build-state.tsv"
        data = state_file.read_bytes()
        if damage == "truncate":  # a write cut off just before the epoch
            state_file.write_bytes(data[: data.index(b"\t") + 1])
        else:
            target, _, rest = data.decode().split("\t", 2)
            state_file.write_text(f"{target}\tabc\t{rest}")
        damaged = state_file.read_bytes()
        # A timestamp no-op reads no record, so it neither reports nor
        # drops the line.
        proc = run_cli(root, "make")
        assert proc.returncode == 0, proc.stderr
        assert "build-state.tsv" not in proc.stderr
        assert state_file.read_bytes() == damaged
        # The first make that reads the records reports the line, and its
        # target, with no record, is rebuilt.
        proc = run_cli(root, "make", "--hash")
        assert proc.returncode == 0, proc.stderr
        assert "state/build-state.tsv:1" in proc.stderr
        assert "[built] .build/out.txt" in proc.stdout

    @pytest.mark.parametrize("mode", [[], ["--hash"]])
    def test_unwritable_store_only_warns(self, demo_project, tmp_path, mode):
        state_dir = tmp_path / "build" / "state"
        state_dir.rmdir()
        state_dir.write_bytes(b"")  # a regular file: nothing can be made in it
        proc = run_cli(demo_project, "make", "--offline", *mode)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        store = state_dir / "build-state.tsv"
        assert [line for line in proc.stderr.splitlines() if str(store) in line] == \
            [f"{store}: could not write the build state: [Errno 17] File exists: '{state_dir}'"]
        assert (tmp_path / "build" / "tex" / "project.tex").is_file()

    def test_unwritable_store_keeps_the_recipe_failure_exit_2(self, demo_project, tmp_path):
        # The stages before the bottleneck are built and recorded, then
        # its recipe fails.
        with open(demo_project / "reproduce/analysis/make/verify.wf", "a") as wf:
            wf.write("\texit 3\n")
        state_dir = tmp_path / "build" / "state"
        state_dir.rmdir()
        state_dir.write_bytes(b"")
        proc = run_cli(demo_project, "make", "--offline")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"{state_dir / 'build-state.tsv'}: could not write the build state" in proc.stderr

    def test_explicit_goal(self, demo_project):
        proc = run_cli(demo_project, "make", "--goal", ".build/demo/papers-formatted.txt",
                       "--log-json")
        assert proc.returncode == 0, proc.stderr
        built = [json.loads(l)["target"] for l in proc.stdout.splitlines()
                 if json.loads(l).get("event") == "built"]
        assert ".build/demo/papers-formatted.txt" in built
        assert ".build/report.txt" not in built

    def test_log_json_stream_is_parseable(self, demo_project):
        proc = run_cli(demo_project, "make", "--log-json")
        assert proc.returncode == 0, proc.stderr
        events = [json.loads(line) for line in proc.stdout.splitlines()]
        kinds = {e["event"] for e in events}
        assert {"input", "built", "verify", "aggregate"} <= kinds


class TestGraph:
    def test_json_counts_match_demo_structure(self, demo_project):
        proc = run_cli(demo_project, "graph", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        node_paths = {n["path"] for n in doc["nodes"]}
        # config files + input + stage targets + stage macro files + goal
        assert "reproduce/analysis/config/demo-year.conf" in node_paths
        assert ".build/inputs/demo-papers.csv" in node_paths
        assert ".build/tex/demo-plot.tex" in node_paths
        assert ".build/report.txt" in node_paths
        kinds = {n["path"]: n["kind"] for n in doc["nodes"]}
        assert kinds["reproduce/analysis/config/demo-year.conf"] == "source"
        assert kinds[".build/report.txt"] == "built"
        assert len(doc["rules"]) == 9

    def test_dot_output(self, demo_project):
        from test_provenance import check_dot_grammar

        proc = run_cli(demo_project, "graph", "--format", "dot")
        assert proc.returncode == 0
        check_dot_grammar(proc.stdout)

    def test_unknown_format_usage_error(self, demo_project):
        proc = run_cli(demo_project, "graph", "--format", "yaml")
        assert proc.returncode == 64

    def test_out_file(self, demo_project, tmp_path):
        out = tmp_path / "lineage.json"
        proc = run_cli(demo_project, "graph", "--format", "json", "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["nodes"]

    def test_out_file_in_a_missing_directory(self, demo_project, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "lineage.dot"
        proc = run_cli(demo_project, "graph", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("digraph")

    def test_works_without_configure(self, demo_project_unconfigured):
        proc = run_cli(demo_project_unconfigured, "graph", "--format", "json")
        assert proc.returncode == 0

    def test_deep_include_chain(self, tmp_path):
        # top.wf starts a chain of 1,100 nested includes, each adding a rule.
        root = tmp_path / "deep"
        (root / "reproduce/analysis/make").mkdir(parents=True)
        (root / "chain").mkdir()
        (root / "reproduce/analysis/make/top.wf").write_text("include chain/c0.wf\n")
        for i in range(1100):
            text = f"$(BDIR)/t{i}: src.txt\n\ttouch $@\n"
            if i + 1 < 1100:
                text += f"include chain/c{i + 1}.wf\n"
            (root / "chain" / f"c{i}.wf").write_text(text)
        proc = run_cli(root, "graph", "--format", "json")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert len(json.loads(proc.stdout)["rules"]) == 1100


class TestVerifyCommand:
    def test_verify_passes_after_make(self, demo_project):
        assert run_cli(demo_project, "make").returncode == 0
        proc = run_cli(demo_project, "verify")
        assert proc.returncode == 0
        assert "verification passed" in proc.stdout

    def test_record_repins_after_data_change(self, demo_project):
        run_cli(demo_project, "make")
        build = Path(os.readlink(demo_project / ".build"))
        counts = build / "demo" / "papers-per-year.txt"
        counts.write_text(counts.read_text() + "2001 1\n", encoding="utf-8")
        assert run_cli(demo_project, "verify").returncode == 3
        assert run_cli(demo_project, "verify", "--record").returncode == 0
        assert run_cli(demo_project, "verify").returncode == 0

    def test_record_new_path(self, demo_project):
        run_cli(demo_project, "make")
        proc = run_cli(demo_project, "verify", "--record", "report.txt")
        assert proc.returncode == 0
        manifest = (demo_project / "reproduce/analysis/config/verify.conf").read_text()
        assert any(line.startswith("report.txt\t") for line in manifest.splitlines())
        assert run_cli(demo_project, "verify").returncode == 0

    def test_record_rejects_prefix_the_manifest_cannot_hold(self, demo_project):
        run_cli(demo_project, "make")
        manifest = demo_project / "reproduce/analysis/config/verify.conf"
        before = manifest.read_bytes()
        proc = run_cli(demo_project, "verify", "--record", "--filter", "strip-comments:\t",
                       "report.txt")
        assert proc.returncode == 64
        assert manifest.read_bytes() == before
        assert run_cli(demo_project, "verify").returncode == 0


class TestCleanAndDemo:
    def test_clean_removes_built_keeps_inputs(self, demo_project):
        run_cli(demo_project, "make")
        build = Path(os.readlink(demo_project / ".build"))
        assert (build / "report.txt").exists()
        proc = run_cli(demo_project, "clean")
        assert proc.returncode == 0
        assert not (build / "report.txt").exists()
        assert not (build / "tex" / "project.tex").exists()
        assert (build / "inputs" / "demo-papers.csv").exists()
        # the engine's byproducts go too; inputs and empty directories stay
        left = sorted(str(p.relative_to(build)) for p in build.rglob("*") if p.is_file())
        assert left == ["inputs/demo-papers.csv"]
        # next make rebuilds from the kept inputs
        assert run_cli(demo_project, "make").returncode == 0

    def test_demo_subcommand(self, tmp_path):
        proc = run_cli(tmp_path, "demo", str(tmp_path / "fresh"))
        assert proc.returncode == 0
        assert (tmp_path / "fresh" / "reproduce/analysis/make/top.wf").exists()

    def test_usage_error_on_unknown_command(self, tmp_path):
        proc = run_cli(tmp_path, "frobnicate")
        assert proc.returncode == 64


class TestBuildDirIsolation:
    def snapshot(self, build: Path) -> dict[str, tuple[int, int]]:
        return {
            str(p.relative_to(build)): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in build.rglob("*") if p.is_file()
        }

    def test_only_make_and_configure_write_in_build_dir(self, demo_project):
        run_cli(demo_project, "make")
        build = Path(os.readlink(demo_project / ".build"))
        before = self.snapshot(build)
        assert run_cli(demo_project, "graph", "--format", "json").returncode == 0
        assert run_cli(demo_project, "dist").returncode == 0
        assert run_cli(demo_project, "verify").returncode == 0
        assert self.snapshot(build) == before
