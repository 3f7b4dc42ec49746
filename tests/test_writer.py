"""One writer for the engine's own files: `state.staged`.

Every file the engine owns is replaced through a temp file and a rename,
so a write that fails part-way (an interrupt mid-fill, a rename that is
refused) leaves the old file's bytes and no temp file. A guard walks the
source and keeps every other write site on an explicit list."""

from __future__ import annotations

import ast
import errno
import os
from pathlib import Path

import pytest

from lineage_forge.demo import create_demo_project
from lineage_forge.fetch import InputResolver
from lineage_forge.lineage_cache import LINEAGE_RELPATH
from lineage_forge.parser import VERIFY_MANIFEST
from lineage_forge.project import (
    AGGREGATE_RELPATH,
    BIBLIOGRAPHY_RELPATH,
    LOCAL_CONFIG,
    LocalConfig,
    Project,
    _aggregate_stage,
    _emit_bibliography,
    _software_builtins,
    configure,
    run_make,
    run_record,
)
from lineage_forge.state import STATE_RELPATH, BuildState, TargetRecord, staged

from conftest import init_repo
from test_fetch import spec_for

SRC = Path(__file__).resolve().parent.parent / "src" / "lineage_forge"


def demo(tmp_path: Path, *, built: bool = False) -> tuple[Path, Path]:
    root, build = tmp_path / "proj", tmp_path / "build"
    create_demo_project(root)
    init_repo(root)
    configure(root, build, input_dir="data")
    if built:
        run_make(root)
    return root, build


# Each case sets up one writer and returns (the file it writes, the write).
def build_state_case(tmp_path):
    # Both tables: a target record and a file entry.
    state = BuildState()
    state.put(TargetRecord("out.txt", 1, "ab", ("cd",)))
    state.remember((str(tmp_path / "big.csv"), "sha256", None), (1, 2, 3, 4, 5), "ab" * 32)
    return tmp_path / STATE_RELPATH, lambda: state.save(tmp_path)


def file_table_case(tmp_path):
    # The file table alone: the digests of large files, which a separate
    # DigestCache wrote to digests.tsv before build-state.tsv absorbed it.
    state = BuildState()
    state.remember((str(tmp_path / "big.csv"), "sha256", None), (1, 2, 3, 4, 5), "ab" * 32)
    return tmp_path / STATE_RELPATH, lambda: state.save(tmp_path)


def local_config_case(tmp_path):
    config = LocalConfig(build_dir=str(tmp_path / "build"), jobs=2)
    return tmp_path / LOCAL_CONFIG, lambda: config.save(tmp_path)


def run_record_case(tmp_path):
    root, _ = demo(tmp_path, built=True)
    return root / VERIFY_MANIFEST, lambda: run_record(root)


def aggregate_case(tmp_path):
    root, build = demo(tmp_path, built=True)
    # The stage writes only bytes the file does not hold already.
    (build / AGGREGATE_RELPATH).unlink()
    return build / AGGREGATE_RELPATH, lambda: _aggregate_stage(
        root, Project.load(root), build, None, None)


def bibliography_case(tmp_path):
    root, build = demo(tmp_path)
    entries = _software_builtins(root)[2]
    return build / BIBLIOGRAPHY_RELPATH, lambda: _emit_bibliography(root, build, entries)


def lineage_cache_case(tmp_path):
    root, build = demo(tmp_path)
    return build / LINEAGE_RELPATH, lambda: Project.load(root, build_dir=build)


WRITERS = {
    "BuildState.save": build_state_case,
    "LocalConfig.save": local_config_case,
    "run_record": run_record_case,
    "_aggregate_stage": aggregate_case,
    "_emit_bibliography": bibliography_case,
    "DigestCache.save": file_table_case,
    "LineageCache.save": lineage_cache_case,
}


@pytest.mark.parametrize("fault", ["interrupted-fill", "refused-rename"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer, fault):
    path, write = WRITERS[writer](tmp_path)
    if path.exists():  # a file the writer reads first must parse
        old = path.read_bytes()
    else:
        old = b"the old file, which a failed write must leave whole\n" * 40
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(old)
    before = sorted(os.listdir(path.parent))
    hits = []

    if fault == "interrupted-fill":
        # Writes half of the bytes meant for `path` (or its temp), then
        # stops as a SIGINT would; every other file is written as usual.
        def fill(real):
            def patched(self, data, *args, **kwargs):
                if not self.name.startswith(path.name):
                    return real(self, data, *args, **kwargs)
                hits.append(self)
                raw = data.encode() if isinstance(data, str) else data
                with open(self, "wb") as fh:
                    fh.write(raw[: len(raw) // 2])
                raise KeyboardInterrupt
            return patched

        monkeypatch.setattr(Path, "write_text", fill(Path.write_text))
        monkeypatch.setattr(Path, "write_bytes", fill(Path.write_bytes))
        expected = KeyboardInterrupt
    else:
        real_replace = os.replace

        def refuse(src, dst):
            if Path(dst) != path:
                return real_replace(src, dst)
            hits.append(dst)
            raise OSError(errno.EIO, "refused", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        expected = OSError

    if writer == "LineageCache.save" and expected is OSError:
        write()  # a cache write that fails is logged, not raised
    else:
        with pytest.raises(expected):
            write()
    monkeypatch.undo()
    assert len(hits) == 1
    assert path.read_bytes() == old
    assert sorted(os.listdir(path.parent)) == before


@pytest.mark.parametrize("stage", ["download", "copy", "check"])
def test_interrupted_import_leaves_no_input(tmp_path, monkeypatch, stage):
    data = b"the whole input\n"
    input_dir = tmp_path / "hostdata"
    input_dir.mkdir()

    class Interrupted:
        def fetch(self, url, sink):
            sink.write(data[:4])
            raise KeyboardInterrupt

    def interrupted_copy(src, dst):
        Path(dst).write_bytes(data[:4])  # only half-way when the signal comes
        raise KeyboardInterrupt

    def interrupted_check(*args, **kwargs):
        raise KeyboardInterrupt

    if stage == "download":
        resolver = InputResolver(tmp_path / "bd", None, transport=Interrupted())
    else:
        (input_dir / "demo.csv").write_bytes(data)
        resolver = InputResolver(tmp_path / "bd", input_dir, offline=True)
        if stage == "copy":
            monkeypatch.setattr("lineage_forge.fetch.shutil.copyfile", interrupted_copy)
        else:
            monkeypatch.setattr("lineage_forge.fetch.verify_checksum", interrupted_check)
    with pytest.raises(KeyboardInterrupt):
        resolver.resolve(spec_for(data))
    assert list((tmp_path / "bd" / "inputs").iterdir()) == []


def test_staged_replaces_only_on_a_normal_exit(tmp_path):
    path = tmp_path / "new" / "file"
    with staged(path) as tmp:
        assert tmp.parent == path.parent and tmp != path
        tmp.write_bytes(b"first")
        assert not path.exists()
    assert path.read_bytes() == b"first"
    with pytest.raises(ValueError), staged(path) as tmp:
        tmp.write_bytes(b"second")
        raise ValueError
    with pytest.raises(ValueError), staged(path):
        raise ValueError  # before the block made its temp
    assert path.read_bytes() == b"first"
    assert os.listdir(path.parent) == ["file"]


# Write sites that do not go through `staged`, each with the reason.
# (module, enclosing function, kind of write) -> reason
EXEMPT = {
    ("executor.py", "_open_log", "open"):
        "recipe logs: the recipe's children write them as they run",
    ("executor.py", "execute", "rename"):
        "a failed target is moved aside to <target>.failed, not replaced",
    ("demo.py", "create_demo_project", "write_text"):
        "the demo tree is the user's new project, written once",
    ("project.py", "configure", "write_text"):
        "the write probe only tests that the build directory is writable",
    ("project.py", "_ensure_ignored", "write_text"):
        "the user's .gitignore, which is theirs, not the engine's",
    ("cli.py", "_cmd_graph", "write_text"):
        "graph --out names the user's file: /dev/stdout, a FIFO or a symlink",
    ("project.py", "make_dist", "open"):
        "dist --out names the user's file: /dev/stdout, a FIFO or a symlink",
}

WRITE_MODE_CHARS = set("wax+")


def _name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _write_kind(call: ast.Call) -> str | None:
    """The kind of write or rename `call` makes, or None."""
    name = _name(call.func)
    if name == "replace" and isinstance(call.func, ast.Attribute) \
            and _name(call.func.value) == "os":
        return "os.replace"
    if name in ("rename", "mkstemp", "write_text", "write_bytes"):
        return name
    if name in ("open", "fdopen"):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        if isinstance(mode, ast.Constant) and WRITE_MODE_CHARS & set(str(mode.value)):
            return "open"
    return None


def _writes(tree: ast.AST):
    """(enclosing function, inside a `with staged(...)`, kind) per write."""
    def walk(node, scope, in_staged):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, child.name, in_staged)
                continue
            if isinstance(child, ast.With) and any(
                    isinstance(item.context_expr, ast.Call)
                    and _name(item.context_expr.func) == "staged" for item in child.items):
                yield from walk(child, scope, True)
                continue
            if isinstance(child, ast.Call) and (kind := _write_kind(child)):
                yield scope, in_staged, kind
            yield from walk(child, scope, in_staged)
    yield from walk(tree, "", False)


def test_one_writer():
    renames, outside, constants = set(), set(), []  # renames: temp files made or renamed
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, in_staged, kind in _writes(tree):
            if kind in ("os.replace", "mkstemp"):
                renames.add((path.name, scope, kind))
            elif not in_staged:
                outside.add((path.name, scope, kind))
        constants += [node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        if path.name == "fetch.py":
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names}
            assert "tempfile" not in imported
    assert renames == {("state.py", "staged", "os.replace")}
    assert outside == set(EXEMPT)
    assert not [c for c in constants if ".staging" in c or ".part-" in c]
