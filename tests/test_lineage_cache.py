"""The stat-keyed lineage cache, checked against an uncached load.

After every edit, `Project.load(root, build_dir=...)` must return what
`Project.load(root)` returns, field by field, or raise the same error
with the same message; and a load that follows a successful cached one,
with nothing changed in between, must parse, expand and build nothing."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lineage_forge import lineage_cache, parser, project
from lineage_forge.demo import create_demo_project
from conftest import init_repo
from lineage_forge.errors import (
    CycleDetected,
    DslSyntaxError,
    DuplicateTarget,
    IncludeNotFound,
    UndefinedVariable,
)
from lineage_forge.lineage_cache import LINEAGE_RELPATH, LineageCache
from lineage_forge.parser import DEFAULT_ENTRY
from lineage_forge.project import Project

REPO = Path(__file__).resolve().parents[1]
CONF_DIR = "reproduce/analysis/config"
MAKE_DIR = "reproduce/analysis/make"
ASSIGNMENT = re.compile(r"^([A-Za-z_][A-Za-z0-9_-]*)\s*=", re.MULTILINE)


def load_genproject():
    """The benchmark's project generator, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_genproject", REPO / "perfbench" / "genproject.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TINY = {
    f"{MAKE_DIR}/top.wf": (
        "all: $(BDIR)/end.txt\n"
        f"include {CONF_DIR}/*.conf\n"
        f"include {MAKE_DIR}/one.wf\n"
        f"include {MAKE_DIR}/two.wf?\n"
    ),
    f"{CONF_DIR}/a.conf": "k0 = 1\nk1 = $(k0)x\n",
    f"{CONF_DIR}/b.conf": "k2 = 2\nk3 = $(k1)-$(k2)\n",
    f"{MAKE_DIR}/one.wf": (
        "$(BDIR)/end.txt: $(BDIR)/mid-$(k2).txt\n\tcat $< > $@\n\n"
        "$(BDIR)/mid-$(k2).txt: $(BDIR)/in.txt $(BDIR)/other.txt\n\techo $(k3) > $@\n\n"
        "$(BDIR)/in.txt:\n\techo $(k0) $$(k1) > $@\n"
    ),
    f"{MAKE_DIR}/two.wf": "$(BDIR)/other.txt:\n\techo $(k1) > $@\n",
}


def write_tiny(root: Path) -> None:
    for rel, text in TINY.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> Path:
    """The benchmark's small dag project, generated once."""
    genproject = load_genproject()
    dest = tmp_path_factory.mktemp("generated")
    genproject.write_project(genproject.build_model("edit-rebuild", 3, small=True), dest)
    return dest / "proj"


def outcome(root: Path, build_dir: Path | None = None):
    """Everything a load returns, or the error it raises. Each rule is
    hashed, shown and read field by field; which of the three reads it
    first goes round the rules, so a rule whose recipe and origin the
    cache decodes on first access is checked through each."""
    try:
        p = Project.load(root, build_dir=build_dir)
    except Exception as exc:  # compared by type and message
        return ("error", type(exc).__name__, str(exc))
    rules = list(p.graph.rules.values())
    first = [VIEWS[i % 3](r) for i, r in enumerate(rules)]
    then = [tuple(view(r) for view in VIEWS) for r in rules]
    return (rules, list(p.graph.nodes.items()), p.graph.order, list(p.graph.rules.items()),
            list(p.env.items()), p.stages, p.input_specs, first, then, p.goal)


VIEWS = (hash, repr, lambda r: (r.target, r.prerequisites, r.recipe, r.origin))


def reused(root: Path, build: Path) -> bool:
    """Whether a cached load now parses no file, expands no template and
    builds no graph, but takes all of it from the cache. The cache is not
    written: `save` is stubbed out, so it stays as it was."""
    work: list[str] = []

    def spy(module, name: str):
        real = getattr(module, name)

        def call(*args):
            if name != "instantiate_rules" or args[0]:
                work.append(name)
            return real(*args)
        return mock.patch.object(module, name, call)

    with spy(parser, "parse_workflow"), spy(lineage_cache, "parse_workflow"), \
            spy(project, "instantiate_rules"), spy(project, "build_graph"), \
            mock.patch.object(LineageCache, "save", lambda *args: work.append("save")):
        try:
            Project.load(root, build_dir=build)
        except Exception:
            return False
    return not work


def dsl_files(root: Path) -> list[Path]:
    confs = sorted((root / CONF_DIR).glob("*.conf"))
    return [p for p in confs if p.name != "verify.conf"] + sorted((root / MAKE_DIR).glob("*.wf"))


def names(root: Path) -> list[str]:
    found = {"BDIR"}
    for path in dsl_files(root):
        for line in path.read_text(encoding="utf-8").splitlines():
            match = ASSIGNMENT.match(line)
            if match:
                found.add(match.group(1))
    return sorted(found)


def wait_past(root: Path, probe: Path) -> None:
    """Return once the file system clock has moved past the mtime and
    ctime of every file under `root`, so a cache written now is newer."""
    newest = max(max(p.stat().st_mtime_ns, p.stat().st_ctime_ns)
                 for p in root.rglob("*") if p.is_file())
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > newest:
            return
        time.sleep(0.001)


def bump_digit(data: bytes) -> bytes:
    """The same bytes with their last digit changed, so the size stays."""
    for i in range(len(data) - 1, -1, -1):
        if data[i:i + 1].isdigit():
            return data[:i] + str((int(data[i:i + 1]) + 1) % 10).encode() + data[i + 1:]
    return data


# --- edits: each takes the project root, the build dir and a choice ------

def change_value(root: Path, build: Path, n: int) -> None:
    confs = [p for p in dsl_files(root) if p.suffix == ".conf"]
    if not confs:
        return
    path = confs[n % len(confs)]
    lines = path.read_text(encoding="utf-8").splitlines()
    at = [i for i, line in enumerate(lines) if ASSIGNMENT.match(line)]
    if not at:
        return
    i = at[n // 3 % len(at)]
    pool = names(root)
    value = ["1", "22", f"$({pool[n % len(pool)]})", f"y$({pool[n // 5 % len(pool)]})",
             "x$$(k0)", "$(no-such-name)"][n % 6]
    lines[i] = f"{ASSIGNMENT.match(lines[i]).group(1)} = {value}"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def add_conf(root: Path, build: Path, n: int) -> None:
    pool = names(root)
    (root / CONF_DIR / f"extra-{n % 3}.conf").write_text(
        f"{pool[n % len(pool)]} = {n}\nextra-{n % 3} = $({pool[n // 3 % len(pool)]})\n",
        encoding="utf-8")


def remove_conf(root: Path, build: Path, n: int) -> None:
    confs = [p for p in dsl_files(root) if p.suffix == ".conf"]
    if confs:
        confs[n % len(confs)].unlink()


def add_rule(root: Path, build: Path, n: int) -> None:
    stages = [p for p in dsl_files(root) if p.suffix == ".wf" and p.name != "top.wf"]
    if not stages:
        return
    pool = names(root)
    prereq = ["", f"$(BDIR)/added-{n // 4 % 4}.txt", "$(BDIR)/end.txt"][n // 16 % 3]
    with open(stages[n % len(stages)], "a", encoding="utf-8") as fh:
        fh.write(f"\n$(BDIR)/added-{n % 4}.txt: {prereq}\n"
                 f"\techo $({pool[n % len(pool)]}) > $@\n")


def rename_variable(root: Path, build: Path, n: int) -> None:
    confs = [p for p in dsl_files(root) if p.suffix == ".conf"]
    if not confs:
        return
    path = confs[n % len(confs)]
    text = path.read_text(encoding="utf-8")
    match = ASSIGNMENT.search(text)
    if match:
        renamed = f"{match.group(1)}-renamed"
        path.write_text(text[:match.start(1)] + renamed + text[match.end(1):],
                        encoding="utf-8")


def toggle_alias_recipe(root: Path, build: Path, n: int) -> None:
    """Give a workflow file's `all:` rule a recipe line, or take it away,
    or give the file an `all:` rule: an `all:` rule is the goal alias
    only while its recipe is empty and no earlier one is."""
    files = [p for p in dsl_files(root) if p.suffix == ".wf"]
    if not files:
        return
    path = files[n % len(files)]
    lines = path.read_text(encoding="utf-8").splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith("all:")), None)
    if at is None:
        lines += ["", "all: $(BDIR)/end.txt"]
    elif lines[at + 1:at + 2] and lines[at + 1].startswith("\t"):
        del lines[at + 1]
    else:
        lines.insert(at + 1, "\ttrue")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def swap_includes(root: Path, build: Path, n: int) -> None:
    """Swap two include lines of the entry file."""
    path = root / DEFAULT_ENTRY
    if not path.is_file():
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("include ")]
    if len(at) < 2:
        return
    i, j = at[n % len(at)], at[n // 7 % len(at)]
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def remove_stage(root: Path, build: Path, n: int) -> None:
    stages = [p for p in dsl_files(root) if p.suffix == ".wf" and p.name != "top.wf"]
    if stages:
        stages[n % len(stages)].unlink()


def rewrite_same_size(root: Path, build: Path, n: int) -> None:
    """Change a digit, keeping the size, and set the mtime back."""
    files = dsl_files(root)
    path = files[n % len(files)]
    before = path.stat()
    path.write_bytes(bump_digit(path.read_bytes()))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def edit_in_cache_tick(root: Path, build: Path, n: int) -> None:
    """Edit a file, then forge the cache as if it had been written in the
    same clock tick, just before the edit, with the StatKey in the edited
    file's record equal to its new one (as the coarse clocks of some file
    systems allow): the racy rule must refuse to trust it, however the
    cache file is written afterwards. Only a cache that holds the project
    as it is now is forged, as `make` would have written it."""
    cache = build / LINEAGE_RELPATH
    if not reused(root, build):
        return
    try:
        header, *records = cache.read_bytes().split(b"\n")
        at = n % len(records)
        record = json.loads(records[at])
        path = root / record[0]
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return  # no cache, or a garbled one
    if type(record) is not list or len(record) != 4 or not path.is_file():
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"racy-{n % 3} = {n}\n")
    st_ = path.stat()
    record[1] = [st_.st_dev, st_.st_ino, st_.st_size, st_.st_mtime_ns, st_.st_ctime_ns]
    records[at] = json.dumps(record).encode()
    doc = {**json.loads(header), "tick": max(st_.st_mtime_ns, st_.st_ctime_ns)}
    cache.write_bytes(b"\n".join([json.dumps(doc).encode(), *records]))


def write_damaged(cache: Path, data: bytes) -> None:
    """Replace the cache's bytes. The write moves the file's mtime, but
    records are trusted against the tick the header records, so a record
    forged by `edit_in_cache_tick` stays refused."""
    cache.write_bytes(data)


def garble_cache(root: Path, build: Path, n: int) -> None:
    """Damage the whole file or its header line."""
    cache = build / LINEAGE_RELPATH
    if not cache.exists():
        return
    raw = cache.read_bytes()
    header, newline, records = raw.partition(b"\n")
    try:
        doc = json.loads(header)
    except ValueError:
        doc = None
    if type(doc) is not dict:
        doc = None  # already garbled
    keys = sorted(doc or ())
    kind = n % 7
    if kind == 0 or doc is None or not keys:
        garbled = raw[: n % max(len(raw), 1)]  # truncated
    elif kind == 1:
        garbled = b"\xff{not json" + raw[:10]
    elif kind == 6:
        garbled = raw.replace(b'"', b"'", 1 + n % 50)
    else:
        if kind == 2:
            doc = {**doc, "version": "0.0.0"}
        elif kind == 3:
            doc = {k: v for k, v in doc.items() if k != keys[n % len(keys)]}
        elif kind == 4:
            wrong = [5, "x", None, [5], {"k": 5}][n // 7 % 5]
            doc = {**doc, ["env", "order"][n // 35 % 2]: wrong}
        else:
            doc = [doc]
        garbled = json.dumps(doc).encode() + newline + records
    write_damaged(cache, garbled)


# A value of another type than a record field's, or an item field's.
WRONG_TYPE = {str: 5, int: None, bool: "x", list: {"k": 5}, dict: 5, float: "x", type(None): 5}


def damage_record(root: Path, build: Path, n: int) -> None:
    """Damage exactly one file's record: truncate it, give it or one of
    its items the wrong type, or give it another StatKey."""
    cache = build / LINEAGE_RELPATH
    try:
        header, *records = cache.read_bytes().split(b"\n")
        at = n % len(records)
    except (OSError, ZeroDivisionError):
        return
    try:
        record = json.loads(records[at])
    except ValueError:
        record = None
    whole = (type(record) is list and len(record) == 4 and type(record[1]) is list
             and len(record[1]) == 5 and type(record[2]) is list and record[2]
             and all(type(item) is list and item for item in record[2]))
    kind = n // 7 % 4
    if kind == 0 or not whole:
        records[at] = records[at][: n % max(len(records[at]), 1)]  # truncated
    else:
        if kind == 1:
            field = n // 28 % 4
            record[field] = WRONG_TYPE[type(record[field])]
        elif kind == 2:
            item = record[2][n // 28 % len(record[2])]
            field = n // 112 % len(item)
            item[field] = WRONG_TYPE[type(item[field])]
        else:
            record[1][3] += 1 + n
        records[at] = json.dumps(record).encode()
    write_damaged(cache, b"\n".join([header, *records]))


EDITS = [change_value, add_conf, remove_conf, add_rule, rename_variable, toggle_alias_recipe,
         swap_includes, remove_stage, rewrite_same_size, edit_in_cache_tick, garble_cache,
         damage_record]
STEPS = st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10_000)), max_size=8)


def check_sequence(root: Path, build: Path, steps) -> None:
    probe = build.parent / "probe"
    for edit, n in [(None, 0), *steps]:
        if edit is not None:
            edit(root, build, n)
        wait_past(root, probe)
        want = outcome(root)
        assert outcome(root, build) == want, (edit and edit.__name__, n)
        if want[0] != "error":
            # The cache written by that load is newer than every file.
            assert reused(root, build)
            assert outcome(root, build) == want, (edit and edit.__name__, n, "hit")


class TestCachedLoadEqualsUncached:
    @given(steps=STEPS)
    @settings(max_examples=60, deadline=None)
    def test_tiny_project(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "proj"
            write_tiny(root)
            check_sequence(root, Path(tmp) / "build", steps)

    @given(steps=STEPS)
    @settings(max_examples=25, deadline=None)
    def test_generated_project(self, generated, steps):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "proj"
            shutil.copytree(generated, root)
            check_sequence(root, Path(tmp) / "build", steps)

    @given(steps=STEPS)
    @settings(max_examples=25, deadline=None)
    def test_demo_project(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "proj"
            create_demo_project(root)
            check_sequence(root, Path(tmp) / "build", steps)


@pytest.fixture
def tiny(tmp_path: Path) -> tuple[Path, Path]:
    root = tmp_path / "proj"
    write_tiny(root)
    return root, tmp_path / "build"


def cached_then_edited(root: Path, build: Path, rel: str, text: str):
    """Load through the cache, edit one file, and return the cached and
    the uncached outcome of a load after the edit."""
    wait_past(root, build.parent / "probe")
    assert outcome(root, build)[0] != "error"
    (root / rel).write_text(text, encoding="utf-8")
    return outcome(root, build), outcome(root)


class TestErrors:
    @pytest.mark.parametrize("rel, text, error", [
        (f"{CONF_DIR}/a.conf", "k9 = 1\nk1 = x\n", UndefinedVariable),
        (f"{MAKE_DIR}/two.wf", "$(BDIR)/other.txt: $(BDIR)/end.txt\n\ttrue\n", CycleDetected),
        (f"{MAKE_DIR}/two.wf", "$(BDIR)/in.txt:\n\ttrue\n", DuplicateTarget),
        (f"{MAKE_DIR}/top.wf", f"all: $(BDIR)/end.txt\ninclude {MAKE_DIR}/gone.wf\n",
         IncludeNotFound),
    ])
    def test_same_error_and_message(self, tiny, rel, text, error):
        cached, uncached = cached_then_edited(*tiny, rel, text)
        assert cached == uncached
        assert cached[1] == error.__name__


class TestGoalAlias:
    """Which rule is the goal alias can change while every template keeps
    its targets and prerequisites."""

    TOP = f"{MAKE_DIR}/top.wf"

    def test_recipe_added_then_removed_under_the_alias(self, tiny):
        root, build = tiny
        plain = TINY[self.TOP]
        with_recipe = plain.replace("all: $(BDIR)/end.txt\n", "all: $(BDIR)/end.txt\n\ttrue\n")
        for text, goal in [(with_recipe, "all"), (plain, ".build/end.txt")]:
            cached, uncached = cached_then_edited(root, build, self.TOP, text)
            assert cached == uncached
            assert cached[-1] == goal
        # The cache written just after the edit may share its clock tick,
        # so the racy rule may refuse top.wf's record once; a load in a
        # later tick writes one that holds the project as it is now.
        wait_past(root, build.parent / "probe")
        outcome(root, build)
        assert reused(root, build)
        assert outcome(root, build) == outcome(root)

    def test_includes_swapped_between_two_aliases(self, tiny):
        root, build = tiny
        # Only while two.wf's `all:` is a plain rule is zz.txt a node.
        for name, goal in [("one.wf", "$(BDIR)/in.txt"), ("two.wf", "zz.txt")]:
            with open(root / MAKE_DIR / name, "a", encoding="utf-8") as fh:
                fh.write(f"\nall: {goal}\n")
        top = TINY[self.TOP].replace("all: $(BDIR)/end.txt\n", "")
        (root / self.TOP).write_text(top, encoding="utf-8")
        one, two = f"include {MAKE_DIR}/one.wf\n", f"include {MAKE_DIR}/two.wf?\n"
        swapped = top.replace(one + two, two + one)
        cached, uncached = cached_then_edited(root, build, self.TOP, swapped)
        assert cached == uncached
        assert cached[-1] == "zz.txt"


class TestHitAndMiss:
    def test_hit_parses_nothing(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        want = outcome(root, build)
        expanded = []
        real = project.instantiate_rules

        def spy(templates, env):
            expanded.extend(templates)
            return real(templates, env)

        with mock.patch.object(parser, "parse_workflow", side_effect=AssertionError), \
                mock.patch.object(lineage_cache, "parse_workflow", side_effect=AssertionError), \
                mock.patch.object(project, "build_graph", side_effect=AssertionError), \
                mock.patch.object(project, "instantiate_rules", spy):
            assert outcome(root, build) == want
        assert expanded == []

    def test_new_file_matching_an_include_glob_is_seen(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        outcome(root, build)
        (root / CONF_DIR / "c.conf").write_text("k2 = 3\n", encoding="utf-8")
        cached = outcome(root, build)
        assert cached == outcome(root)
        assert ".build/mid-3.txt" in dict(cached[1])

    def test_value_edit_expands_only_the_templates_it_reaches(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        outcome(root, build)
        # k0 reaches in.txt directly, other.txt through k1 and mid-2.txt
        # through k1 and k3; end.txt reads none of them.
        (root / CONF_DIR / "a.conf").write_text("k0 = 5\nk1 = $(k0)x\n", encoding="utf-8")
        seen = []
        real = project.instantiate_rules

        def spy(templates, env):
            seen.extend(t.target_text for t in templates)
            return real(templates, env)

        with mock.patch.object(project, "instantiate_rules", spy):
            cached = outcome(root, build)
        assert cached == outcome(root)
        assert sorted(seen) == ["$(BDIR)/in.txt", "$(BDIR)/mid-$(k2).txt", "$(BDIR)/other.txt"]

    @pytest.mark.parametrize("rel", [f"{MAKE_DIR}/one.wf", f"{CONF_DIR}/b.conf"])
    def test_file_rewritten_with_crlf_is_not_served_from_the_cache(self, tiny, rel):
        root, build = tiny
        crlf = TINY[rel].replace("\n", "\r\n")
        cached, uncached = cached_then_edited(root, build, rel, crlf)
        assert cached == uncached == ("error", "DslSyntaxError",
                                      f"{rel}:1: CR line ending (files must use LF)")
        wait_past(root, build.parent / "probe")
        assert outcome(root, build) == uncached

    def test_make_fails_after_a_stage_file_is_rewritten_with_crlf(self, tmp_path):
        root = tmp_path / "proj"
        create_demo_project(root)
        init_repo(root)
        project.configure(root, tmp_path / "build", input_dir="data")
        project.run_make(root, offline=True)
        assert (tmp_path / "build" / LINEAGE_RELPATH).is_file()
        stage = root / MAKE_DIR / "demo-plot.wf"
        stage.write_bytes(stage.read_bytes().replace(b"\n", b"\r\n"))
        for _ in range(2):
            with pytest.raises(DslSyntaxError) as info:
                project.run_make(root, offline=True)
            assert (info.value.origin, info.value.line) == (f"{MAKE_DIR}/demo-plot.wf", 1)

    def test_write_failure_is_logged_not_raised(self, tiny, caplog):
        root, build = tiny
        build.mkdir()
        (build / "state").write_text("a file where the state directory goes")
        assert outcome(root, build) == outcome(root)
        assert "could not write the cache" in caplog.text

    @pytest.mark.parametrize("damage", [b"", b"{", b"[]", b"null", b'{"format": 1}',
                                        b"[" * 100_000])
    def test_unreadable_cache_costs_one_full_parse(self, tiny, damage):
        root, build = tiny
        cache = build / LINEAGE_RELPATH
        cache.parent.mkdir(parents=True)
        cache.write_bytes(damage)
        assert outcome(root, build) == outcome(root)
        wait_past(root, build.parent / "probe")
        assert outcome(root, build) == outcome(root)
        assert reused(root, build)

    def test_noop_make_leaves_the_cache_as_it_was(self, tmp_path):
        root = tmp_path / "proj"
        create_demo_project(root)
        init_repo(root)
        project.configure(root, tmp_path / "build", input_dir="data")
        wait_past(root, tmp_path / "probe")
        project.run_make(root, offline=True)
        cache = tmp_path / "build" / LINEAGE_RELPATH
        before = cache.read_bytes(), cache.stat().st_mtime_ns
        project.run_make(root, offline=True)
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before

    def test_optional_stage_file_removed(self, tiny):
        """Every other file keeps its record, but the include that named
        the removed file matches nothing now: the cached graph's nodes
        would still hold the target that only its rule named."""
        root, build = tiny
        with open(root / MAKE_DIR / "two.wf", "a", encoding="utf-8") as fh:
            fh.write("\n$(BDIR)/lone.txt:\n\ttrue\n")
        wait_past(root, build.parent / "probe")
        assert ".build/lone.txt" in dict(outcome(root, build)[1])
        (root / MAKE_DIR / "two.wf").unlink()
        cached = outcome(root, build)
        assert cached == outcome(root)
        assert ".build/lone.txt" not in dict(cached[1])

    def test_header_that_disagrees_with_its_records_is_mended_once(self, tiny):
        """A header whose variables are not those of its records makes a
        load expand the templates that read them; that load writes the
        cache, so the next one expands nothing."""
        root, build = tiny
        wait_past(root, build.parent / "probe")
        want = outcome(root, build)
        cache = build / LINEAGE_RELPATH
        header, newline, rest = cache.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["env"]["k2"] = "9"
        write_damaged(cache, json.dumps(doc).encode() + newline + rest)
        assert not reused(root, build)
        assert outcome(root, build) == want
        wait_past(root, build.parent / "probe")
        assert reused(root, build)

    def test_cache_of_the_previous_format_costs_one_full_parse(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        want = outcome(root, build)
        cache = build / LINEAGE_RELPATH
        header, newline, rest = cache.read_bytes().partition(b"\n")
        # Format 4 judged its records by the cache file's mtime.
        doc = {k: v for k, v in json.loads(header).items() if k != "tick"}
        write_damaged(cache, json.dumps({**doc, "format": 4}).encode() + newline + rest)
        cached, parsed = cached_with_parses(root, build)
        assert cached == want
        assert parsed == {p.relative_to(root).as_posix() for p in dsl_files(root)}
        assert json.loads(cache.read_bytes().partition(b"\n")[0])["format"] == \
            lineage_cache.FORMAT == 5


class TestForeignWrite:
    def test_moving_the_cache_mtime_trusts_no_racy_record(self, tmp_path):
        """A DSL file changed in (or after) the clock tick its record was
        written in stays untrusted when the cache file's mtime is moved
        past it, as a `touch` or a restore from backup moves it."""
        root = tmp_path / "proj"
        create_demo_project(root)
        init_repo(root)
        project.configure(root, tmp_path / "build", input_dir="data")
        project.run_make(root, offline=True)
        path = dsl_files(root)[-1]
        rel = path.relative_to(root).as_posix()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("# edited\n")
        # An mtime no write tick of this make can pass: the racy case.
        ahead = time.time_ns() + 3600 * 10**9
        os.utime(path, ns=(ahead, ahead))
        parsed: list[str] = []
        real = parser.parse_workflow

        def spy(text, origin):
            parsed.append(origin)
            return real(text, origin)

        with mock.patch.object(parser, "parse_workflow", spy), \
                mock.patch.object(lineage_cache, "parse_workflow", spy):
            project.run_make(root, offline=True)
            assert parsed == [rel]
            cache = tmp_path / "build" / LINEAGE_RELPATH
            os.utime(cache, ns=(ahead + 10**9, ahead + 10**9))
            parsed.clear()
            project.run_make(root, offline=True)
            assert parsed == [rel]


class TestLinesSplitAtLfAlone:
    def test_form_feed_in_a_comment_keeps_the_line_numbers(self, tiny):
        """`str.splitlines` also breaks at a form feed, so the parser once
        numbered lines differently from the cache's read of a template's
        lines: `group`'s record named the line of `other.txt`, which the
        cache then parsed as `group`'s own and defined twice."""
        root, build = tiny
        (root / MAKE_DIR / "two.wf").write_text(
            "# page\f\n$(BDIR)/group: $(BDIR)/in-$(k0).txt\n"
            "$(BDIR)/other.txt: $(BDIR)/group\n\ttouch $@\n", encoding="utf-8")
        cached, uncached = cached_then_edited(root, build, f"{CONF_DIR}/a.conf",
                                              "k0 = 5\nk1 = $(k0)x\n")
        assert cached == uncached
        assert ".build/in-5.txt" in dict(cached[1])


def cached_with_parses(root: Path, build: Path):
    """A cached load's outcome, and the files it parsed: whole, in the
    include walk, or in part, for a template it expands again."""
    seen: set[str] = set()
    real = parser.parse_workflow

    def spy(text, origin):
        seen.add(origin)
        return real(text, origin)

    with mock.patch.object(parser, "parse_workflow", spy), \
            mock.patch.object(lineage_cache, "parse_workflow", spy):
        got = outcome(root, build)
    return got, seen


def records(build: Path) -> dict[str, bytes]:
    """Each file's line of the cache, by path."""
    _header, *lines = (build / LINEAGE_RELPATH).read_bytes().split(b"\n")
    return {json.loads(line)[0]: line for line in lines}


def readers(root: Path, name: str) -> set[str]:
    """The DSL files whose text reads `$(name)`."""
    return {p.relative_to(root).as_posix() for p in dsl_files(root)
            if f"$({name})" in p.read_text(encoding="utf-8")}


class TestMissReadsWhatChanged:
    @pytest.fixture(params=["generated", "demo"])
    def project_root(self, request, tmp_path) -> Path:
        root = tmp_path / "proj"
        if request.param == "generated":
            shutil.copytree(request.getfixturevalue("generated"), root)
        else:
            create_demo_project(root)
        return root

    def test_value_edit_parses_and_rewrites_only_what_it_reaches(self, project_root, tmp_path):
        root, build = project_root, tmp_path / "build"
        wait_past(root, tmp_path / "probe")
        outcome(root, build)
        before = records(build)
        # The first parameter some workflow file reads; nothing else reads
        # it, so it alone is affected.
        conf, name = next((p, m.group(1)) for p in dsl_files(root) if p.suffix == ".conf"
                          for m in ASSIGNMENT.finditer(p.read_text(encoding="utf-8"))
                          if readers(root, m.group(1)))
        assert all(p.endswith(".wf") for p in readers(root, name))
        text = conf.read_text(encoding="utf-8")
        conf.write_text(re.sub(rf"^{re.escape(name)}\s*=.*$", f"{name} = 4242", text,
                               flags=re.MULTILINE), encoding="utf-8")
        cached, parsed = cached_with_parses(root, build)
        assert cached == outcome(root)
        reached = {conf.relative_to(root).as_posix()} | readers(root, name)
        assert parsed == reached
        after = records(build)
        assert after.keys() == before.keys()
        assert {path for path in before if after[path] != before[path]} == reached

    @pytest.mark.parametrize("damage", [lambda line: line[:-5], lambda line: b"[" * 100_000],
                             ids=["truncated", "nested too deep"])
    def test_damaged_record_costs_a_parse_of_its_file_alone(self, project_root, tmp_path,
                                                            damage):
        root, build = project_root, tmp_path / "build"
        wait_past(root, tmp_path / "probe")
        want = outcome(root, build)
        cache = build / LINEAGE_RELPATH
        header, *lines = cache.read_bytes().split(b"\n")
        damaged = json.loads(lines[-1])[0]
        write_damaged(cache, b"\n".join([header, *lines[:-1], damage(lines[-1])]))
        cached, parsed = cached_with_parses(root, build)
        assert cached == want
        assert parsed == {damaged}
        wait_past(root, tmp_path / "probe")
        assert reused(root, build)


class TestRecordNoLongerMatchesItsFile:
    """A template's file is read again after its record was trusted; if
    the file or the record has changed in between, the load parses the
    whole project rather than mix the two."""

    def test_file_edited_during_the_load(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        outcome(root, build)
        (root / CONF_DIR / "a.conf").write_text("k0 = 5\nk1 = $(k0)x\n", encoding="utf-8")
        real, edits = project.build_env, []

        def edit_then_build_env(statements, builtins):
            if not edits:  # once: the full parse that follows calls it again
                with open(root / MAKE_DIR / "one.wf", "a", encoding="utf-8") as fh:
                    edits.append(fh.write("\n$(BDIR)/late.txt:\n\ttrue\n"))
            return real(statements, builtins)

        with mock.patch.object(project, "build_env", edit_then_build_env):
            cached = outcome(root, build)
        assert cached == outcome(root)
        assert ".build/late.txt" in dict(cached[1])

    def test_record_names_the_wrong_line(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        outcome(root, build)
        cache = build / LINEAGE_RELPATH
        header, *lines = cache.read_bytes().split(b"\n")
        one = f"{MAKE_DIR}/one.wf"
        at = next(i for i, line in enumerate(lines) if json.loads(line)[0] == one)
        record = json.loads(lines[at])
        in_txt = next(item for item in record[2] if item[2] == ".build/in.txt")
        in_txt[0] += 1  # the recipe line under it
        lines[at] = json.dumps(record).encode()
        cache.write_bytes(b"\n".join([header, *lines]))
        (root / CONF_DIR / "a.conf").write_text("k0 = 5\nk1 = $(k0)x\n", encoding="utf-8")
        assert outcome(root, build) == outcome(root)


# Each garble of one template's item that a rule read from the cache could
# only show when its recipe or origin is first read, after the load.
GARBLES = {
    "recipe not a string": lambda item: item.__setitem__(4, 5),
    "line 0": lambda item: item.__setitem__(0, 0),
    "a target more than its recipes": lambda item: item.__setitem__(2, item[2] + " .build/x"),
}


class TestLazyRules:
    """A cached rule decodes its recipe and origin on first access; every
    check of its record is made at load."""

    def test_fields_cannot_be_assigned(self, tiny):
        root, build = tiny
        wait_past(root, build.parent / "probe")
        outcome(root, build)
        assert reused(root, build)
        for p in (Project.load(root, build_dir=build), Project.load(root)):
            rule = next(iter(p.graph.rules.values()))
            for name in ("target", "prerequisites", "recipe", "origin"):
                with pytest.raises(AttributeError):
                    setattr(rule, name, getattr(rule, name))
                with pytest.raises(AttributeError):
                    delattr(rule, name)

    @pytest.mark.parametrize("garble", sorted(GARBLES))
    def test_garbled_template_costs_a_parse_of_its_file(self, tmp_path, garble):
        root, build = tmp_path / "proj", tmp_path / "build"
        create_demo_project(root)
        init_repo(root)
        project.configure(root, build, input_dir="data")
        wait_past(root, tmp_path / "probe")
        project.run_make(root, offline=True)
        trusted = set(LineageCache.load(build, root, DEFAULT_ENTRY).records)
        rel = f"{MAKE_DIR}/format.wf"
        assert rel in trusted
        cache = build / LINEAGE_RELPATH
        header, *lines = cache.read_bytes().split(b"\n")
        at = next(i for i, line in enumerate(lines) if json.loads(line)[0] == rel)
        record = json.loads(lines[at])
        GARBLES[garble](next(item for item in record[2] if type(item[0]) is int))
        lines[at] = json.dumps(record).encode()
        write_damaged(cache, b"\n".join([header, *lines]))

        assert set(LineageCache.load(build, root, DEFAULT_ENTRY).records) == trusted - {rel}
        # Its rules are parsed again, so each recipe that now runs is the
        # file's own.
        targets = {t for t, r in Project.load(root).graph.rules.items() if r.origin.path == rel}
        for target in targets:
            (root / target).unlink()
        parsed = []
        real = parser.parse_workflow

        def spy(text, origin):
            parsed.append(origin)
            return real(text, origin)

        with mock.patch.object(parser, "parse_workflow", spy), \
                mock.patch.object(lineage_cache, "parse_workflow", spy):
            report = project.run_make(root, offline=True).report
        assert parsed == [rel]
        assert targets <= set(report.executed_targets())
