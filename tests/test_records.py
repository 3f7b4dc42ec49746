"""What a target's record keeps of its prerequisites: the StatKey each had
when the target was recorded, and its digest only where something reads
it. A timestamp make takes one digest per built target; `save` replaces
a StatKey that the racy rule refuses by the digest; `--hash` settles a
prerequisite by an unchanged StatKey, else by the digest, and a record
with no digest for a changed prerequisite is stale."""

from __future__ import annotations

import collections
import logging
import os
import time
from pathlib import Path
from unittest import mock

from lineage_forge import executor, state
from lineage_forge.executor import DIGEST, TIMESTAMP, EnvPolicy, execute
from lineage_forge.graph import Origin, Rule, build_graph
from lineage_forge.state import STATE_RELPATH, BuildState, stat_key

from oracles import whole_file_filtered_digest


def chain(root: Path):
    """src.csv -> mid -> top, each recipe copying its prerequisite."""
    (root / "src.csv").write_bytes(b"0123456789\n")
    return build_graph([
        Rule("mid", ("src.csv",), ("cp src.csv mid",), Origin("test.wf", 1)),
        Rule("top", ("mid",), ("cp mid top",), Origin("test.wf", 3)),
    ])


def make(root: Path, graph, mode: str = TIMESTAMP, settle: bool = True) -> list[str]:
    """One make of `top`: load the store, execute, save. With `settle`,
    the save waits until the clock has passed every file's mtime and
    ctime, so the racy rule refuses no StatKey it records."""
    build = root / "bd"
    loaded = BuildState.load(build)
    env = EnvPolicy(fixed={"PATH": os.environ["PATH"], "LC_ALL": "C"}, workdir=str(root))
    report = execute(graph, "top", 1, env, loaded, mode=mode, root=root, build_dir=build)
    if settle:
        wait_past(root)
    loaded.save(build)
    return report.executed_targets()


def wait_past(root: Path) -> None:
    """Return once the file system clock is past the mtime and ctime of
    every file under `root`."""
    newest = max(max(p.stat().st_mtime_ns, p.stat().st_ctime_ns)
                 for p in root.rglob("*") if p.is_file())
    probe = root / "probe"
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > newest:
            probe.unlink()
            return
        time.sleep(0.001)


def entries(root: Path, target: str) -> list[str]:
    """The prerequisite entries of `target`'s line in the store."""
    for line in (root / "bd" / STATE_RELPATH).read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == target and len(fields) == 4:
            return fields[3].split(";")
    raise AssertionError(f"no record for {target}")


def sha256(path: Path) -> str:
    return whole_file_filtered_digest(path.read_bytes(), None, "sha256")


class TestRecordEntries:
    def test_timestamp_make_records_statkeys(self, tmp_path):
        graph = chain(tmp_path)
        assert make(tmp_path, graph) == ["mid", "top"]
        src = stat_key((tmp_path / "src.csv").stat())
        assert entries(tmp_path, "mid") == ["%d,%d,%d,%d,%d:" % src]
        record = BuildState.load(tmp_path / "bd").get("top")
        assert record.target_digest == sha256(tmp_path / "top")

    def test_hash_make_records_statkey_and_digest(self, tmp_path):
        graph = chain(tmp_path)
        make(tmp_path, graph, DIGEST)
        src = stat_key((tmp_path / "src.csv").stat())
        assert entries(tmp_path, "mid") == \
            ["%d,%d,%d,%d,%d:%s" % (*src, sha256(tmp_path / "src.csv"))]

    def test_racy_prerequisite_is_stored_by_digest(self, tmp_path):
        graph = chain(tmp_path)
        ahead = time.time_ns() + 3600 * 10**9  # no write tick of this make can pass it
        os.utime(tmp_path / "src.csv", ns=(ahead, ahead))
        # (No make here can wait for the clock to pass that mtime.)
        assert make(tmp_path, graph, settle=False) == ["mid", "top"]
        assert entries(tmp_path, "mid") == [sha256(tmp_path / "src.csv")]
        # The next `--hash` make hashes it and finds the recorded digest.
        assert make(tmp_path, graph, DIGEST, settle=False) == []

    def test_copy_with_kept_mtime_is_rebuilt_by_hash(self, tmp_path):
        # `cp -p` of new bytes of the same size: only the ctime shows it
        graph = chain(tmp_path)
        make(tmp_path, graph)
        src = tmp_path / "src.csv"
        before = src.stat()
        src.write_bytes(b"9876543210\n")
        os.utime(src, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert make(tmp_path, graph) == []  # timestamp mode cannot see it
        assert make(tmp_path, graph, DIGEST) == ["mid", "top"]
        assert (tmp_path / "top").read_bytes() == b"9876543210\n"

    def test_same_bytes_touch_after_a_timestamp_make_is_rebuilt_by_hash(self, tmp_path):
        # The one behaviour change: a timestamp make records no digest to
        # compare, so `--hash` rebuilds what a touch reaches.
        graph = chain(tmp_path)
        make(tmp_path, graph)
        later = time.time_ns() - 10**9
        os.utime(tmp_path / "mid", ns=(later, later))
        assert make(tmp_path, graph, DIGEST) == ["top"]
        # Recorded in digest mode, a touch rebuilds nothing.
        os.utime(tmp_path / "mid", ns=(later + 1, later + 1))
        assert make(tmp_path, graph, DIGEST) == []

    def test_timestamp_rebuild_parses_no_record(self, tmp_path):
        graph = chain(tmp_path)
        make(tmp_path, graph)
        store = tmp_path / "bd" / STATE_RELPATH
        mid = store.read_bytes().split(b"\n")[0]
        assert mid.startswith(b"mid\t")
        (tmp_path / "top").unlink()
        unused = mock.Mock(side_effect=AssertionError("records parsed"))
        with mock.patch.object(BuildState, "_parse", unused):
            assert make(tmp_path, graph) == ["top"]
        assert store.read_bytes().split(b"\n")[0] == mid  # copied as read
        assert BuildState.load(tmp_path / "bd").get("top").target_digest == \
            sha256(tmp_path / "top")

    def test_unchanged_statkey_hashes_nothing(self, tmp_path):
        graph = chain(tmp_path)
        make(tmp_path, graph, DIGEST)
        with mock.patch.object(executor, "file_digest") as hashed:
            assert make(tmp_path, graph, DIGEST) == []
        assert hashed.call_count == 0

    def test_statkey_not_older_than_the_store_tick_is_not_trusted(self, tmp_path):
        # A well-formed wrong digest shows whether the StatKey was trusted.
        graph = chain(tmp_path)
        make(tmp_path, graph, DIGEST)
        store = tmp_path / "bd" / STATE_RELPATH
        entry = entries(tmp_path, "mid")[0]
        wrong = entry.replace(sha256(tmp_path / "src.csv"), "0" * 64)
        body, _, tick = store.read_text().rpartition(" ")
        store.write_text(body.replace(entry, wrong) + " %d\n" % int(tick))
        assert make(tmp_path, graph, DIGEST, settle=False) == []
        # The same store, its tick set back to the source's ctime.
        store.write_text(body.replace(entry, wrong) + " %d\n"
                         % (tmp_path / "src.csv").stat().st_ctime_ns)
        assert make(tmp_path, graph, DIGEST, settle=False) == ["mid", "top"]

    def test_garbled_statkey_entry_costs_a_rebuild_and_a_warning(self, tmp_path, caplog):
        graph = chain(tmp_path)
        make(tmp_path, graph)
        store = tmp_path / "bd" / STATE_RELPATH
        good = entries(tmp_path, "top")[0]
        garbled = "x" + good[1:]
        store.write_text(store.read_text().replace(good, garbled))
        with caplog.at_level(logging.WARNING, logger="lineage_forge.state"):
            assert make(tmp_path, graph, DIGEST) == ["top"]
        assert [r.getMessage() for r in caplog.records] == \
            [f"{store}:2: skipping malformed build-state record"]
        assert garbled not in store.read_text()


class TestDigestCount:
    """A guard against taking digests nothing reads."""

    def counted(self, module):
        calls: list[str] = []
        real = module.file_digest

        def spy(path, *args, **kwargs):
            calls.append(os.fspath(path))
            return real(path, *args, **kwargs)

        return calls, mock.patch.object(module, "file_digest", spy)

    def test_timestamp_make_takes_one_digest_per_built_target(self, tmp_path):
        graph = chain(tmp_path)
        build = tmp_path / "bd"
        env = EnvPolicy(fixed={"PATH": os.environ["PATH"]}, workdir=str(tmp_path))
        for settle in (False, True):
            loaded = BuildState.load(build)
            in_make, make_patch = self.counted(executor)
            at_save, save_patch = self.counted(state)
            with make_patch, save_patch:
                report = execute(graph, "top", 1, env, loaded, root=tmp_path, build_dir=build)
                if settle:
                    wait_past(tmp_path)
                loaded.save(build)
            assert report.executed_targets() == ["mid", "top"]
            assert in_make == [str(tmp_path / "mid"), str(tmp_path / "top")]
            # Only a StatKey the racy rule refuses is hashed at save: at
            # most one per entry, and none once the clock has passed.
            assert len(at_save) <= 2 and (not settle or at_save == [])
            tick = int((build / STATE_RELPATH).read_text().rsplit(" ", 1)[1])
            assert all(max(int(n) for n in e.split(":")[0].split(",")[3:]) < tick
                       for t in ("mid", "top") for e in entries(tmp_path, t) if ":" in e)
            for name in ("mid", "top"):
                (tmp_path / name).unlink()  # so that the next make builds both

    def test_hash_make_hashes_each_file_at_most_once(self, tmp_path):
        graph = chain(tmp_path)
        for edit in (b"", b"edited\n"):
            if edit:
                (tmp_path / "src.csv").write_bytes(edit)
            hashed, patch = self.counted(executor)
            with patch:
                assert make(tmp_path, graph, DIGEST) == ["mid", "top"]
            counts = collections.Counter(hashed)
            assert max(counts.values()) == 1
            assert set(counts) == {str(tmp_path / n) for n in ("src.csv", "mid", "top")}
