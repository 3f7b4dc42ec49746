"""The file table of the build state: the stat-keyed digests of large
files, checked against hashlib on the bytes on disk. CHUNK_SIZE is
patched small, so that small files count as large."""

from __future__ import annotations

import logging
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lineage_forge import project, state
from lineage_forge.errors import VerificationFailed
from lineage_forge.executor import DIGEST
from lineage_forge.state import STATE_RELPATH, BuildState, file_digest, stat_key

from oracles import whole_file_filtered_digest

SMALL_CHUNK = 16
PREFIXES = (None, b"#")


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(state, "CHUNK_SIZE", SMALL_CHUNK)


def oracle(path: Path, prefix: bytes | None) -> str:
    return whole_file_filtered_digest(path.read_bytes(), prefix, "sha256")


def wait_past(paths: list[Path], probe: Path) -> None:
    """Return once the file system clock has moved past the mtime and
    ctime of every existing path, so that a store written now is newer
    than all of them."""
    newest = max((max(p.stat().st_mtime_ns, p.stat().st_ctime_ns)
                  for p in paths if p.exists()), default=0)
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > newest:
            return
        time.sleep(0.001)


def cache_line(path: Path, digest: str, prefix: bytes | None = None,
               algorithm: str = "sha256") -> bytes:
    """One file-table line for `path` as it is on disk now."""
    st_ = os.stat(path)
    fields = [os.path.abspath(path), algorithm, "-" if prefix is None else prefix.hex(),
              st_.st_dev, st_.st_ino, st_.st_size, st_.st_mtime_ns, st_.st_ctime_ns, digest]
    return os.fsencode("\t".join(map(str, fields))) + b"\n"


def write_store(store: Path, file_lines: bytes, tick: int, records: bytes = b"") -> None:
    """Write a store by hand: its records, the file table and a format
    line that records `tick`."""
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_bytes(records + b"\n" + file_lines
                      + b"lineage-forge build-state %d tick %d\n" % (state.FORMAT, tick))


def file_table(store: Path) -> bytes:
    """The file-table lines of a store that `save` wrote."""
    data = store.read_bytes()
    body, _, format_line = data[:-1].rpartition(b"\n")
    assert format_line.startswith(b"lineage-forge build-state %d tick " % state.FORMAT)
    return (b"\n" + body + b"\n").rpartition(b"\n\n")[2]


def recorded_tick(store: Path) -> int:
    return int(store.read_bytes()[:-1].rpartition(b" ")[2])


CONTENT = st.lists(st.sampled_from([b"#", b"\n", b"\r", b"a", b"bc", b"\xff"]),
                   max_size=40).map(b"".join)
STEP = st.tuples(
    st.sampled_from(["same-size", "restore-mtime", "append", "truncate", "recreate",
                     "identical", "edit-cache", "truncate-cache"]),
    st.integers(0, 2),
    CONTENT,
)


class TestCacheProperty:
    @given(initial=st.lists(CONTENT, min_size=3, max_size=3), steps=st.lists(STEP, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_every_cached_digest_equals_the_oracle(self, initial, steps):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(state, "CHUNK_SIZE", SMALL_CHUNK):
            root = Path(tmp)
            files = [root / name for name in ("a.csv", "b.txt", "c.dat")]
            cache_file = root / "build" / STATE_RELPATH
            probe = root / "probe"
            for path, data in zip(files, initial):
                path.write_bytes(data * 3)

            def check() -> None:
                # Hash in a later clock tick than every edit, so that the
                # cache written below trusts what it stores.
                wait_past(files + [cache_file], probe)
                cache = BuildState.load(root / "build")
                for path in files:
                    for prefix in PREFIXES:
                        assert file_digest(path, "sha256", prefix, cache=cache) == \
                            oracle(path, prefix), (path.name, prefix)
                cache.save(root / "build")

            check()
            for kind, index, data in steps:
                path = files[index]
                old = path.read_bytes()
                if kind == "same-size":
                    path.write_bytes(bytes((b + 1) % 256 for b in old))
                elif kind == "restore-mtime":
                    before = path.stat()
                    path.write_bytes(bytes((b + 7) % 256 for b in old))
                    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
                elif kind == "append":
                    with open(path, "ab") as fh:
                        fh.write(data + b"x")
                elif kind == "truncate":
                    os.truncate(path, len(old) // 2)
                elif kind == "recreate":
                    path.unlink()
                    path.write_bytes(data + old[len(data):])
                elif kind == "identical":
                    path.write_bytes(old)
                elif cache_file.exists():
                    lines = cache_file.read_bytes().split(b"\n")
                    n = index % len(lines)
                    fields = lines[n].split(b"\t")
                    if kind == "edit-cache" and len(fields) == 9:
                        # a StatKey field of a file entry; a digest or key
                        # edited into another well-formed value is trusted
                        # as written. Any other line, the format line
                        # included, is truncated.
                        field = 3 + len(data) % 5
                        fields[field] = data.hex().encode() or b"1"
                        lines[n] = b"\t".join(fields)
                    else:
                        lines[n] = lines[n][:len(data) % (len(lines[n]) + 1)]
                    cache_file.write_bytes(b"\n".join(lines))
                check()


class TestRacyRule:
    def cached_with_wrong_digest(self, tmp_path: Path) -> tuple[Path, Path]:
        """A file whose file-table entry matches its StatKey but holds a
        wrong digest, so a trusted entry shows in the result."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"0123456789" * 10)
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))  # mtime long ago
        return path, tmp_path / "build" / STATE_RELPATH

    def digest_with_cache_mtime(self, tmp_path, path, cache_file, tick) -> str:
        """The digest served by a store whose format line records `tick`."""
        write_store(cache_file, cache_line(path, "0" * 64), tick)
        return file_digest(path, cache=BuildState.load(tmp_path / "build"))

    def test_entry_older_than_the_cache_is_trusted(self, tmp_path, small_chunks):
        path, cache_file = self.cached_with_wrong_digest(tmp_path)
        later = path.stat().st_ctime_ns + 1
        assert self.digest_with_cache_mtime(tmp_path, path, cache_file, later) == "0" * 64

    def test_mtime_not_older_than_the_cache_is_rehashed(self, tmp_path, small_chunks):
        path, cache_file = self.cached_with_wrong_digest(tmp_path)
        future = time.time_ns() + 3600 * 10**9
        os.utime(path, ns=(future, future))
        after_ctime = path.stat().st_ctime_ns + 1  # only the mtime is not older
        assert self.digest_with_cache_mtime(tmp_path, path, cache_file, after_ctime) == \
            oracle(path, None)

    def test_ctime_not_older_than_the_cache_is_rehashed(self, tmp_path, small_chunks):
        # mtime set long ago by os.utime; the ctime of that call is what
        # shows the file was written in the store's tick
        path, cache_file = self.cached_with_wrong_digest(tmp_path)
        same_tick = path.stat().st_ctime_ns
        assert path.stat().st_mtime_ns < same_tick
        assert self.digest_with_cache_mtime(tmp_path, path, cache_file, same_tick) == \
            oracle(path, None)

    def test_racy_rehash_rewrites_the_cache(self, tmp_path, small_chunks):
        path, cache_file = self.cached_with_wrong_digest(tmp_path)
        write_store(cache_file, cache_line(path, "0" * 64), path.stat().st_ctime_ns)
        cache = BuildState.load(tmp_path / "build")
        assert file_digest(path, cache=cache) == oracle(path, None)
        cache.save(tmp_path / "build")
        assert file_table(cache_file) == cache_line(path, oracle(path, None))
        assert recorded_tick(cache_file) > path.stat().st_ctime_ns

    def test_racy_entry_is_not_carried_into_a_later_store(self, tmp_path, small_chunks):
        """An entry the racy rule refused is dropped at load, so a save
        with a newer tick, made for another entry, cannot trust it."""
        racy, build = self.cached_with_wrong_digest(tmp_path)[0], tmp_path / "build"
        other = tmp_path / "other.csv"
        other.write_bytes(b"9876543210" * 10)
        store = build / STATE_RELPATH
        write_store(store, cache_line(racy, "0" * 64), racy.stat().st_ctime_ns)
        cache = BuildState.load(build)
        assert file_digest(other, cache=cache) == oracle(other, None)
        wait_past([racy, other], tmp_path / "probe")
        cache.save(build)
        assert recorded_tick(store) > racy.stat().st_ctime_ns
        assert file_digest(racy, cache=BuildState.load(build)) == oracle(racy, None)

    def test_moving_the_store_mtime_trusts_no_racy_entry(self, tmp_path):
        """A large file changed in (or after) the clock tick of the store
        that records it stays untrusted when the store's mtime is moved
        past it, as a `touch` or a restore from backup moves it."""
        path, build = tmp_path / "big.csv", tmp_path / "build"
        path.write_bytes(b"0123456789abcdef" * (state.CHUNK_SIZE // 8))
        # An mtime no write tick of this save can pass: the racy case.
        ahead = time.time_ns() + 3600 * 10**9
        os.utime(path, ns=(ahead, ahead))
        cache = BuildState.load(build)
        assert file_digest(path, cache=cache) == oracle(path, None)
        cache.save(build)
        store = build / STATE_RELPATH
        assert file_table(store) == cache_line(path, oracle(path, None))
        # A well-formed hand edit of the digest shows whether it is trusted.
        store.write_bytes(store.read_bytes().replace(oracle(path, None).encode(), b"0" * 64))
        os.utime(store, ns=(ahead + 10**9, ahead + 10**9))
        assert file_digest(path, cache=BuildState.load(build)) == oracle(path, None)


class TestCacheFile:
    def test_change_between_hash_and_save_is_seen(self, tmp_path, small_chunks):
        # Only the ctime in the StatKey shows this edit: same inode, same
        # size, mtime restored, and both older than the store's tick.
        path, probe = tmp_path / "data.csv", tmp_path / "probe"
        path.write_bytes(b"0123456789" * 4)
        cache = BuildState.load(tmp_path)
        file_digest(path, cache=cache)
        wait_past([path], probe)
        before = path.stat()
        path.write_bytes(b"9876543210" * 4)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        wait_past([path], probe)
        cache.save(tmp_path)
        assert file_digest(path, cache=BuildState.load(tmp_path)) == oracle(path, None)

    def test_small_files_are_not_cached(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_bytes(b"x" * (state.CHUNK_SIZE - 1))
        cache = BuildState.load(tmp_path)
        assert file_digest(path, cache=cache) == oracle(path, None)
        cache.save(tmp_path)
        assert not (tmp_path / STATE_RELPATH).exists()

    def test_keeps_each_entry_until_its_file_is_hashed_again(self, tmp_path, small_chunks):
        paths = [tmp_path / f"f{i}.csv" for i in range(3)]
        for path in paths:
            path.write_bytes(path.name.encode() * 10)
        probe = tmp_path / "probe"
        wait_past(paths, probe)  # so that the store's tick trusts every entry
        cache = BuildState.load(tmp_path)
        for path in paths:
            file_digest(path, cache=cache)
        cache.save(tmp_path)
        cache_file = tmp_path / STATE_RELPATH
        assert file_table(cache_file) == b"".join(
            sorted(cache_line(p, oracle(p, None)) for p in paths))
        plain = tmp_path / "plain"
        plain.write_bytes(b"")  # the mode the umask gives, readable by a build group
        assert cache_file.stat().st_mode == plain.stat().st_mode
        assert sorted(os.listdir(cache_file.parent)) == ["build-state.tsv"]

        # A make that uses one entry keeps the others and writes nothing.
        before = cache_file.stat().st_mtime_ns
        cache = BuildState.load(tmp_path)
        file_digest(paths[0], cache=cache)
        cache.save(tmp_path)
        assert cache_file.stat().st_mtime_ns == before

        # A file hashed with a new StatKey replaces its own entry only.
        paths[1].write_bytes(b"changed" * 10)
        wait_past(paths, probe)
        cache = BuildState.load(tmp_path)
        for path in paths:
            file_digest(path, cache=cache)
        cache.save(tmp_path)
        assert file_table(cache_file) == b"".join(
            sorted(cache_line(p, oracle(p, None)) for p in paths))

    @pytest.mark.parametrize("name", ["tab\there.csv", "line\nbreak.csv", "cr\rhere.csv"])
    def test_path_with_tab_or_line_break_is_never_written(self, tmp_path, small_chunks, name):
        odd, plain = tmp_path / name, tmp_path / "plain.csv"
        for path in (odd, plain):
            path.write_bytes(b"0123456789" * 4)
        cache = BuildState.load(tmp_path / "build")
        assert file_digest(odd, cache=cache) == oracle(odd, None)
        assert file_digest(plain, cache=cache) == oracle(plain, None)
        cache.save(tmp_path / "build")
        assert file_table(tmp_path / "build" / STATE_RELPATH) == \
            cache_line(plain, oracle(plain, None))

    @pytest.mark.parametrize("damage", ["missing", "directory", "binary", "short-digest",
                                        "bad-algorithm", "four-stat-fields"])
    def test_unreadable_cache_only_rehashes(self, tmp_path, small_chunks, damage, caplog):
        path = tmp_path / "data.csv"
        path.write_bytes(b"0123456789" * 4)
        cache_file = tmp_path / "build" / STATE_RELPATH
        cache_file.parent.mkdir(parents=True)
        wrong = cache_line(path, "0" * 64)
        future = time.time_ns() + 3600 * 10**9  # a tick that would trust the entry
        if damage == "directory":
            cache_file.mkdir()
        elif damage == "binary":
            cache_file.write_bytes(bytes(range(256)) * 4)
        elif damage == "short-digest":
            write_store(cache_file, wrong[:-2] + b"\n", future)
        elif damage == "bad-algorithm":
            write_store(cache_file, wrong.replace(b"\tsha256\t", b"\tsha999\t"), future)
        elif damage == "four-stat-fields":
            fields = wrong.split(b"\t")
            write_store(cache_file, b"\t".join(fields[:3] + fields[4:]), future)
        wait_past([path], tmp_path / "probe")
        cache = BuildState.load(tmp_path / "build")
        assert file_digest(path, cache=cache) == oracle(path, None)
        if damage == "directory":
            with caplog.at_level(logging.WARNING, logger="lineage_forge.state"):
                cache.save(tmp_path / "build")  # a store that cannot be written only warns
            assert [r.getMessage().startswith(f"{cache_file}: could not write the build state")
                    for r in caplog.records] == [True]
            assert os.listdir(cache_file.parent) == ["build-state.tsv"]
        else:
            cache.save(tmp_path / "build")
            assert file_table(cache_file) == cache_line(path, oracle(path, None))


def write_tarballs(software: Path) -> None:
    software.mkdir()
    for tarball in ("demo-toolkit-1.0.tar.gz", "posix-shell-5.1.tar.gz"):
        (software / tarball).write_bytes(f"placeholder-{tarball}".encode())


class TestMakeUsesCacheVerifyDoesNot:
    def test_hand_edited_digest(self, demo_project, tmp_path, small_chunks):
        software = tmp_path / "software"
        write_tarballs(software)
        project.configure(demo_project, tmp_path / "build", input_dir="data",
                          software_dir=str(software))
        project.run_make(demo_project, mode=DIGEST, offline=True)
        cache_file = tmp_path / "build" / STATE_RELPATH
        deliverable = tmp_path / "build" / "demo" / "papers-formatted.txt"  # strip-comments:#
        key = os.fsencode(deliverable) + b"\tsha256\t23\t"
        lines = cache_file.read_bytes().splitlines(keepends=True)
        edited = [cache_line(deliverable, "0" * 64, b"#") if line.startswith(key) else line
                  for line in lines]
        assert edited != lines
        wait_past([deliverable, cache_file], tmp_path / "probe")
        cache_file.write_bytes(b"".join(edited))

        # make trusts the unchanged StatKey, so its verification fails ...
        with pytest.raises(VerificationFailed, match="papers-formatted"):
            project.run_make(demo_project, mode=DIGEST, offline=True)
        # ... while verify reads every byte
        result = project.run_verify(demo_project)
        assert result.ok and "demo/papers-formatted.txt" in [r.path for r in result.results]

        # configure hashes every tarball, whatever the store says
        tarballs = sorted(software.iterdir())
        write_store(cache_file, b"".join(cache_line(t, "0" * 128, algorithm="sha512")
                                         for t in tarballs), time.time_ns() + 3600 * 10**9)
        events = []
        project.configure(demo_project, tmp_path / "build", input_dir="data",
                          software_dir=str(software), on_event=events.append)
        assert [(e["name"], e["status"]) for e in events] == [
            ("demo-toolkit", "ok"), ("posix-shell", "ok")]

    def test_clean_deletes_the_cache(self, demo_project, tmp_path, small_chunks):
        project.run_make(demo_project, offline=True)
        cache_file = tmp_path / "build" / STATE_RELPATH
        assert file_table(cache_file)
        project.clean(demo_project)
        assert not cache_file.exists()

    def test_make_with_a_directory_in_place_of_the_cache(self, demo_project, tmp_path,
                                                         small_chunks, caplog):
        # A make that cannot save the store warns once, naming it, as it
        # does for lineage.json; the next make rebuilds what it would
        # have recorded.
        store = tmp_path / "build" / STATE_RELPATH
        store.mkdir()
        with caplog.at_level(logging.WARNING, logger="lineage_forge"):
            result = project.run_make(demo_project, mode=DIGEST, offline=True)
        assert result.verification.ok and result.aggregate_path.is_file()
        assert [r.getMessage().startswith(f"{store}: could not write the build state: ")
                for r in caplog.records if str(store) in r.getMessage()] == [True]
        assert project.run_verify(demo_project).ok


class TestModeSwitch:
    def test_timestamp_make_keeps_what_a_hash_make_hashed(self, demo_project, tmp_path,
                                                          small_chunks):
        """`make`, `make --hash`, `make`, `make --hash`: the timestamp
        no-op leaves the store as it was, so the last make hashes no
        file again."""
        store = tmp_path / "build" / STATE_RELPATH
        remembered = []
        remember = BuildState.remember

        def counted(self, key, stat, digest):
            remembered.append(key[0])
            remember(self, key, stat, digest)

        with mock.patch.object(BuildState, "remember", counted):
            project.run_make(demo_project, offline=True)
            wait_past([p for p in tmp_path.rglob("*") if p.is_file()], tmp_path / "probe")
            project.run_make(demo_project, mode=DIGEST, offline=True)
            before = store.read_bytes(), stat_key(store.stat())
            project.run_make(demo_project, offline=True)
            assert (store.read_bytes(), stat_key(store.stat())) == before
            remembered.clear()
            project.run_make(demo_project, mode=DIGEST, offline=True)
        assert remembered == []


def previous_records(root: Path) -> bytes:
    """The records of the built project as engines before StatKeys wrote
    them: each target's digest, then its prerequisites' digests in rule
    order, "" for a missing file."""
    def digest(path: Path) -> str:
        return file_digest(path) if path.is_file() else ""

    graph = project.Project.load(root).graph
    return b"".join(
        f"{target}\t1\t{digest(root / target)}\t"
        f"{';'.join(digest(root / p) for p in rule.prerequisites)}\n".encode("utf-8")
        for target, rule in sorted(graph.rules.items()))


class TestUpgrade:
    def test_state_of_the_previous_format_rebuilds_nothing(self, demo_project, tmp_path,
                                                           small_chunks):
        """A build directory whose state is a header-less build-state.tsv
        and a digests.tsv, as the engine wrote them before the store held
        the file table: the records are read as they were, and
        digests.tsv is ignored until `clean` deletes it."""
        project.run_make(demo_project, offline=True)
        build = tmp_path / "build"
        store, legacy = build / STATE_RELPATH, build / "state" / "digests.tsv"
        records = previous_records(demo_project)
        deliverable = build / "demo" / "papers-formatted.txt"
        wait_past([deliverable], tmp_path / "probe")
        store.write_bytes(records)
        # Wrong digests that a reader of digests.tsv would trust.
        legacy.write_bytes(cache_line(deliverable, "0" * 64, b"#") +
                           cache_line(deliverable, "0" * 64))

        for mode in ("timestamp", DIGEST):
            result = project.run_make(demo_project, mode=mode, offline=True)
            assert result.report.executed == []
            assert result.verification.ok
        assert store.read_bytes().startswith(records)
        assert recorded_tick(store) > 0
        assert project.run_verify(demo_project).ok

        project.clean(demo_project)
        assert not legacy.exists() and not store.exists()

    def test_format_1_store_rebuilds_nothing_until_a_record_moves_it_on(
            self, demo_project, tmp_path):
        """A store of format 1, whose records hold digests alone, is read
        as it is in either mode; the first make that records a target
        writes format 2, its records of old kept as they were."""
        project.run_make(demo_project, offline=True)
        store = tmp_path / "build" / STATE_RELPATH
        records = previous_records(demo_project)
        wait_past([p for p in tmp_path.rglob("*") if p.is_file()], tmp_path / "probe")
        old = records + b"\nlineage-forge build-state 1 tick %d\n" % time.time_ns()
        store.write_bytes(old)
        for mode in ("timestamp", DIGEST):
            assert project.run_make(demo_project, mode=mode, offline=True).report.executed == []
        assert store.read_bytes() == old

        conf = demo_project / "reproduce/analysis/config/demo-year.conf"
        conf.write_text(conf.read_text().replace("demo-year = 1996", "demo-year = 1997"))
        rebuilt = project.run_make(demo_project, offline=True).report.executed_targets()
        assert rebuilt
        lines = store.read_bytes().split(b"\n")
        assert lines[-2].startswith(b"lineage-forge build-state 2 tick ")
        kept = [line for line in records.split(b"\n")[:-1]
                if line.split(b"\t")[0].decode() not in rebuilt]
        assert kept and set(kept) <= set(lines)
        assert project.run_make(demo_project, mode=DIGEST, offline=True).report.executed == []
