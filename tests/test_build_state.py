"""`build-state.tsv` round trips: what `BuildState.save` writes,
`BuildState.load` reads back, both the records, minus the empty digests
`_record` writes for a prerequisite that was missing, and the file
table. A damaged record is skipped, when the records are first read,
with a warning naming the file and line, and the lines around it still
load; a damaged format line trusts no file entry and keeps every
record."""

from __future__ import annotations

import logging
import tempfile
from pathlib import Path
from typing import Callable, TypeVar
from unittest import mock

from hypothesis import given, settings, strategies as st

from lineage_forge.state import FORMAT, STATE_RELPATH, BuildState, TargetRecord, stat_key

TARGETS = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\t\n\r"), max_size=12)
DIGESTS = st.one_of(st.just(""), st.text("0123456789abcdef", min_size=64, max_size=64))
RECORDS = st.dictionaries(
    TARGETS,
    st.tuples(st.integers(-2**63, 2**63), DIGESTS, st.lists(DIGESTS, max_size=4)),
    max_size=8,
)
# Each algorithm with its digest's length in hex.
ALGORITHMS = {"sha256": 64, "sha512": 128, "md5": 32}
FILE_KEYS = st.tuples(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
            min_size=1, max_size=12).map(lambda name: "/data/" + name),
    st.sampled_from(sorted(ALGORITHMS)),
    st.one_of(st.none(), st.binary(min_size=1, max_size=1)),
)
# StatKeys of files last changed long before any write tick.
STAT_KEYS = st.tuples(*[st.integers(0, 2**40)] * 5)
FILES = st.dictionaries(FILE_KEYS, STAT_KEYS, max_size=6)
DAMAGES = ("cut-last-field", "extra-field", "bad-epoch", "not-utf8")
FORMAT_DAMAGES = ("cut", "no-tick", "bad-tick", "other-format", "not-utf8", "removed")
T = TypeVar("T")


def filled(records: dict, files: dict) -> BuildState:
    """A state holding `records` and, in its file table, `files`, each
    with a digest of its algorithm's length."""
    state = BuildState()
    for target, (epoch, tdigest, digests) in records.items():
        state.put(TargetRecord(target, epoch, tdigest, tuple(digests)))
    for key, stat in files.items():
        state.remember(key, stat, digest_for(key))
    return state


def snapshot(path: Path) -> tuple | None:
    """The file's bytes and StatKey, which any write changes."""
    return (path.read_bytes(), stat_key(path.stat())) if path.exists() else None


def digest_for(key: tuple) -> str:
    return f"{abs(hash(key)):x}".rjust(ALGORITHMS[key[1]], "0")[:ALGORITHMS[key[1]]]


def damaged(line: bytes, kind: str) -> bytes:
    """The line changed so that it cannot parse."""
    if kind == "cut-last-field":  # a write cut off before the last field
        return line[:line.rindex(b"\t")]
    if kind == "extra-field":
        return line + b"\tx"
    if kind == "bad-epoch":
        target, _epoch, rest = line.split(b"\t", 2)
        return b"\t".join([target, b"1.5", rest])
    return b"\xff" + line


class Warnings(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def logged(call: Callable[[], T]) -> tuple[T, list[str]]:
    """What `call` returns, and the warnings it logged."""
    handler = Warnings()
    logger = logging.getLogger("lineage_forge.state")
    logger.addHandler(handler)
    try:
        return call(), handler.messages
    finally:
        logger.removeHandler(handler)


class TestRoundTrip:
    @given(records=RECORDS, files=FILES)
    @settings(max_examples=150, deadline=None)
    def test_save_then_load_drops_only_empty_prerequisite_digests(self, records, files):
        state = filled(records, files)
        with tempfile.TemporaryDirectory() as tmp:
            state.save(tmp)
            path = Path(tmp) / STATE_RELPATH
            loaded = BuildState.load(Path(tmp))
            read, warnings = logged(lambda: loaded.records)
            assert {key: loaded.lookup(key, stat) for key, stat in files.items()} == \
                {key: digest_for(key) for key in files}
            assert warnings == []
            assert not loaded.changed
            before = snapshot(path)
            loaded.save(tmp)  # nothing changed: no write
            assert snapshot(path) == before
        assert read == {
            target: TargetRecord(target, epoch, tdigest, tuple(d for d in digests if d))
            for target, (epoch, tdigest, digests) in records.items()
        }

    @given(records=RECORDS.filter(bool), files=FILES, pick=st.integers(0),
           kind=st.sampled_from(DAMAGES))
    @settings(max_examples=100, deadline=None)
    def test_damaged_line_is_skipped_with_its_path_and_line(self, records, files, pick, kind):
        state = filled(records, files)
        with tempfile.TemporaryDirectory() as tmp:
            state.save(tmp)
            path = Path(tmp) / STATE_RELPATH
            lines = path.read_bytes().split(b"\n")[:-1]
            n = pick % len(records)  # the records come first, in target order
            lines[n] = damaged(lines[n], kind)
            path.write_bytes(b"".join(line + b"\n" for line in lines))
            loaded, at_load = logged(lambda: BuildState.load(Path(tmp)))
            path.unlink()  # the records are parsed from the bytes read at load
            read, warnings = logged(lambda: loaded.records)
        assert at_load == []  # a line is parsed, and reported, when first read
        assert warnings == [f"{path}:{n + 1}: skipping malformed build-state record"]
        assert loaded.changed  # the next save drops the line
        skipped = sorted(records)[n]
        assert read == {
            target: TargetRecord(target, epoch, tdigest, tuple(d for d in digests if d))
            for target, (epoch, tdigest, digests) in records.items() if target != skipped
        }
        assert {key: loaded.lookup(key, stat) for key, stat in files.items()} == \
            {key: digest_for(key) for key in files}

    @given(records=RECORDS, files=FILES.filter(bool), kind=st.sampled_from(FORMAT_DAMAGES))
    @settings(max_examples=100, deadline=None)
    def test_damaged_format_line_trusts_no_file_entry(self, records, files, kind):
        state = filled(records, files)
        with tempfile.TemporaryDirectory() as tmp:
            state.save(tmp)
            path = Path(tmp) / STATE_RELPATH
            *lines, last = path.read_bytes().split(b"\n")[:-1]
            assert last.startswith(b"lineage-forge build-state %d tick " % FORMAT)
            last = {
                "cut": last[:-1 - len(last) // 2],
                "no-tick": last.rpartition(b" ")[0],
                "bad-tick": last + b"x",
                "other-format": last.replace(b" %d " % FORMAT, b" 9 "),
                "not-utf8": b"\xff" + last,
                "removed": None,
            }[kind]
            path.write_bytes(b"".join(line + b"\n" for line in [*lines, last] if line is not None))
            loaded = BuildState.load(Path(tmp))
            assert all(loaded.lookup(key, stat) is None for key, stat in files.items())
            read, warnings = logged(lambda: loaded.records)
        assert len(warnings) <= 1  # the damaged line itself, at most
        assert read == {
            target: TargetRecord(target, epoch, tdigest, tuple(d for d in digests if d))
            for target, (epoch, tdigest, digests) in records.items()
        }

    def test_interrupted_parse_keeps_the_file_whole(self, tmp_path, monkeypatch):
        import lineage_forge.state as state_mod

        state = BuildState()
        for n in range(3):
            state.put(TargetRecord(f"t{n}", n, "ab" * 32, ()))
        state.save(tmp_path)
        path = tmp_path / STATE_RELPATH
        lines = path.read_bytes().split(b"\n")[:-1]
        lines[0] = damaged(lines[0], "bad-epoch")  # sets `changed` as it is parsed
        data = b"".join(line + b"\n" for line in lines)
        path.write_bytes(data)
        loaded = BuildState.load(tmp_path)

        calls = []

        def interrupted(*fields):
            calls.append(fields)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return TargetRecord(*fields)

        monkeypatch.setattr(state_mod, "TargetRecord", interrupted)
        try:
            loaded.get("t1")
        except KeyboardInterrupt:
            pass
        monkeypatch.undo()
        assert not loaded.changed
        loaded.save(tmp_path)  # as `run_make`'s `finally` does
        assert path.read_bytes() == data
        assert sorted(logged(lambda: loaded.records)[0]) == ["t1", "t2"]

    def test_records_are_parsed_on_first_use_and_the_file_table_at_load(self, tmp_path):
        key, stat = ("/data/big.csv", "sha256", None), (1, 2, 3, 4, 5)
        filled({"out.txt": (1, "ab", ["cd"])}, {key: stat}).save(tmp_path)
        unused = mock.Mock(side_effect=AssertionError("parsed before its first use"))
        with mock.patch.object(BuildState, "_parse", unused), \
                mock.patch.object(BuildState, "_parse_files", autospec=True,
                                  side_effect=BuildState._parse_files) as parse_files:
            loaded = BuildState.load(tmp_path)
            assert parse_files.call_count == 1
            assert loaded.lookup(key, stat) == digest_for(key)
        assert parse_files.call_count == 1
        assert loaded.get("out.txt") == TargetRecord("out.txt", 1, "ab", ("cd",))
