"""`build-state.tsv` round trips: what `BuildState.save` writes,
`BuildState.load` reads back, minus the empty digests `_record` writes for
a prerequisite that was missing; a damaged line is skipped, when the
records are first read, with a warning naming the file and line, and the
lines around it still load."""

from __future__ import annotations

import logging
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

from hypothesis import given, settings, strategies as st

from lineage_forge.state import STATE_RELPATH, BuildState, TargetRecord

TARGETS = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\t\n\r"), max_size=12)
DIGESTS = st.one_of(st.just(""), st.text("0123456789abcdef", min_size=64, max_size=64))
RECORDS = st.dictionaries(
    TARGETS,
    st.tuples(st.integers(-2**63, 2**63), DIGESTS, st.lists(DIGESTS, max_size=4)),
    max_size=8,
)
DAMAGES = ("cut-last-field", "extra-field", "bad-epoch", "not-utf8")
T = TypeVar("T")


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
    @given(records=RECORDS)
    @settings(max_examples=150, deadline=None)
    def test_save_then_load_drops_only_empty_prerequisite_digests(self, records):
        state = BuildState()
        for target, (epoch, tdigest, digests) in records.items():
            state.put(TargetRecord(target, epoch, tdigest, tuple(digests)))
        with tempfile.TemporaryDirectory() as tmp:
            state.save(tmp)
            loaded = BuildState.load(Path(tmp))
            read, warnings = logged(lambda: loaded.records)
        assert warnings == []
        assert not loaded.changed
        assert read == {
            target: TargetRecord(target, epoch, tdigest, tuple(d for d in digests if d))
            for target, (epoch, tdigest, digests) in records.items()
        }

    @given(records=RECORDS.filter(bool), pick=st.integers(0), kind=st.sampled_from(DAMAGES))
    @settings(max_examples=100, deadline=None)
    def test_damaged_line_is_skipped_with_its_path_and_line(self, records, pick, kind):
        state = BuildState()
        for target, (epoch, tdigest, digests) in records.items():
            state.put(TargetRecord(target, epoch, tdigest, tuple(digests)))
        with tempfile.TemporaryDirectory() as tmp:
            state.save(tmp)
            path = Path(tmp) / STATE_RELPATH
            lines = path.read_bytes().split(b"\n")[:-1]
            n = pick % len(lines)
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
