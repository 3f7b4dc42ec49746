"""`build-state.tsv` round trips: what `BuildState.save` writes,
`BuildState.load` reads back, minus the empty digests `_record` writes for
a prerequisite that was missing; a damaged line is skipped with a warning
naming the file and line, and the lines around it still load."""

from __future__ import annotations

import logging
import tempfile
from pathlib import Path

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


def load_logged(build: Path) -> tuple[BuildState, list[str]]:
    handler = Warnings()
    logger = logging.getLogger("lineage_forge.state")
    logger.addHandler(handler)
    try:
        return BuildState.load(build), handler.messages
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
            loaded, warnings = load_logged(Path(tmp))
        assert warnings == []
        assert not loaded.changed
        assert loaded.records == {
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
            loaded, warnings = load_logged(Path(tmp))
        assert warnings == [f"{path}:{n + 1}: skipping malformed build-state record"]
        assert loaded.changed  # the next save drops the line
        skipped = sorted(records)[n]
        assert loaded.records == {
            target: TargetRecord(target, epoch, tdigest, tuple(d for d in digests if d))
            for target, (epoch, tdigest, digests) in records.items() if target != skipped
        }
