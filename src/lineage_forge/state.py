"""Per-target build state, persisted under `<build>/state/build-state.tsv`.

One line per target: path, epoch seconds of the last successful build,
the target's content digest, and the semicolon-joined digests of its
prerequisites as they were at build time (in rule order). Digests are
lowercase hex SHA-256; digest-mode staleness compares against them. A
line that does not parse (a truncated write, a hand edit) is skipped with
a warning; that can only make its target rebuild.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger("lineage_forge.state")

STATE_RELPATH = "state/build-state.tsv"
CHUNK_SIZE = 1 << 16


def file_digest(path: str | Path, algorithm: str = "sha256",
                strip_prefix: bytes | None = None) -> str:
    """Streaming content digest, lowercase hex. With `strip_prefix` (one
    byte), every line starting with it is dropped, line end included,
    before hashing. Memory use is bounded by CHUNK_SIZE either way."""
    h = hashlib.new(algorithm)
    with open(path, "rb") as fh:
        chunks = iter(lambda: fh.read(CHUNK_SIZE), b"")
        for chunk in chunks if strip_prefix is None else _strip_lines(chunks, strip_prefix):
            h.update(chunk)
    return h.hexdigest()


def _strip_lines(chunks: Iterable[bytes], prefix: bytes) -> Iterator[bytes]:
    """Drop the lines starting with `prefix`. Lines end at LF, CR or CRLF,
    as `bytes.splitlines` splits them; each chunk's unfinished last line is
    carried into the next. A carry longer than a chunk is passed on early,
    keeping only its first byte (which decides its fate) and its last (a CR
    may pair with the next LF); `skip` counts kept carried bytes passed on."""
    carry, skip = b"", 0
    for chunk in chunks:
        lines = (carry + chunk).splitlines(keepends=True)
        carry = lines.pop()
        if lines:
            yield b"".join([line for line in lines if not line.startswith(prefix)])[skip:]
            skip = 0
        if len(carry) > CHUNK_SIZE:
            if not carry.startswith(prefix):
                yield carry[skip:-1]
                skip = 1
            carry = carry[:1] + carry[-1:]
    if not carry.startswith(prefix):
        yield carry[skip:]


@dataclass(frozen=True)
class TargetRecord:
    target: str
    built_at: int
    target_digest: str
    prereq_digests: tuple[str, ...]


@dataclass
class BuildState:
    records: dict[str, TargetRecord] = field(default_factory=dict)

    def get(self, target: str) -> TargetRecord | None:
        return self.records.get(target)

    def put(self, record: TargetRecord) -> None:
        self.records[record.target] = record

    def forget(self, target: str) -> None:
        self.records.pop(target, None)

    @classmethod
    def load(cls, build_dir: str | Path) -> "BuildState":
        path = Path(build_dir) / STATE_RELPATH
        state = cls()
        if not path.is_file():
            return state
        for lineno, raw in enumerate(path.read_bytes().split(b"\n"), start=1):
            if not raw.strip():
                continue
            try:
                target, epoch, tdigest, prereqs = raw.decode("utf-8").split("\t")
                record = TargetRecord(
                    target=target,
                    built_at=int(epoch),
                    target_digest=tdigest,
                    prereq_digests=tuple(d for d in prereqs.split(";") if d),
                )
            except ValueError:
                log.warning("%s:%d: skipping malformed build-state record", path, lineno)
                continue
            state.put(record)
        return state

    def save(self, build_dir: str | Path) -> None:
        path = Path(build_dir) / STATE_RELPATH
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for target in sorted(self.records):
            rec = self.records[target]
            lines.append(
                "\t".join(
                    [
                        rec.target,
                        str(rec.built_at),
                        rec.target_digest,
                        ";".join(rec.prereq_digests),
                    ]
                )
            )
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
