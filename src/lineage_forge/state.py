"""The build state, `<build>/state/build-state.tsv`: the one state store.

It holds, in this order:

- the target records, one line each: path, epoch seconds of the last
  successful build, the target's content digest, and the
  semicolon-joined digests of its prerequisites at build time (in rule
  order), lowercase hex SHA-256, which digest-mode staleness compares
  against. A prerequisite missing when its target was recorded gets an
  empty digest, which parsing drops, so the target stays stale under
  `--hash` until it is rebuilt with every prerequisite present;
- an empty line, then the file table (see `BuildState.lookup`);
- the format line, `lineage-forge build-state <format> tick <ns>`,
  with the store's write tick (`write_tick`).

`BuildState.load` reads the file, its format line and the file table;
the records are parsed on their first use, so a timestamp-mode no-op
parses none. A record that does not parse (a hand edit) is skipped with
a warning, and can only make its target rebuild; a file entry that does
not parse only costs a hash. A file with no format line, written before
the file table existed or cut short, is read as records alone: an
upgrade rebuilds nothing. A store that cannot be written is one warning,
as `lineage.json` is.

The file table and `lineage.json` (see `lineage_cache.py`) trust a file
by its StatKey under one racy rule, `trusted`, against the write tick
each records. Every file the engine owns is written by `staged`, and
`write_changed` skips a write of the bytes the file holds already.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

log = logging.getLogger("lineage_forge.state")

STATE_RELPATH = "state/build-state.tsv"
FORMAT = 1
CHUNK_SIZE = 1 << 16
_HEX_RE = re.compile(r"[0-9a-f]+")
_FORMAT_LINE = re.compile(rb"lineage-forge build-state (\d+) tick (\d+)\n?")

# (st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)
StatKey = tuple[int, int, int, int, int]
# (absolute path, algorithm, strip prefix)
DigestKey = tuple[str, str, bytes | None]


def stat_key(st: os.stat_result) -> StatKey:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def trusted(current: StatKey, recorded: StatKey, tick: int) -> bool:
    """Whether a file whose StatKey was `recorded` in a cache that records
    `tick` as its write tick is unchanged. The key must be equal, and its
    mtime and ctime strictly older than the tick: a file changed in the
    clock tick the cache was written in could change again in that tick
    without changing its StatKey (git's racy-timestamp rule). ctime counts
    too because `os.utime` can set mtime back, and nothing can set ctime.
    The tick is the one the cache recorded, not its file's mtime, which a
    `touch`, a restore or a hand edit moves."""
    return current == recorded and max(current[3:]) < tick


def write_tick(tmp: Path) -> int:
    """Make `tmp`, the temp file of a `staged` write, and return its
    mtime: the file system's clock before any byte of the new file is
    written. A cache records it as its write tick (see `trusted`)."""
    tmp.touch()
    return tmp.stat().st_mtime_ns


@contextlib.contextmanager
def staged(path: str | Path) -> Iterator[Path]:
    """Replace `path` with the file the block writes at the yielded temp
    path, `<name>.<pid>` in `path`'s directory (made if missing). A normal
    exit renames the temp over `path`; any exception, KeyboardInterrupt
    included, removes it and leaves `path` as it was. The file gets the
    umask's mode, so a build group can read it. No fsync yet.

    Written in place instead: recipe logs (the children write them), the
    `demo` tree, `configure`'s write probe, the user's `.gitignore`, and
    the user-named outputs of `graph --out` and `dist`, which may be
    `/dev/stdout`, a FIFO or a symlink that a rename would replace."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the block may not have made it
            tmp.unlink()
        raise


def write_changed(path: Path, data: bytes) -> bool:
    """Replace `path` with `data` through `staged`, unless it holds those
    bytes already: its mtime changes only with its content. Returns
    whether it wrote."""
    try:
        if path.read_bytes() == data:
            return False
    except OSError:
        pass
    with staged(path) as tmp:
        tmp.write_bytes(data)
    return True


def file_digest(path: str | Path, algorithm: str = "sha256",
                strip_prefix: bytes | None = None, *,
                cache: BuildState | None = None) -> str:
    """Streaming content digest, lowercase hex. With `strip_prefix` (one
    byte), every line starting with it is dropped, line end included,
    before hashing. Memory use is bounded by CHUNK_SIZE either way.

    With `cache`, a file of at least CHUNK_SIZE bytes is looked up in its
    file table by the stat key of the open file, and hashed and stored
    only on a miss. Smaller files cost no more to read than to look up,
    so they are always hashed."""
    with open(path, "rb") as fh:
        key = None
        if cache is not None:
            st = os.fstat(fh.fileno())
            if st.st_size >= CHUNK_SIZE:
                key = (os.path.abspath(path), algorithm, strip_prefix)
                key_now = stat_key(st)
                digest = cache.lookup(key, key_now)
                if digest is not None:
                    return digest
        h = hashlib.new(algorithm)
        chunks = iter(lambda: fh.read(CHUNK_SIZE), b"")
        for chunk in chunks if strip_prefix is None else _strip_lines(chunks, strip_prefix):
            h.update(chunk)
    digest = h.hexdigest()
    if key is not None:
        cache.remember(key, key_now, digest)
    return digest


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


class TargetRecord(NamedTuple):
    target: str
    built_at: int
    target_digest: str
    prereq_digests: tuple[str, ...]


class BuildState:
    """The store: the target records, by target, and the file table.

    `load` reads the file's bytes, its format line and the file table;
    the first `get`, `put` or read of `records` parses the records.
    `changed` is True once a record or a file entry is put or dropped, or
    a damaged line read; `save` writes nothing unless it is."""

    def __init__(self):
        self._records: dict[str, TargetRecord] = {}
        self._files: dict[DigestKey, tuple[StatKey, str]] = {}
        self._tick = 0  # as recorded; 0 trusts no entry
        # Until parsed: the file, its bytes and where its records end (-1:
        # at the end).
        self._unparsed: tuple[Path, bytes, int] | None = None
        self.changed = False

    @property
    def records(self) -> dict[str, TargetRecord]:
        if self._unparsed is not None:
            self._parse(*self._unparsed)
        return self._records

    def get(self, target: str) -> TargetRecord | None:
        return self.records.get(target)

    def put(self, record: TargetRecord) -> None:
        self.records[record.target] = record
        self.changed = True

    def lookup(self, key: DigestKey, stat: StatKey) -> str | None:
        """The digest the file table holds for `key`, a large file, if
        its StatKey is `stat` and `trusted` against the store's tick."""
        entry = self._files.get(key)
        if entry is None or not trusted(stat, entry[0], self._tick):
            return None
        return entry[1]

    def remember(self, key: DigestKey, stat: StatKey, digest: str) -> None:
        if any(c in key[0] for c in "\t\n\r"):
            return  # the line could not be read back
        self._files[key] = (stat, digest)
        self.changed = True

    @classmethod
    def load(cls, build_dir: str | Path) -> "BuildState":
        state = cls()
        path = Path(build_dir) / STATE_RELPATH
        if not path.is_file():
            return state
        data = path.read_bytes()
        last = data.rfind(b"\n", 0, len(data) - 1) + 1  # where the format line starts
        line = _FORMAT_LINE.fullmatch(data, last)
        cut = -1
        if line is not None and int(line[1]) == FORMAT:
            # The file table runs from the last empty line to the format line.
            cut = data.rfind(b"\n\n", 0, last) + 1 or (0 if data[:1] == b"\n" else -1)
            if cut >= 0:
                state._tick = int(line[2])
                state._parse_files(data[cut + 1:last])
        state._unparsed = (path, data, cut)
        return state

    def _parse(self, path: Path, data: bytes, cut: int) -> None:
        # Nothing is kept until the last line is parsed: an interrupted
        # parse leaves the bytes unparsed, and `save` then writes nothing.
        records: dict[str, TargetRecord] = {}
        dropped = False
        for lineno, raw in enumerate((data if cut < 0 else data[:cut]).split(b"\n"), start=1):
            if not raw.strip():
                continue
            try:
                target, epoch, tdigest, prereqs = raw.decode("utf-8").split("\t")
                digests = prereqs.split(";")
                if "" in digests:  # a missing prerequisite's digest
                    digests = [d for d in digests if d]
                records[target] = TargetRecord(target, int(epoch), tdigest, tuple(digests))
            except ValueError:
                # A file entry or format line out of place is no record.
                if raw.count(b"\t") == 8 or _FORMAT_LINE.fullmatch(raw):
                    continue
                log.warning("%s:%d: skipping malformed build-state record", path, lineno)
                dropped = True
        self._records, self._unparsed = records, None
        if dropped:
            self.changed = True  # the next save drops the line

    def _parse_files(self, table: bytes) -> None:
        """Per line: absolute path, algorithm, strip prefix (hex, `-` for
        none), the five StatKey fields and the digest. A line that parses
        is trusted as written, unless its file changed in or after the
        store's tick: that entry the racy rule refused, and a later save,
        with a newer tick, would trust it."""
        for raw in table.split(b"\n")[:-1]:
            try:
                path, algorithm, prefix, *stat_fields, digest = raw.split(b"\t")
                stat = tuple(int(n) for n in stat_fields)
                algorithm = algorithm.decode("ascii")
                digest = digest.decode("ascii")
                if (len(stat) != 5 or not _HEX_RE.fullmatch(digest)
                        or len(digest) != 2 * hashlib.new(algorithm).digest_size):
                    raise ValueError(raw)
                key = (os.fsdecode(path), algorithm,
                       None if prefix == b"-" else bytes.fromhex(prefix.decode("ascii")))
            except ValueError:
                self.changed = True  # the next save drops the line
                continue
            if max(stat[3:]) < self._tick:
                self._files[key] = (stat, digest)

    def save(self, build_dir: str | Path) -> None:
        """Write the records, the file table and the format line, with the
        tick of this write, if anything changed. A store that cannot be
        written only costs a warning: the next make rebuilds or re-hashes
        what it would have recorded."""
        if not self.changed:
            return
        lines = [f"{r.target}\t{r.built_at}\t{r.target_digest}\t{';'.join(r.prereq_digests)}\n"
                 for _target, r in sorted(self.records.items())]
        files = sorted(os.fsencode("\t".join([path, algorithm, "-" if prefix is None else prefix.hex(),
                                               *map(str, stat), digest])) + b"\n"
                       for (path, algorithm, prefix), (stat, digest) in self._files.items())
        path = Path(build_dir) / STATE_RELPATH
        try:
            with staged(path) as tmp:
                tail = b"lineage-forge build-state %d tick %d\n" % (FORMAT, write_tick(tmp))
                tmp.write_bytes(b"".join(["".join(lines).encode("utf-8"), b"\n", *files, tail]))
            self.changed = False
        except OSError as exc:
            log.warning("%s: could not write the build state: %s", path, exc)
