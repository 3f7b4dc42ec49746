"""Per-target build state and the digest cache, both under `<build>/state/`.

`build-state.tsv` has one line per target: path, epoch seconds of the
last successful build, the target's content digest, and the
semicolon-joined digests of its prerequisites as they were at build time
(in rule order). Digests are lowercase hex SHA-256; digest-mode
staleness compares against them. A prerequisite that was missing when
the target was recorded is written as an empty digest, and parsing drops
empty digests, so the record holds fewer digests than the rule has
prerequisites and its target is always stale under `--hash` until it is
rebuilt with every prerequisite present. `BuildState.load` only reads
the file; its lines are parsed on the first use of a record, so a make
that consults none (a timestamp-mode no-op) parses none. A line that
does not parse (a truncated write, a hand edit) is skipped with a
warning when the lines are parsed; that can only make its target
rebuild.

`digests.tsv` caches the digests of large files for one `make` to the
next (see DigestCache); it may be deleted at any time. So may
`lineage.json`, the parsed project, one record per DSL file (see
`lineage_cache.py`). Both caches trust a file by its StatKey under one
racy rule (`trusted`): `digests.tsv` per large file, `lineage.json` per
DSL file's record. Every file the engine owns is written by `staged`;
`replace_file`, its form for the caches, logs a failed write instead,
and `write_changed` skips a write of the bytes the file holds already.
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
DIGESTS_RELPATH = "state/digests.tsv"
CHUNK_SIZE = 1 << 16
_HEX_RE = re.compile(r"[0-9a-f]+")

# (st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)
StatKey = tuple[int, int, int, int, int]
# (absolute path, algorithm, strip prefix)
DigestKey = tuple[str, str, bytes | None]


def stat_key(st: os.stat_result) -> StatKey:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def trusted(current: StatKey, recorded: StatKey, written_ns: int) -> bool:
    """Whether a file whose StatKey was `recorded` in a cache written at
    `written_ns` (the cache file's mtime) is unchanged. The key must be
    equal, and its mtime and ctime strictly older than the cache: a file
    changed in the clock tick the cache was written in could change again
    in that tick without changing its StatKey (git's racy-timestamp
    rule). ctime counts too because `os.utime` can set mtime back, and
    nothing can set ctime."""
    return current == recorded and max(current[3:]) < written_ns


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


def replace_file(path: Path, data: bytes) -> None:
    """Write a cache through `staged`; a cache may be lost at any time,
    so a write that fails is logged, not raised."""
    try:
        with staged(path) as tmp:
            tmp.write_bytes(data)
    except OSError as exc:
        log.warning("%s: could not write the cache: %s", path, exc)


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
                cache: DigestCache | None = None) -> str:
    """Streaming content digest, lowercase hex. With `strip_prefix` (one
    byte), every line starting with it is dropped, line end included,
    before hashing. Memory use is bounded by CHUNK_SIZE either way.

    With `cache`, a file of at least CHUNK_SIZE bytes is looked up by the
    stat key of the open file, and hashed and stored only on a miss.
    Smaller files cost no more to read than to look up, so they are
    always hashed."""
    with open(path, "rb") as fh:
        key = None
        if cache is not None:
            st = os.fstat(fh.fileno())
            if st.st_size >= CHUNK_SIZE:
                key = (os.path.abspath(path), algorithm, strip_prefix)
                key_now = stat_key(st)
                digest = cache.get(key, key_now)
                if digest is not None:
                    return digest
        h = hashlib.new(algorithm)
        chunks = iter(lambda: fh.read(CHUNK_SIZE), b"")
        for chunk in chunks if strip_prefix is None else _strip_lines(chunks, strip_prefix):
            h.update(chunk)
    digest = h.hexdigest()
    if key is not None:
        cache.put(key, key_now, digest)
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
    """The records of `build-state.tsv`, by target.

    `load` reads the file's bytes and keeps them; the first `get`, `put`,
    `forget` or read of `records` parses them, so a make that consults no
    record (a timestamp-mode no-op) parses none. A damaged line is
    reported when it is parsed. `changed` is True when the file on disk
    differs from `records`; `save` writes nothing otherwise."""

    def __init__(self):
        self._records: dict[str, TargetRecord] = {}
        self._unparsed: tuple[Path, bytes] | None = None  # the file and its bytes
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

    def forget(self, target: str) -> None:
        self.records.pop(target, None)
        self.changed = True

    @classmethod
    def load(cls, build_dir: str | Path) -> "BuildState":
        state = cls()
        path = Path(build_dir) / STATE_RELPATH
        if path.is_file():
            state._unparsed = (path, path.read_bytes())
        return state

    def _parse(self, path: Path, data: bytes) -> None:
        # Nothing is kept until the last line is parsed: an interrupted
        # parse leaves the bytes unparsed, and `save` then writes nothing.
        records: dict[str, TargetRecord] = {}
        dropped = False
        for lineno, raw in enumerate(data.split(b"\n"), start=1):
            if not raw.strip():
                continue
            try:
                target, epoch, tdigest, prereqs = raw.decode("utf-8").split("\t")
                digests = prereqs.split(";")
                if "" in digests:  # a missing prerequisite's digest
                    digests = [d for d in digests if d]
                records[target] = TargetRecord(target, int(epoch), tdigest, tuple(digests))
            except ValueError:
                log.warning("%s:%d: skipping malformed build-state record", path, lineno)
                dropped = True
        self._records, self._unparsed = records, None
        if dropped:
            self.changed = True  # the next save drops the line

    def save(self, build_dir: str | Path) -> None:
        if not self.changed:
            return
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
        with staged(Path(build_dir) / STATE_RELPATH) as tmp:
            tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.changed = False


class DigestCache:
    """Digests of large files from one `make` to the next, persisted as
    `<build>/state/digests.tsv`.

    One line per entry: absolute path, algorithm, strip prefix (hex, `-`
    for none), the five StatKey fields, digest. An entry is trusted only
    while the file's StatKey passes `trusted` against the cache file's
    mtime, as read at load. A line that does not parse, or a
    cache that cannot be read, only makes files get re-hashed. A line
    that parses is trusted as written. `save` writes the entries this
    make used, and nothing if they are the ones it loaded.
    """

    def __init__(self, path: Path):
        self.path = path
        self._loaded: dict[DigestKey, tuple[StatKey, str]] = {}
        self._written_ns = 0
        self._used: dict[DigestKey, tuple[StatKey, str]] = {}
        self._changed = False

    @classmethod
    def load(cls, build_dir: str | Path) -> "DigestCache":
        cache = cls(Path(build_dir) / DIGESTS_RELPATH)
        try:
            with open(cache.path, "rb") as fh:
                cache._written_ns = os.fstat(fh.fileno()).st_mtime_ns
                data = fh.read()
        except OSError:
            return cache
        for raw in data.split(b"\n"):
            if not raw:
                continue
            try:
                path, algorithm, prefix, *stat_fields, digest = raw.split(b"\t")
                stat_key = tuple(int(n) for n in stat_fields)
                algorithm = algorithm.decode("ascii")
                digest = digest.decode("ascii")
                if (len(stat_key) != 5 or not _HEX_RE.fullmatch(digest)
                        or len(digest) != 2 * hashlib.new(algorithm).digest_size):
                    raise ValueError(raw)
                key = (os.fsdecode(path), algorithm,
                       None if prefix == b"-" else bytes.fromhex(prefix.decode("ascii")))
            except ValueError:
                cache._changed = True  # the next save drops the line
                continue
            cache._loaded[key] = (stat_key, digest)
        return cache

    def get(self, key: DigestKey, stat_key: StatKey) -> str | None:
        entry = self._loaded.get(key)
        if entry is None or not trusted(stat_key, entry[0], self._written_ns):
            return None
        self._used[key] = entry
        return entry[1]

    def put(self, key: DigestKey, stat_key: StatKey, digest: str) -> None:
        if any(c in key[0] for c in "\t\n\r"):
            return  # the line could not be read back
        self._used[key] = (stat_key, digest)
        self._changed = True

    def save(self) -> None:
        if not self._changed and len(self._used) == len(self._loaded):
            return
        lines = []
        for (path, algorithm, prefix), (stat_key, digest) in self._used.items():
            fields = [path, algorithm, "-" if prefix is None else prefix.hex(),
                      *map(str, stat_key), digest]
            lines.append(os.fsencode("\t".join(fields)) + b"\n")
        replace_file(self.path, b"".join(sorted(lines)))
