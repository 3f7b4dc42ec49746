"""The verification bottleneck: metadata-filtered digests of project
deliverables compared against a pinned manifest.

Whole-file checksums break on outputs that embed volatile metadata (dates
in comment headers, for example), so entries may carry a strip-comments
filter: every line whose first byte equals the filter's prefix character
is dropped, newline included, before hashing. The manifest is a TSV file
(`path<TAB>algorithm<TAB>digest<TAB>filter`) so it can be re-pinned and
diffed without touching recipes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DslSyntaxError, FileMissing, UsageError
from .parser import DIGEST_LENGTHS, content_lines, is_digest
from .state import BuildState, file_digest

FILTER_NONE = "none"
FILTER_STRIP = "strip-comments"


@dataclass(frozen=True)
class Filter:
    kind: str = FILTER_NONE
    prefix: str = "#"

    def __post_init__(self) -> None:
        if self.kind not in (FILTER_NONE, FILTER_STRIP):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        # A prefix outside 0x21-0x7e could not be written back to verify.conf.
        if len(self.prefix) != 1 or not "!" <= self.prefix <= "~":
            raise UsageError("filter prefix must be one printable non-space ASCII character")

    @classmethod
    def parse(cls, text: str) -> "Filter":
        if text == FILTER_NONE:
            return cls(FILTER_NONE)
        if text == FILTER_STRIP:
            return cls(FILTER_STRIP, "#")
        if text.startswith(FILTER_STRIP + ":") and len(text) == len(FILTER_STRIP) + 2:
            return cls(FILTER_STRIP, text[-1])
        raise UsageError(f"unknown filter spec {text!r}")

    def serialize(self) -> str:
        if self.kind == FILTER_NONE:
            return FILTER_NONE
        return f"{FILTER_STRIP}:{self.prefix}"


@dataclass(frozen=True)
class VerificationEntry:
    path: str  # relative to the build directory
    algorithm: str
    expected: str
    filter: Filter = Filter()

    def __post_init__(self) -> None:
        if self.algorithm not in DIGEST_LENGTHS:
            raise ValueError(f"unsupported algorithm {self.algorithm!r}")
        if not is_digest(self.expected, self.algorithm):
            raise ValueError(
                f"{self.path}: {self.algorithm} digest must be "
                f"{DIGEST_LENGTHS[self.algorithm]} hex chars"
            )


@dataclass(frozen=True)
class EntryResult:
    path: str
    status: str  # "ok" | "mismatch" | "missing"
    actual: str | None = None


@dataclass
class VerificationReport:
    results: list[EntryResult]

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.results)

    def failing(self) -> list[EntryResult]:
        return [r for r in self.results if r.status != "ok"]


def filtered_digest(path: str | Path, filt: Filter, algorithm: str, *,
                    cache: BuildState | None = None) -> str:
    """Digest of the file after applying the metadata filter: strip-comments
    drops every line whose first byte is the prefix character (raw byte
    comparison, no whitespace skipping). Only a regular file is read: a
    directory, a FIFO or a device is missing."""
    if not os.path.isfile(path):
        raise FileMissing(str(path))
    prefix = None if filt.kind == FILTER_NONE else filt.prefix.encode("ascii")
    return file_digest(path, algorithm, prefix, cache=cache)


def verify_entry(entry: VerificationEntry, build_dir: str | Path, *,
                 cache: BuildState | None = None) -> EntryResult:
    try:
        actual = filtered_digest(os.path.join(build_dir, entry.path), entry.filter,
                                 entry.algorithm, cache=cache)
    except FileMissing:
        return EntryResult(entry.path, "missing")
    status = "ok" if actual == entry.expected.lower() else "mismatch"
    return EntryResult(entry.path, status, actual)


def verify_all(entries: list[VerificationEntry], build_dir: str | Path, *,
               cache: BuildState | None = None) -> VerificationReport:
    """Check every entry, with no short-circuit, so the report names every
    failing file. Order of the report follows the entry list."""
    return VerificationReport([verify_entry(e, build_dir, cache=cache) for e in entries])


def parse_manifest(text: str, origin: str = "verify.conf") -> list[VerificationEntry]:
    """Parse the TSV manifest; blank lines and `#` comments are ignored."""
    entries: list[VerificationEntry] = []
    for lineno, line in content_lines(text, origin):
        parts = line.split("\t")
        if len(parts) != 4:
            raise DslSyntaxError(origin, lineno, "expected path<TAB>algorithm<TAB>digest<TAB>filter")
        path, algorithm, digest, filter_text = parts
        try:
            entries.append(
                VerificationEntry(path, algorithm, digest.lower(), Filter.parse(filter_text))
            )
        except ValueError as exc:
            raise DslSyntaxError(origin, lineno, str(exc)) from None
    return entries


def serialize_manifest(entries: list[VerificationEntry]) -> str:
    lines = [
        f"{e.path}\t{e.algorithm}\t{e.expected}\t{e.filter.serialize()}\n"
        for e in sorted(entries, key=lambda e: e.path)
    ]
    return "".join(lines)
