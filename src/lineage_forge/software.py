"""Configure-phase software manifest: pinned tarballs and version macros.

The engine records and verifies the declared software environment; it
does not build toolchains. Each entry pins a source tarball by SHA-512
and carries the name, version and optional citation keys that feed the
acknowledgment text and per-software version macros.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DslSyntaxError, DuplicateSoftware, MalformedDigest, NameCollision
from .parser import DIGEST_LENGTHS, content_lines, is_digest
from .provenance import MacroDefinition
from .state import file_digest

TARGETS_RELPATH = "reproduce/software/config/TARGETS.conf"

_DIGIT_WORDS = {
    "0": "zero", "1": "one", "2": "two", "3": "three", "4": "four",
    "5": "five", "6": "six", "7": "seven", "8": "eight", "9": "nine",
}


@dataclass(frozen=True)
class SoftwareEntry:
    name: str
    version: str
    tarball: str
    sha512: str
    citation_keys: tuple[str, ...] = ()
    url: str | None = None


@dataclass(frozen=True)
class TarballResult:
    name: str
    status: str  # "ok" | "missing" | "mismatch"
    actual: str | None = None


@dataclass
class TarballReport:
    results: list[TarballResult]

    def mismatches(self) -> list[TarballResult]:
        return [r for r in self.results if r.status == "mismatch"]

    def missing(self) -> list[TarballResult]:
        return [r for r in self.results if r.status == "missing"]


def parse_targets(text: str, origin: str = TARGETS_RELPATH) -> list[SoftwareEntry]:
    """Parse TSV lines `name<TAB>version<TAB>tarball<TAB>sha512[<TAB>bibkeys][<TAB>url]`.

    Returned entries are sorted by name; a repeated name is an error.
    """
    entries: dict[str, SoftwareEntry] = {}
    for lineno, line in content_lines(text, origin):
        parts = line.split("\t")
        if len(parts) < 4 or len(parts) > 6:
            raise DslSyntaxError(origin, lineno, "expected 4 to 6 tab-separated fields")
        name, version, tarball, sha512 = parts[:4]
        if not name or not version:
            raise DslSyntaxError(origin, lineno, "name and version must be nonempty")
        sha512 = sha512.lower()
        if not is_digest(sha512, "sha512"):
            raise MalformedDigest(name, f"sha512 must be {DIGEST_LENGTHS['sha512']} hex chars")
        if name in entries:
            raise DuplicateSoftware(name)
        keys = tuple(k for k in parts[4].split(",") if k) if len(parts) >= 5 else ()
        url = parts[5] if len(parts) == 6 and parts[5] else None
        entries[name] = SoftwareEntry(name, version, tarball, sha512, keys, url)
    return sorted(entries.values(), key=lambda e: e.name)


def verify_tarball(entry: SoftwareEntry, tarball_dir: str | Path) -> TarballResult:
    path = Path(tarball_dir) / entry.tarball
    if not path.is_file():
        return TarballResult(entry.name, "missing")
    actual = file_digest(path, "sha512")
    if actual == entry.sha512:
        return TarballResult(entry.name, "ok", actual)
    return TarballResult(entry.name, "mismatch", actual)


def verify_tarballs(entries: list[SoftwareEntry], tarball_dir: str | Path) -> TarballReport:
    """Digest every pinned tarball. The report is order-independent
    (sorted by name) and idempotent. Policy (mismatch fatal, missing
    fatal only under --strict-software) is applied by the caller."""
    results = [verify_tarball(e, tarball_dir) for e in entries]
    return TarballReport(sorted(results, key=lambda r: r.name))


def normalize_macro_stem(name: str) -> str:
    """Map a software name onto macro-safe ASCII letters.

    Lowercase letters pass through, digits become words ("4" -> "four"),
    "+" becomes "x" (so g++ renders as gxx), everything else is dropped.
    """
    out: list[str] = []
    for ch in name.lower():
        if ch.isascii() and ch.isalpha():
            out.append(ch)
        elif ch in _DIGIT_WORDS:
            out.append(_DIGIT_WORDS[ch])
        elif ch == "+":
            out.append("x")
    return "".join(out)


def version_macros(entries: list[SoftwareEntry]) -> list[MacroDefinition]:
    """One `\\sw<name>version` macro per entry, collision-checked."""
    stems: dict[str, str] = {}
    macros: list[MacroDefinition] = []
    for entry in entries:
        stem = normalize_macro_stem(entry.name)
        if stem in stems:
            raise NameCollision(stems[stem], entry.name, stem)
        stems[stem] = entry.name
        macros.append(MacroDefinition(f"sw{stem}version", entry.version))
    return macros
