"""Resolve pinned inputs: local directories first, network last, always
checksum-gated.

No unverified bytes ever reach a path that rules can read: files land in
`<build>/inputs/` only after their digest matches the manifest. The
transport is injectable so tests exercise retries and offline behaviour
against in-process stubs; the real transport uses urllib with proxies
taken from explicit configuration only, never from the host environment.
"""

from __future__ import annotations

import logging
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .errors import (
    ChecksumMismatch,
    DownloadFailed,
    NotFound,
    OfflineAndMissing,
)
from .parser import InputSpec
from .state import BuildState, file_digest, staged

log = logging.getLogger("lineage_forge.fetch")

DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = (1.0, 5.0, 30.0)


@dataclass(frozen=True)
class Mismatch:
    actual_hex: str


def verify_checksum(path: str | Path, algorithm: str, expected_hex: str, *,
                    cache: BuildState | None = None) -> Mismatch | None:
    """Stream the file and compare digests case-insensitively.

    Returns None when the digest matches, otherwise a Mismatch carrying
    the actual digest.
    """
    actual = file_digest(path, algorithm, cache=cache)
    if actual == expected_hex.lower():
        return None
    return Mismatch(actual)


class TransientNetworkError(Exception):
    """Connection-level or 5xx failure; eligible for retry."""


class TerminalNetworkError(Exception):
    """4xx failure; retrying cannot help."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"HTTP {status}")
        self.status = status


class Transport(Protocol):
    def fetch(self, url: str, sink) -> None:
        """Stream the body of `url` into the writable binary `sink`.

        Raises TransientNetworkError for retryable failures and
        TerminalNetworkError for 4xx responses.
        """


class UrllibTransport:
    """HTTP(S) GET via urllib. Certificate verification is on unless
    `insecure` is set (which is logged loudly). The network modules are
    imported here, not at module level, so offline makes never load them."""

    def __init__(self, proxies: dict[str, str] | None = None, insecure: bool = False,
                 timeout: float = 60.0):
        import ssl
        import urllib.request

        handlers: list[urllib.request.BaseHandler] = [
            urllib.request.ProxyHandler(proxies or {})
        ]
        if insecure:
            log.warning("TLS certificate verification DISABLED for downloads")
            context = ssl.create_default_context()
            context.check_hostname = False
            context.verify_mode = ssl.CERT_NONE
            handlers.append(urllib.request.HTTPSHandler(context=context))
        self._opener = urllib.request.build_opener(*handlers)
        self._timeout = timeout

    def fetch(self, url: str, sink) -> None:
        import urllib.error

        try:
            with self._opener.open(url, timeout=self._timeout) as resp:
                shutil.copyfileobj(resp, sink)
        except urllib.error.HTTPError as exc:
            if 400 <= exc.code < 500:
                raise TerminalNetworkError(exc.code, str(exc)) from exc
            raise TransientNetworkError(str(exc)) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TransientNetworkError(str(exc)) from exc


def download(
    url: str,
    dest: str | Path,
    transport: Transport,
    retries: int = DEFAULT_RETRIES,
    backoff_seconds: tuple[float, ...] = DEFAULT_BACKOFF,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Fetch `url` to `dest` atomically, each attempt through `staged`.

    Connection and 5xx failures are retried up to `retries` times with the
    given backoff schedule; a 404 (any 4xx) is terminal immediately. No
    partial file is ever left at `dest`.
    """
    last_error = ""
    for attempt in range(retries + 1):
        try:
            with staged(dest) as tmp, open(tmp, "wb") as sink:
                transport.fetch(url, sink)
            if attempt > 0:
                log.info("download of %s succeeded on attempt %d", url, attempt + 1)
            return
        except TerminalNetworkError as exc:
            if exc.status == 404:
                raise NotFound(url) from exc
            raise DownloadFailed(url, attempt + 1, str(exc)) from exc
        except TransientNetworkError as exc:
            last_error = str(exc)
            log.info("download attempt %d for %s failed: %s", attempt + 1, url, exc)
            if attempt < retries:
                delay = backoff_seconds[min(attempt, len(backoff_seconds) - 1)]
                sleep(delay)
    raise DownloadFailed(url, retries + 1, last_error)


class InputResolver:
    """Places verified inputs under `<build>/inputs/`.

    Search order per spec'd pin: already-imported build copy, then the
    optional host input directory, then the network. `cache`, the build
    state if given, serves the digest of an already-imported copy.
    """

    def __init__(
        self,
        build_dir: str | Path,
        input_dir: str | Path | None = None,
        transport: Transport | None = None,
        offline: bool = False,
        retries: int = DEFAULT_RETRIES,
        backoff_seconds: tuple[float, ...] = DEFAULT_BACKOFF,
        cache: BuildState | None = None,
    ):
        self.inputs_dir = Path(build_dir) / "inputs"
        self.input_dir = Path(input_dir) if input_dir else None
        self.transport = transport
        self.offline = offline
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.cache = cache

    def resolve(self, spec: InputSpec) -> Path:
        """Return the verified build-directory path for one input pin."""
        dest = self.inputs_dir / spec.filename

        if dest.exists():
            mismatch = verify_checksum(dest, spec.algorithm, spec.digest, cache=self.cache)
            if mismatch is None:
                return dest
            raise ChecksumMismatch(str(dest), "build inputs", spec.digest, mismatch.actual_hex)

        if self.input_dir is not None:
            candidate = self.input_dir / spec.filename
            if candidate.exists():
                return self._import(spec, lambda tmp: shutil.copyfile(candidate, tmp),
                                    str(candidate), "input directory")

        if self.offline:
            raise OfflineAndMissing(spec.name, spec.filename)
        if self.transport is None:
            raise DownloadFailed(spec.url, 0, "no transport configured")
        return self._import(
            spec,
            lambda tmp: download(spec.url, tmp, self.transport, retries=self.retries,
                                 backoff_seconds=self.backoff_seconds),
            spec.url, "download",
        )

    def _import(self, spec: InputSpec, write: Callable[[Path], object],
                source: str, stage: str) -> Path:
        """Write and check the pin's bytes at `staged`'s temp name, so
        unverified bytes never sit at a path rules can read; only the bytes
        checked are renamed into place."""
        dest = self.inputs_dir / spec.filename
        with staged(dest) as tmp:
            write(tmp)
            mismatch = verify_checksum(tmp, spec.algorithm, spec.digest)
            if mismatch is not None:
                raise ChecksumMismatch(source, stage, spec.digest, mismatch.actual_hex)
        return dest

    def resolve_all(self, specs: list[InputSpec]) -> dict[str, Path]:
        """Resolve every pin, one at a time."""
        return {spec.name: self.resolve(spec) for spec in specs}
