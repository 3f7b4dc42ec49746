"""Exception hierarchy for the engine.

Every error a project run can hit maps onto one of the CLI exit codes:
recipe failures (2), verification failures (3), input failures (4),
bad arguments (64), everything else generic (1). The mapping lives in
`cli`.
"""

from __future__ import annotations


class LineageError(Exception):
    """Base class for all engine errors."""


class UsageError(ValueError):
    """An argument out of its allowed range or form."""


# --- graph construction / traversal ---

class DuplicateTarget(LineageError):
    def __init__(self, target: str, first_origin: str, second_origin: str):
        super().__init__(
            f"target '{target}' defined twice ({first_origin} and {second_origin})"
        )
        self.target = target
        self.origins = (first_origin, second_origin)


class CycleDetected(LineageError):
    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class UnknownGoal(LineageError):
    def __init__(self, path: str):
        super().__init__(f"goal '{path}' is not a node in the lineage graph")
        self.path = path


class UnknownNode(LineageError):
    def __init__(self, path: str):
        super().__init__(f"'{path}' is not a node in the lineage graph")
        self.path = path


class AbsolutePathRejected(LineageError):
    def __init__(self, path: str, origin: str):
        super().__init__(f"absolute path '{path}' not allowed in rules ({origin})")
        self.path = path


# --- DSL parsing ---

class DslSyntaxError(LineageError):
    def __init__(self, origin: str, line: int, reason: str):
        super().__init__(f"{origin}:{line}: {reason}")
        self.origin = origin
        self.line = line
        self.reason = reason


class IncludeNotFound(LineageError):
    def __init__(self, pattern: str, origin: str):
        super().__init__(f"include '{pattern}' matched no files ({origin})")
        self.pattern = pattern


class DuplicateInclude(LineageError):
    def __init__(self, path: str, origin: str):
        super().__init__(f"'{path}' included a second time ({origin})")
        self.path = path


class IncludeCycle(LineageError):
    def __init__(self, chain: list[str]):
        super().__init__("include cycle: " + " -> ".join(chain))
        self.chain = chain


class UndefinedVariable(LineageError):
    def __init__(self, name: str, origin: str):
        super().__init__(f"undefined variable '{name}' ({origin})")
        self.name = name
        self.origin = origin


class ExpansionDepthExceeded(LineageError):
    def __init__(self, name: str, limit: int):
        super().__init__(f"variable expansion deeper than {limit} levels at '{name}'")
        self.name = name


# --- input manifest / fetching (CLI exit code 4) ---

class InputError(LineageError):
    """Base for failures while pinning or resolving external inputs."""


class MissingDigest(InputError):
    def __init__(self, name: str):
        super().__init__(f"input '{name}' declares no checksum key")
        self.name = name


class AmbiguousDigest(InputError):
    def __init__(self, name: str, algorithms: list[str]):
        super().__init__(
            f"input '{name}' declares more than one checksum ({', '.join(algorithms)})"
        )
        self.name = name


class MissingURL(InputError):
    def __init__(self, name: str):
        super().__init__(f"input '{name}' declares no URL")
        self.name = name


class MissingFilename(InputError):
    def __init__(self, name: str):
        super().__init__(f"input '{name}' has metadata keys but no filename entry")
        self.name = name


class MalformedDigest(InputError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"input '{name}': {detail}")
        self.name = name


class ChecksumMismatch(InputError):
    def __init__(self, path: str, stage: str, expected: str, actual: str):
        super().__init__(
            f"checksum mismatch for {path} ({stage}): expected {expected}, got {actual}"
        )
        self.path = path
        self.stage = stage
        self.expected = expected
        self.actual = actual


class DownloadFailed(InputError):
    def __init__(self, url: str, attempts: int, detail: str):
        super().__init__(f"download of {url} failed after {attempts} attempt(s): {detail}")
        self.url = url
        self.attempts = attempts


class NotFound(InputError):
    def __init__(self, url: str):
        super().__init__(f"{url}: not found (terminal)")
        self.url = url


class OfflineAndMissing(InputError):
    def __init__(self, name: str, filename: str):
        super().__init__(
            f"input '{name}' ({filename}) absent locally and the run is offline"
        )
        self.name = name


# --- execution (CLI exit code 2) ---

class ExecutionError(LineageError):
    """Base for recipe-execution failures."""


class MissingSource(LineageError):
    def __init__(self, path: str):
        super().__init__(f"source file '{path}' does not exist")
        self.path = path


class RecipeFailed(ExecutionError):
    def __init__(self, target: str, status: int, output_tail: str = ""):
        super().__init__(f"recipe for '{target}' exited with status {status}")
        self.target = target
        self.status = status
        self.output_tail = output_tail


class TargetNotProduced(ExecutionError):
    def __init__(self, target: str):
        super().__init__(f"recipe for '{target}' exited 0 but the file was not produced")
        self.target = target


class ShellNotFound(ExecutionError):
    def __init__(self, shell: str):
        super().__init__(f"shell '{shell}' not found")
        self.shell = shell


# --- verification (CLI exit code 3) ---

class VerificationError(LineageError):
    """Base for output-verification failures."""


class FileMissing(VerificationError):
    def __init__(self, path: str):
        super().__init__(f"verified file '{path}' is missing")
        self.path = path


class VerificationFailed(VerificationError):
    def __init__(self, failing: list[str]):
        super().__init__("verification failed: " + ", ".join(failing))
        self.failing = failing


# --- provenance / macros ---

class MacroError(LineageError):
    pass


class DuplicateMacro(MacroError):
    def __init__(self, name: str, where: str = ""):
        detail = f" ({where})" if where else ""
        super().__init__(f"macro '{name}' defined more than once{detail}")
        self.name = name


class MissingStageMacroFile(MacroError):
    def __init__(self, stage: str, path: str):
        super().__init__(f"stage '{stage}' did not produce its macro file {path}")
        self.stage = stage
        self.path = path


# --- software manifest ---

class SoftwareManifestError(LineageError):
    pass


class DuplicateSoftware(SoftwareManifestError):
    def __init__(self, name: str):
        super().__init__(f"software '{name}' listed more than once")
        self.name = name


class NameCollision(SoftwareManifestError):
    def __init__(self, first: str, second: str, normalized: str):
        super().__init__(
            f"software names '{first}' and '{second}' both normalize to macro stem "
            f"'{normalized}'"
        )
        self.normalized = normalized


# --- configure / CLI ---

class BuildDirNotWritable(LineageError):
    def __init__(self, path: str):
        super().__init__(f"build directory '{path}' is not writable")
        self.path = path
