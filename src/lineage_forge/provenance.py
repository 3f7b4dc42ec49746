"""Narrative-linkage artifacts: macro files, commit and machine
provenance, software acknowledgments, and lineage-graph exports.

Analysis stages communicate computed values to the narrative through
plain-text macro files (`\\newcommand{\\name}{value}` lines). Those files
are aggregated, after verification, into a single project macro file
together with engine builtins: the current commit (`\\projectversion`,
with a `-dirty` suffix when uncommitted tracked edits exist), machine
facts, and the software acknowledgment.
"""

from __future__ import annotations

import json
import re
import struct
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import DslSyntaxError, DuplicateMacro, MissingStageMacroFile
from .graph import SOURCE, LineageGraph
from .parser import split_lines

MACRO_RE = re.compile(r"^\\newcommand\{\\([A-Za-z]+)\}\{(.*)\}$")
MACRO_NAME_RE = re.compile(r"^[A-Za-z]+$")
GIT_TIMEOUT = 30.0  # seconds a git command may run before it is killed


@dataclass(frozen=True)
class MacroDefinition:
    """One named narrative value. Names are ASCII letters only so they are
    safe as typesetting macros."""

    name: str
    value: str

    def __post_init__(self) -> None:
        if not MACRO_NAME_RE.fullmatch(self.name):
            raise ValueError(f"macro name must be nonempty ASCII letters: {self.name!r}")
        if "\n" in self.value:
            raise ValueError(f"macro value for {self.name} contains a newline")

    def render(self) -> str:
        return f"\\newcommand{{\\{self.name}}}{{{self.value}}}\n"


@dataclass(frozen=True)
class GitState:
    full: str
    short: str
    dirty: bool

    @property
    def version(self) -> str:
        return self.short + ("-dirty" if self.dirty else "")


@dataclass(frozen=True)
class MachineInfo:
    architecture: str
    byte_order: str  # "little" | "big"
    address_sizes: str
    engine_version: str
    timestamp: str  # UTC, ISO-8601


def parse_macro_file(text: str, origin: str = "macros") -> list[MacroDefinition]:
    """Parse `\\newcommand{\\name}{value}` lines; anything else is an error."""
    macros: list[MacroDefinition] = []
    seen: set[str] = set()
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        match = MACRO_RE.match(line)
        if not match:
            raise DslSyntaxError(origin, lineno, f"not a macro definition: {line!r}")
        name, value = match.group(1), match.group(2)
        if name in seen:
            raise DuplicateMacro(name, f"{origin}:{lineno}")
        seen.add(name)
        macros.append(MacroDefinition(name, value))
    return macros


def aggregate_macros(
    macro_files: list[tuple[str, Path]],
    builtins: list[MacroDefinition],
) -> str:
    """Combine builtin macros and per-stage macro files into one document.

    `macro_files` is an ordered list of (stage name, file path); a missing
    file is an error, since every stage must have produced its macro file. A
    macro name appearing twice anywhere is an error. The output is a
    deterministic byte function of its inputs and ends with a newline.
    """
    seen: dict[str, str] = {}
    parts: list[str] = []
    for macro in builtins:
        if macro.name in seen:
            raise DuplicateMacro(macro.name, "builtins")
        seen[macro.name] = "builtins"
        parts.append(macro.render())
    for stage, path in macro_files:
        if not Path(path).is_file():
            raise MissingStageMacroFile(stage, str(path))
        text = Path(path).read_text(encoding="utf-8")
        for macro in parse_macro_file(text, str(path)):
            if macro.name in seen:
                raise DuplicateMacro(macro.name, f"{seen[macro.name]} and {stage}")
            seen[macro.name] = stage
            parts.append(macro.render())
    return "".join(parts)


def _git(project_root: str | Path, *args: str) -> str | None:
    """The stripped output of `git -C project_root *args`; None when git
    is missing, fails, or runs past GIT_TIMEOUT."""
    try:
        proc = subprocess.run(["git", "-C", str(project_root), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=GIT_TIMEOUT)
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def git_state(project_root: str | Path) -> GitState | None:
    """Commit provenance via the host `git`; None when unavailable.

    Dirty means tracked modifications exist (untracked files do not
    count). One `git status` gives both the commit and the changes. The
    engine itself never requires Git to run.
    """
    status = _git(project_root, "status", "--porcelain=v2", "--branch",
                  "--untracked-files=no")
    if status is None:
        return None
    full, dirty = "", False
    for line in status.splitlines():
        if line.startswith("# branch.oid "):
            full = line[len("# branch.oid "):]
        elif not line.startswith("#"):
            dirty = True
    if not full or full == "(initial)":  # no commit yet
        return None
    return GitState(full=full, short=full[:7], dirty=dirty)


def _probe_byte_order() -> str:
    packed = struct.pack("=I", 0x01020304)
    return "little" if packed[0] == 0x04 else "big"


def _address_sizes() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("address sizes"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info(engine_version: str = "0") -> MachineInfo:
    """Facts about the running system; fields degrade to "unknown"."""
    import platform

    arch = platform.machine() or "unknown"
    return MachineInfo(
        architecture=arch,
        byte_order=_probe_byte_order(),
        address_sizes=_address_sizes(),
        engine_version=engine_version,
        timestamp=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    )


def builtin_macros(
    git: GitState | None,
    machine: MachineInfo,
    software_text: str,
    upstream_commit: str | None = None,
) -> list[MacroDefinition]:
    """Engine-provided macros that head every aggregate file."""
    macros = [
        MacroDefinition("projectversion", git.version if git else "no-git"),
    ]
    if upstream_commit:
        macros.append(MacroDefinition("upstreamversion", upstream_commit))
    macros.extend(
        [
            MacroDefinition("machinearchitecture", machine.architecture),
            MacroDefinition("machinebyteorder", machine.byte_order),
            MacroDefinition("machineaddresssizes", machine.address_sizes),
            MacroDefinition("projectsoftware", software_text),
        ]
    )
    return macros


def acknowledgment_text(entries) -> tuple[str, list[str]]:
    """Comma-joined "Name Version" acknowledgments plus citation keys.

    `entries` are software-manifest records with `name`, `version` and
    `citation_keys` fields; duplicates collapse.
    """
    seen: set[tuple[str, str]] = set()
    names: list[tuple[str, str]] = []
    keys: list[str] = []
    for entry in entries:
        pair = (entry.name, entry.version)
        if pair in seen:
            continue
        seen.add(pair)
        names.append(pair)
        for key in entry.citation_keys:
            if key not in keys:
                keys.append(key)
    names.sort(key=lambda p: p[0].lower())
    text = ", ".join(f"{name} {version}" for name, version in names)
    return text, sorted(keys)


def export_graph(graph: LineageGraph, fmt: str) -> str:
    """Serialize the lineage graph for external parsers.

    DOT styles source files distinctly from built targets; JSON carries
    nodes, edges and rule origins. Both outputs are sorted and
    byte-deterministic.
    """
    if fmt == "dot":
        lines = ["digraph lineage {", "  rankdir=LR;"]
        for path in sorted(graph.nodes):
            if graph.nodes[path] == SOURCE:
                style = 'shape=box, style=filled, fillcolor="palegreen"'
            else:
                style = 'shape=box, style=filled, fillcolor="lightblue"'
            lines.append(f'  "{path}" [{style}];')
        for prereq, target in sorted(graph.edges):
            lines.append(f'  "{prereq}" -> "{target}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "nodes": [
                {"path": path, "kind": kind}
                for path, kind in sorted(graph.nodes.items())
            ],
            "edges": [
                {"from": prereq, "to": target}
                for prereq, target in sorted(graph.edges)
            ],
            "rules": [
                {"target": target, "origin": str(rule.origin)}
                for target, rule in sorted(graph.rules.items())
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")
