"""Parser for the plain-text lineage DSL.

The DSL is a deliberately small subset of Makefile syntax: `key = value`
assignments, `include <glob>` lines, plain `target: prereq...` rules with
TAB-prefixed recipe lines, `$(NAME)` variable references and the `$@`,
`$<`, `$^` automatic variables inside recipes. No pattern rules, no
functions, no conditionals. Files are UTF-8 with LF line endings.

`flatten_statements` walks the include tree once, on its own stack, so
includes nest without a depth limit: it reads and globs each file and
directive a single time, emitting statements in the order an
include-expanding reader would meet them. A file the lineage cache
trusts is not read: its statements come from the cache. `expand`
substitutes a template in one regex pass.

Automatic variables are only live inside recipes; everywhere else they
pass through literally, like any `$` followed by something other than
`(` or `$` ("$HOME" stays "$HOME"). Expansion is not idempotent: "$$"
expands to "$" and "$$(X)" to "$(X)", so a literal `$` must be written
`$$` once per expansion it is to survive.
"""

from __future__ import annotations

import glob as globmod
import logging
import os
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import (
    AmbiguousDigest,
    DslSyntaxError,
    DuplicateInclude,
    ExpansionDepthExceeded,
    IncludeCycle,
    IncludeNotFound,
    InputError,
    MalformedDigest,
    MissingDigest,
    MissingFilename,
    MissingURL,
    UndefinedVariable,
)
from .graph import Origin, Rule, normalize_path
from .state import StatKey, stat_key

log = logging.getLogger("lineage_forge.parser")

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
ASSIGNMENT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_-]*)\s*=(.*)$")
# `$$`, `$(NAME)`, an unclosed `$(`, or `$@` `$<` `$^`; any other `$` is literal.
REFERENCE_RE = re.compile(r"\$(?:(\$)|\(([^)]*)\)|(\()|([@<^]))")

MAX_EXPANSION_DEPTH = 16

DIGEST_LENGTHS = {"md5": 32, "sha256": 64, "sha512": 128}
_HEX_RE = re.compile(r"^[0-9a-fA-F]+$")

# Default project layout (all relative to the project root).
DEFAULT_ENTRY = "reproduce/analysis/make/top.wf"
DEFAULT_CONFIG_GLOB = "reproduce/analysis/config/*.conf"
INPUTS_MANIFEST = "reproduce/analysis/config/INPUTS.conf"
VERIFY_MANIFEST = "reproduce/analysis/config/verify.conf"


@dataclass(frozen=True)
class ConfigParam:
    key: str
    value: str
    origin: Origin


@dataclass(frozen=True)
class InputSpec:
    """Pin for one external input file."""

    name: str
    filename: str
    algorithm: str
    digest: str
    url: str
    size_hint: str | None = None


@dataclass(frozen=True)
class RuleTemplate:
    """A rule as written: targets/prereqs still unexpanded and unsplit."""

    target_text: str
    prereq_text: str
    recipe: tuple[str, ...]
    origin: Origin


@dataclass(frozen=True)
class IncludeDirective:
    pattern: str
    optional: bool
    origin: Origin


@dataclass
class ParsedFile:
    """One DSL file, statements kept in source order."""

    path: str
    items: list[object] = field(default_factory=list)

    @property
    def rules(self) -> list[RuleTemplate]:
        return [i for i in self.items if isinstance(i, RuleTemplate)]

    @property
    def includes(self) -> list[IncludeDirective]:
        return [i for i in self.items if isinstance(i, IncludeDirective)]

    @property
    def assignments(self) -> list[ConfigParam]:
        return [i for i in self.items if isinstance(i, ConfigParam)]


def _reject_carriage_returns(text: str, origin: str) -> None:
    if "\r" in text:
        lineno = text[: text.index("\r")].count("\n") + 1
        raise DslSyntaxError(origin, lineno, "CR line ending (files must use LF)")


def split_lines(text: str) -> list[str]:
    """`text`'s lines, split at LF alone. `str.splitlines` also splits at
    a form feed, a vertical tab, U+2028 and others, which the DSL keeps
    inside a line; every parser numbers lines with this one."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # after the final LF, or of an empty text
    return lines


def _is_comment_or_blank(line: str) -> bool:
    stripped = line.lstrip()
    return not stripped or stripped.startswith("#")


def content_lines(text: str, origin: str) -> list[tuple[int, str]]:
    """The lines of a configuration file `origin`, numbered from 1, less
    its blank lines and `#` comments. A CR anywhere is an error."""
    _reject_carriage_returns(text, origin)
    return [(lineno, line) for lineno, line in enumerate(split_lines(text), start=1)
            if not _is_comment_or_blank(line)]


def is_digest(text: str, algorithm: str) -> bool:
    """Whether `text` is hex digits, as many as an `algorithm` digest has."""
    return len(text) == DIGEST_LENGTHS[algorithm] and _HEX_RE.fullmatch(text) is not None


def parse_config(text: str, origin: str) -> list[ConfigParam]:
    """Parse a configuration file of `key = value` lines.

    Blank lines and `#` comments are ignored. A key assigned twice keeps
    its last value; the override is logged. Anything else is an error.
    """
    params: dict[str, ConfigParam] = {}
    for lineno, line in content_lines(text, origin):
        match = ASSIGNMENT_RE.match(line.strip())
        if not match:
            raise DslSyntaxError(origin, lineno, f"expected 'key = value', got {line.strip()!r}")
        key, value = match.group(1), match.group(2).strip()
        if key in params:
            log.info(
                "%s:%d: '%s' overrides earlier value from %s",
                origin, lineno, key, params[key].origin,
            )
        params[key] = ConfigParam(key, value, Origin(origin, lineno))
    return list(params.values())


def serialize_config(params: list[ConfigParam]) -> str:
    """Render params back to `key = value` lines (round-trips parse_config)."""
    return "".join(f"{p.key} = {p.value}\n" for p in params)


def parse_workflow(text: str, origin: str) -> ParsedFile:
    """Parse a workflow file into assignments, includes and rule templates.

    Statement forms, in order of recognition per line: blank/comment,
    `include <glob>` (suffix the glob with `?` to tolerate zero matches),
    `key = value`, and `target...: prereq...` opening a rule whose recipe
    is the run of immediately following TAB lines. A TAB line outside a
    rule and a rule line with an empty target are syntax errors.
    """
    _reject_carriage_returns(text, origin)
    parsed = ParsedFile(path=origin)
    current_rule: dict | None = None

    def flush_rule() -> None:
        nonlocal current_rule
        if current_rule is not None:
            parsed.items.append(
                RuleTemplate(
                    target_text=current_rule["target"],
                    prereq_text=current_rule["prereqs"],
                    recipe=tuple(current_rule["recipe"]),
                    origin=current_rule["origin"],
                )
            )
            current_rule = None

    for lineno, line in enumerate(split_lines(text), start=1):
        if line.startswith("\t"):
            if current_rule is None:
                raise DslSyntaxError(origin, lineno, "recipe line outside a rule")
            current_rule["recipe"].append(line[1:])
            continue

        # Any non-TAB line ends the rule currently being collected.
        flush_rule()

        if _is_comment_or_blank(line):
            continue

        stripped = line.strip()
        if stripped.startswith("include "):
            rest = stripped[len("include "):].strip()
            if not rest:
                raise DslSyntaxError(origin, lineno, "include without a pattern")
            if len(rest.split()) != 1:
                raise DslSyntaxError(origin, lineno, "include takes exactly one pattern")
            optional = rest.endswith("?")
            pattern = rest[:-1] if optional else rest
            parsed.items.append(IncludeDirective(pattern, optional, Origin(origin, lineno)))
            continue

        match = ASSIGNMENT_RE.match(stripped)
        if match:
            parsed.items.append(
                ConfigParam(match.group(1), match.group(2).strip(), Origin(origin, lineno))
            )
            continue

        if ":" in stripped:
            target_text, _, prereq_text = stripped.partition(":")
            if not target_text.strip():
                raise DslSyntaxError(origin, lineno, "rule with empty target")
            current_rule = {
                "target": target_text.strip(),
                "prereqs": prereq_text.strip(),
                "recipe": [],
                "origin": Origin(origin, lineno),
            }
            continue

        raise DslSyntaxError(origin, lineno, f"unrecognized statement: {stripped!r}")

    flush_rule()
    return parsed


@dataclass
class LoadedFile:
    path: str  # relative to project root
    parsed: ParsedFile
    stat: StatKey  # of the file as it was opened, before it was read
    # Each include pattern in the file with the paths it matched.
    globs: list[tuple[str, list[str]]] = field(default_factory=list)


def include_matches(pattern: str, root: str | Path) -> list[str]:
    """The files an include pattern names: glob matches under `root`,
    normalized, sorted lexicographically, without the verification
    manifest, which is TSV, not DSL."""
    matches = (posixpath.normpath(m) for m in sorted(globmod.glob(pattern, root_dir=root)))
    return [m for m in matches if m != VERIFY_MANIFEST]


def flatten_statements(
    entry: str,
    root: str | Path,
    cached: Mapping[str, tuple[ParsedFile, StatKey]] | None = None,
) -> tuple[list[LoadedFile], list[object]]:
    """Load `entry` and, depth-first and in order, everything it includes.

    Returns the loaded files in load order and the statement stream in
    effective order: statements are interleaved exactly as an
    include-expanding reader sees them, so a `key = value` written after
    an include line overrides the included file's value.

    Glob matches are sorted lexicographically. Each physical file may be
    loaded once: including it again is DuplicateInclude, including a file
    that is still being expanded is IncludeCycle. A pattern with zero
    matches is IncludeNotFound unless it was suffixed with `?`.

    The verification manifest is silently dropped from glob expansions.

    A file in `cached` is not opened: its statements and StatKey are
    taken from there, as the lineage cache recorded them. Every include
    is still globbed, and every check above still made.
    """
    root = Path(root)
    cached = cached or {}
    loaded: list[LoadedFile] = []
    statements: list[object] = []
    done: set[str] = set()
    # Per file being expanded, the file and its items still to go, next
    # one last.
    in_progress: list[str] = []
    pending: list[tuple[LoadedFile, list[object]]] = []

    def load(rel: str, via: Origin | None) -> None:
        if rel in in_progress:
            raise IncludeCycle(in_progress + [rel])
        if rel in done:
            raise DuplicateInclude(rel, str(via) if via else rel)
        if rel in cached:
            parsed, key = cached[rel]
        else:
            full = root / rel
            if not full.is_file():
                raise IncludeNotFound(rel, str(via) if via else rel)
            try:
                # No newline translation: parse_workflow must see any CR.
                with open(full, encoding="utf-8", newline="") as fh:
                    key = stat_key(os.fstat(fh.fileno()))
                    text = fh.read()
            except UnicodeDecodeError:
                raise DslSyntaxError(rel, 1, "file is not valid UTF-8") from None
            parsed = parse_workflow(text, rel)
        in_progress.append(rel)
        done.add(rel)
        loaded.append(LoadedFile(rel, parsed, key))
        pending.append((loaded[-1], parsed.items[::-1]))

    load(posixpath.normpath(entry), None)
    while pending:
        current, items = pending[-1]
        if not items:
            pending.pop()
            in_progress.pop()
            continue
        item = items.pop()
        if isinstance(item, IncludeDirective):
            matches = include_matches(item.pattern, root)
            current.globs.append((item.pattern, matches))
            if not matches and not item.optional:
                raise IncludeNotFound(item.pattern, str(item.origin))
            items.extend((match, item.origin) for match in reversed(matches))
        elif isinstance(item, tuple):
            load(*item)
        else:
            statements.append(item)
    return loaded, statements


def build_env(
    statements: list[object],
    builtins: dict[str, str] | None = None,
) -> dict[str, str]:
    """Fold assignments into a name->value map, last definition winning."""
    env: dict[str, str] = dict(builtins or {})
    for item in statements:
        if isinstance(item, ConfigParam):
            if item.key in env:
                log.info("%s: '%s' overrides earlier value", item.origin, item.key)
            env[item.key] = item.value
    return env


def references(text: str) -> set[str]:
    """Every NAME that `text` reads as `$(NAME)`. Expansion never rescans
    its output, so a text reads a variable through these alone; `$$(NAME)`
    reads none."""
    return {name for _dollar, name, _unclosed, _automatic in REFERENCE_RE.findall(text)
            if name}


def expand(
    template: str,
    env: dict[str, str],
    rule_ctx: tuple[str, tuple[str, ...]] | None = None,
    origin: str = "?",
    _depth: int = 0,
) -> str:
    """Expand `$(NAME)`, `$$` and (inside recipes) `$@`, `$<`, `$^`.

    Inside a recipe, `rule_ctx` is the rule's target and prerequisites,
    which the automatic variables name. Variable values are themselves
    expanded, up to 16 levels deep.
    """
    if _depth > MAX_EXPANSION_DEPTH:
        raise ExpansionDepthExceeded(template, MAX_EXPANSION_DEPTH)
    if "$" not in template:
        return template

    def substitute(match: re.Match) -> str:
        dollar, name, unclosed, automatic = match.groups()
        if dollar:
            return "$"
        if unclosed:
            raise UndefinedVariable(template[match.start():], origin)
        if automatic:
            if rule_ctx is None:
                return match.group()
            target, prereqs = rule_ctx
            if automatic == "@":
                return target
            if automatic == "<":
                return prereqs[0] if prereqs else ""
            return " ".join(prereqs)
        if not IDENT_RE.fullmatch(name) or name not in env:
            raise UndefinedVariable(name, origin)
        return expand(env[name], env, rule_ctx, origin, _depth + 1)

    return REFERENCE_RE.sub(substitute, template)


def instantiate_rules(
    templates: list[RuleTemplate],
    env: dict[str, str],
) -> list[list[Rule]]:
    """Expand and split each rule template into concrete single-target
    rules, one list per template.

    Target and prerequisite fields are expanded, whitespace-split and
    path-normalized; a template whose target text expands to several
    tokens yields one rule per token (all sharing prerequisites and
    recipe). Recipes are expanded per target, so `$@`/`$<`/`$^` resolve
    to that target and the template's prerequisites.
    """
    out: list[list[Rule]] = []
    for item in templates:
        origin = item.origin
        where = str(origin)
        targets = expand(item.target_text, env, None, where).split()
        if not targets:
            raise DslSyntaxError(origin.path, origin.line, "rule target expands to nothing")
        prereqs = tuple(normalize_path(p, origin)
                        for p in expand(item.prereq_text, env, None, where).split())
        rules = []
        for target in targets:
            target = normalize_path(target, origin)
            recipe = tuple(expand(line, env, (target, prereqs), where) for line in item.recipe)
            rules.append(Rule(target, prereqs, recipe, origin))
        out.append(rules)
    return out


# An input's keys: `NAME` for its filename, and `NAME-<suffix>` for the rest.
_INPUT_KEY_RE = re.compile(r"(.*)-(MD5|SHA256|SHA512|SIZE|URL)")


def parse_inputs_manifest(params: list[ConfigParam]) -> list[InputSpec]:
    """Group input-manifest params into pinned InputSpec records.

    Convention: `NAME = filename`, `NAME-MD5|SHA256|SHA512 = digest`
    (exactly one), `NAME-SIZE = hint` (optional), `NAME-URL = url`.
    Keys are unique: the caller keeps each key's last assignment.
    """
    # Per input, in the order first named, its values by suffix ("" for
    # the filename).
    inputs: dict[str, dict[str, str]] = {}
    for param in params:
        match = _INPUT_KEY_RE.fullmatch(param.key)
        name, suffix = match.groups() if match else (param.key, "")
        inputs.setdefault(name, {})[suffix] = param.value

    specs: list[InputSpec] = []
    for name, values in inputs.items():
        if "" not in values:
            raise MissingFilename(name)
        filename = values[""]
        if "/" in filename or "\\" in filename:
            raise InputError(f"input '{name}': filename {filename!r} contains a path separator")
        algorithms = [suffix.lower() for suffix in values if suffix.lower() in DIGEST_LENGTHS]
        if not algorithms:
            raise MissingDigest(name)
        if len(algorithms) > 1:
            raise AmbiguousDigest(name, algorithms)
        algorithm = algorithms[0]
        digest = values[algorithm.upper()].lower()
        if not _HEX_RE.fullmatch(digest):
            raise MalformedDigest(name, f"digest is not hexadecimal: {digest!r}")
        if not is_digest(digest, algorithm):
            raise MalformedDigest(
                name,
                f"{algorithm} digest must be {DIGEST_LENGTHS[algorithm]} hex chars, "
                f"got {len(digest)}",
            )
        if "URL" not in values:
            raise MissingURL(name)
        specs.append(
            InputSpec(
                name=name,
                filename=filename,
                algorithm=algorithm,
                digest=digest,
                url=values["URL"],
                size_hint=values.get("SIZE"),
            )
        )
    specs.sort(key=lambda s: s.name)
    return specs
