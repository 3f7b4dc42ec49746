"""Project lifecycle: configure, load, make, verify, dist, clean.

A project is a directory tree with a workflow entry file at
`reproduce/analysis/make/top.wf` which includes configuration files and
stage workflow files in order. Everything the engine builds lives under
an external build directory reachable through the `.build` symlink, so
rule paths stay relative and the project stays relocatable.
"""

from __future__ import annotations

import grp
import logging
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import (
    BuildDirNotWritable,
    ChecksumMismatch,
    LineageError,
    MissingStageMacroFile,
    UnknownGoal,
    UsageError,
    VerificationFailed,
)
from .executor import TIMESTAMP, EnvPolicy, ExecutionReport, execute
from .fetch import InputResolver, Transport, UrllibTransport
from .graph import BUILT, LineageGraph, Origin, Rule, ancestors, build_graph
from .lineage_cache import LINEAGE_RELPATH, CachedRun, LineageCache
from .parser import (
    DEFAULT_ENTRY,
    INPUTS_MANIFEST,
    VERIFY_MANIFEST,
    ConfigParam,
    InputSpec,
    RuleTemplate,
    build_env,
    flatten_statements,
    instantiate_rules,
    parse_config,
    parse_inputs_manifest,
    serialize_config,
)
from .provenance import (
    acknowledgment_text,
    aggregate_macros,
    builtin_macros,
    git_state,
    machine_info,
)
from .software import TARGETS_RELPATH, parse_targets, verify_tarballs, version_macros
from .state import (
    STATE_RELPATH,
    BuildState,
    staged,
    write_changed,
)
from .verify import (
    Filter,
    VerificationEntry,
    VerificationReport,
    filtered_digest,
    parse_manifest,
    serialize_manifest,
    verify_all,
)

log = logging.getLogger("lineage_forge.project")

LOCAL_CONFIG = ".local-config"
BUILD_LINK = ".build"
GOAL_ALIAS = "all"
BUILD_SUBDIRS = ("inputs", "logs", "state", "tex")
AGGREGATE_RELPATH = "tex/project.tex"
BIBLIOGRAPHY_RELPATH = "tex/software.bib"

EventCallback = Callable[[dict], None]


def _read_as_written(path: Path) -> str:
    """A project file's text with no newline translation, so that its
    parser sees, and rejects, any CR, and `.gitignore` keeps its endings."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@dataclass
class LocalConfig:
    """Host-specific settings recorded by `configure`; never committed."""

    build_dir: str
    input_dir: str | None = None
    software_dir: str | None = None
    group: str | None = None
    jobs: int = 1
    tool_path: str = ""
    proxy: str | None = None

    @classmethod
    def load(cls, root: str | Path) -> "LocalConfig":
        path = Path(root) / LOCAL_CONFIG
        if not path.is_file():
            raise LineageError(
                f"project at {root} is not configured (missing {LOCAL_CONFIG}); "
                "run `configure` first"
            )
        values = {p.key: p.value for p in parse_config(_read_as_written(path), LOCAL_CONFIG)}
        if "build-dir" not in values:
            raise LineageError(f"{LOCAL_CONFIG} does not record build-dir")
        jobs = values.get("jobs", "1")
        if not (jobs.isascii() and jobs.isdigit() and int(jobs) > 0):
            raise LineageError(f"{LOCAL_CONFIG}: jobs must be a positive integer, got {jobs!r}")
        return cls(
            build_dir=values["build-dir"],
            input_dir=values.get("input-dir") or None,
            software_dir=values.get("software-dir") or None,
            group=values.get("group") or None,
            jobs=int(jobs),
            tool_path=values.get("path", os.defpath),
            proxy=values.get("proxy") or None,
        )

    def save(self, root: str | Path) -> None:
        params = [("build-dir", self.build_dir)]
        if self.input_dir:
            params.append(("input-dir", self.input_dir))
        if self.software_dir:
            params.append(("software-dir", self.software_dir))
        if self.group:
            params.append(("group", self.group))
        params.append(("jobs", str(self.jobs)))
        params.append(("path", self.tool_path))
        if self.proxy:
            params.append(("proxy", self.proxy))
        text = serialize_config(
            [ConfigParam(k, v, Origin(LOCAL_CONFIG, i + 1)) for i, (k, v) in enumerate(params)]
        )
        with staged(Path(root) / LOCAL_CONFIG) as tmp:
            tmp.write_text(text, encoding="utf-8")

    def resolve_dir(self, root: str | Path, value: str | None) -> Path | None:
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else Path(root) / p


@dataclass
class Project:
    """A parsed project: environment, graph, goal, stages and inputs."""

    root: Path
    entry: str
    env: dict[str, str]
    graph: LineageGraph
    goal: str
    stages: list[str] = field(default_factory=list)
    input_specs: list[InputSpec] = field(default_factory=list)

    @classmethod
    def load(cls, root: str | Path, entry: str = DEFAULT_ENTRY, *,
             build_dir: str | Path | None = None) -> "Project":
        """Parse the project. With `build_dir`, the result is looked up in
        and written to `<build>/state/lineage.json` (see `LineageCache`):
        only the DSL files that changed are parsed and only the templates
        an edit reaches are expanded. When nothing was parsed or expanded
        and every include matched as before, the cached graph is used and
        nothing is written."""
        root = Path(root)
        cache = None if build_dir is None else LineageCache.load(build_dir, root, entry)
        files, statements = flatten_statements(
            entry, root, cached=None if cache is None else cache.parsed())
        env = build_env(statements, builtins={"BDIR": BUILD_LINK})
        # Each a template to expand, or a run of cached ones.
        templates = [item for item in statements if isinstance(item, (RuleTemplate, CachedRun))]
        if cache is not None:
            templates = cache.templates(root, templates, env)
            if templates is None:  # a file changed after its record was trusted
                return cls.load(root, entry)
        todo = [t for t in templates if type(t) is RuleTemplate]
        new = instantiate_rules(todo, env)
        fresh = iter(new)
        all_rules: list[Rule] = []
        for t in templates:
            if type(t) is RuleTemplate:
                all_rules += next(fresh)
            else:
                for rules in t.rules:
                    all_rules += rules
        goal, rules = _split_goal(all_rules, entry)
        # What the cache holds is the project as it is now: no file was
        # parsed, no template expanded, and every include matched the same.
        reuse = cache is not None and not todo and cache.holds(files)
        graph = cache.graph(rules) if reuse else build_graph(rules)

        inputs_params: list[ConfigParam] = []
        for loaded in files:
            if loaded.path == INPUTS_MANIFEST:
                latest: dict[str, ConfigParam] = {}
                for param in loaded.parsed.assignments:
                    latest[param.key] = param
                inputs_params = list(latest.values())
        input_specs = parse_inputs_manifest(inputs_params) if inputs_params else []

        if cache is not None and not reuse:
            cache.save(entry, files, env, list(zip(todo, new)), graph)
        return cls(
            root=root,
            entry=entry,
            env=env,
            graph=graph,
            goal=goal,
            stages=_stages(entry, [f.path for f in files]),
            input_specs=input_specs,
        )

    def stage_macro_files(self) -> list[tuple[str, str]]:
        """(stage, build-relative macro path) for every stage that must
        publish one: all but the final (report) stage."""
        return [(s, f"tex/{s}.tex") for s in self.stages[:-1]]

    def macro_targets_declared(self) -> None:
        """Enforce the macro-file convention before running anything."""
        for stage, rel in self.stage_macro_files():
            target = f"{BUILD_LINK}/{rel}"
            if target not in self.graph.rules:
                raise MissingStageMacroFile(stage, target)


def _split_goal(all_rules: list[Rule], entry: str) -> tuple[str, list[Rule]]:
    """The goal and the rules without the `all` alias naming it; the goal
    is the first rule's target when there is no alias."""
    goal = None
    rules: list[Rule] = []
    for rule in all_rules:
        if rule.target == GOAL_ALIAS and not rule.recipe and goal is None:
            if len(rule.prerequisites) != 1:
                raise LineageError(
                    f"{rule.origin}: the '{GOAL_ALIAS}' goal alias must name exactly "
                    "one prerequisite"
                )
            goal = rule.prerequisites[0]
            continue
        rules.append(rule)
    if goal is None:
        if not rules:
            raise LineageError(f"{entry}: project defines no rules")
        goal = rules[0].target
    return goal, rules


def _stages(entry: str, paths: list[str]) -> list[str]:
    """The stage names: the loaded workflow files other than the entry, in
    load order."""
    suffix = _stem_and_suffix(entry)[1]
    stages = []
    for path in paths:
        stem, ext = _stem_and_suffix(path)
        if ext == suffix and path != entry:
            stages.append(stem)
    return stages


def _stem_and_suffix(path: str) -> tuple[str, str]:
    """`PurePath(path).stem` and `.suffix` for a normalized '/'-separated
    path, without building a path object."""
    name = path.rpartition("/")[2]
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        return name[:dot], name[dot:]
    return name, ""


def configure(
    root: str | Path,
    build_dir: str | Path,
    input_dir: str | None = None,
    software_dir: str | None = None,
    group: str | None = None,
    jobs: int = 1,
    strict_software: bool = False,
    on_event: EventCallback | None = None,
) -> LocalConfig:
    """Record local directories, create the build tree and the `.build`
    symlink, and verify the pinned software manifest. Idempotent."""
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    group_gid = _group_gid(group)
    root = Path(root)
    build_path = Path(build_dir).expanduser()
    if not build_path.is_absolute():
        build_path = (root / build_path).resolve()
    try:
        build_path.mkdir(parents=True, exist_ok=True)
        probe = build_path / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError:
        raise BuildDirNotWritable(str(build_path)) from None
    for sub in BUILD_SUBDIRS:
        (build_path / sub).mkdir(parents=True, exist_ok=True)

    link = root / BUILD_LINK
    if link.is_symlink() or link.exists():
        if link.is_symlink() and Path(os.readlink(link)) == build_path:
            pass
        else:
            if link.is_symlink() or link.is_file():
                link.unlink()
            else:
                raise LineageError(f"{link} exists and is not a symlink")
            link.symlink_to(build_path)
    else:
        link.symlink_to(build_path)

    if group_gid is not None:
        for directory in [build_path, *(build_path / s for s in BUILD_SUBDIRS)]:
            try:
                os.chown(directory, -1, group_gid)
            except (PermissionError, OSError):
                log.warning("could not change group of %s to %s", directory, group)
            mode = directory.stat().st_mode
            os.chmod(directory, mode | 0o2070)  # setgid + group rwx

    config = LocalConfig(
        build_dir=str(build_path),
        input_dir=input_dir,
        software_dir=software_dir,
        group=group,
        jobs=jobs,
        tool_path=os.environ.get("PATH", os.defpath),
    )
    config.save(root)
    _ensure_ignored(root, [LOCAL_CONFIG, BUILD_LINK])

    targets_file = root / TARGETS_RELPATH
    if targets_file.is_file():
        entries = parse_targets(_read_as_written(targets_file))
        tarball_dir = config.resolve_dir(root, software_dir) or (root / "tarballs-unset")
        report = verify_tarballs(entries, tarball_dir)
        for result in report.results:
            if on_event:
                on_event({"event": "software", "name": result.name, "status": result.status})
        mismatches = report.mismatches()
        if mismatches:
            first = mismatches[0]
            entry = next(e for e in entries if e.name == first.name)
            raise ChecksumMismatch(entry.tarball, "software tarball", entry.sha512,
                                   first.actual or "")
        missing = report.missing()
        if missing:
            names = ", ".join(r.name for r in missing)
            if strict_software:
                raise LineageError(f"software tarballs missing (strict mode): {names}")
            log.warning("software tarballs not present locally: %s", names)
    return config


def _group_gid(group: str | None) -> int | None:
    if not group:
        return None
    try:
        return grp.getgrnam(group).gr_gid
    except KeyError:
        raise LineageError(f"unknown group {group!r}") from None


def _ensure_ignored(root: Path, entries: list[str]) -> None:
    """Append to the user's .gitignore each entry that is not yet one of
    its lines, in the file's own line ending; its bytes stay as they are."""
    ignore = root / ".gitignore"
    text = _read_as_written(ignore) if ignore.is_file() else ""
    existing = {line.removesuffix("\r") for line in text.split("\n")}
    additions = [e for e in entries if e not in existing]
    if additions:
        eol = "\r\n" if "\r\n" in text else "\n"
        if text and not text.endswith("\n"):
            text += eol
        ignore.write_text(text + "".join(e + eol for e in additions), encoding="utf-8",
                          newline="")


@dataclass
class MakeResult:
    report: ExecutionReport
    verification: VerificationReport | None
    aggregate_path: Path | None
    goal: str


BIBTEX_DIR = "reproduce/software/bibtex"


def _software_builtins(root: Path) -> tuple[str, list, list]:
    targets_file = root / TARGETS_RELPATH
    if not targets_file.is_file():
        return "", [], []
    entries = parse_targets(_read_as_written(targets_file))
    text, _keys = acknowledgment_text(entries)
    return text, version_macros(entries), entries


def _emit_bibliography(root: Path, build_dir: Path, entries: list) -> Path | None:
    """Concatenate per-software .bib fragments, verbatim, in name order."""
    chunks: list[bytes] = []
    for entry in entries:
        fragment = root / BIBTEX_DIR / f"{entry.name}.bib"
        if fragment.is_file():
            chunks.append(fragment.read_bytes())
    if not chunks:
        return None
    out = build_dir / BIBLIOGRAPHY_RELPATH
    write_changed(out, b"".join(chunks))
    return out


def run_make(
    root: str | Path,
    jobs: int | None = None,
    mode: str = TIMESTAMP,
    offline: bool = False,
    serial_verify: bool = False,
    goal: str | None = None,
    transport: Transport | None = None,
    insecure: bool = False,
    on_event: EventCallback | None = None,
) -> MakeResult:
    """The full pipeline: parse, resolve inputs, execute the DAG, verify
    all deliverables, then aggregate the narrative macros.

    One BuildState, loaded here, holds the target records and serves
    every digest of a large file. It is saved once, after execution and
    verification, whether or not they succeed."""
    if jobs is not None and jobs < 1:
        raise UsageError("jobs must be >= 1")
    root = Path(root)
    config = LocalConfig.load(root)
    group_gid = _group_gid(config.group)
    build_dir = Path(config.build_dir)
    state = BuildState.load(build_dir)
    project = Project.load(root, build_dir=build_dir)
    project.macro_targets_declared()

    the_goal = goal or project.goal
    if the_goal not in project.graph.nodes:
        raise UnknownGoal(the_goal)
    # The verification bottleneck and macro aggregation gate the project's
    # final deliverable; an explicit sub-target build stops after execution.
    partial = the_goal != project.goal

    if project.input_specs:
        if transport is None and not offline:
            proxies = {"http": config.proxy, "https": config.proxy} if config.proxy else {}
            transport = UrllibTransport(proxies=proxies, insecure=insecure)
        resolver = InputResolver(
            build_dir,
            config.resolve_dir(root, config.input_dir),
            transport=transport,
            offline=offline,
            cache=state,
        )
        resolved = resolver.resolve_all(project.input_specs)
        if on_event:
            for name in sorted(resolved):
                on_event({"event": "input", "name": name, "path": str(resolved[name])})

    env_policy = EnvPolicy.hermetic(build_dir, config.tool_path, root)
    n_jobs = jobs if jobs is not None else config.jobs
    try:
        report = execute(
            project.graph,
            the_goal,
            n_jobs,
            env_policy,
            state,
            mode=mode,
            root=root,
            build_dir=build_dir,
            on_event=on_event,
            group_gid=group_gid,
        )
        if on_event:
            for target in report.skipped_fresh:
                on_event({"event": "fresh", "target": target})
        if partial:
            return MakeResult(report, None, None, the_goal)

        verification = _verify_stage(root, build_dir, on_event, state)
        if verification is not None and not verification.ok and serial_verify and n_jobs > 1:
            log.warning("verification failed after a parallel build; retrying serially")
            _remove_built(project, the_goal, root, state)
            report = execute(
                project.graph, the_goal, 1, env_policy, state,
                mode=mode, root=root, build_dir=build_dir,
                on_event=on_event, group_gid=group_gid,
            )
            verification = _verify_stage(root, build_dir, on_event, state)
    finally:
        state.save(build_dir)
    if verification is not None and not verification.ok:
        raise VerificationFailed([r.path for r in verification.failing()])

    aggregate_path = _aggregate_stage(root, project, build_dir, group_gid, on_event)
    return MakeResult(report, verification, aggregate_path, the_goal)


def _verify_stage(root: Path, build_dir: Path, on_event: EventCallback | None,
                  cache: BuildState | None = None) -> VerificationReport | None:
    manifest = root / VERIFY_MANIFEST
    if not manifest.is_file():
        return None
    entries = parse_manifest(_read_as_written(manifest), VERIFY_MANIFEST)
    report = verify_all(entries, build_dir, cache=cache)
    if on_event:
        for result in report.results:
            on_event({"event": "verify", "path": result.path, "status": result.status})
    return report


def _aggregate_stage(
    root: Path,
    project: Project,
    build_dir: Path,
    group_gid: int | None,
    on_event: EventCallback | None,
) -> Path:
    software_text, sw_macros, sw_entries = _software_builtins(root)
    builtins = builtin_macros(
        git_state(root),
        machine_info(__version__),
        software_text,
        upstream_commit=project.env.get("upstream-commit"),
    )
    builtins.extend(sw_macros)
    _emit_bibliography(root, build_dir, sw_entries)
    macro_files = [
        (stage, build_dir / rel) for stage, rel in project.stage_macro_files()
    ]
    text = aggregate_macros(macro_files, builtins)
    out = build_dir / AGGREGATE_RELPATH
    wrote = write_changed(out, text.encode("utf-8"))
    if group_gid is not None:
        try:
            os.chown(out, -1, group_gid)
        except (PermissionError, OSError):
            pass
        mode = out.stat().st_mode
        if mode & 0o060 != 0o060:
            try:
                os.chmod(out, mode | 0o060)
            except PermissionError:
                # An unchanged file another group member wrote: only its
                # owner may change its mode.
                if wrote:
                    raise
    if on_event:
        on_event({"event": "aggregate", "path": str(out)})
    return out


def _remove_built(project: Project, goal: str, root: Path, state: BuildState) -> None:
    """Drop all built files in the goal's closure (serial re-verify path)."""
    for node in ancestors(project.graph, goal):
        if project.graph.nodes[node] == BUILT:
            (root / node).unlink(missing_ok=True)
            state.forget(node)


def run_verify(root: str | Path, on_event: EventCallback | None = None) -> VerificationReport:
    """Standalone verification against the pinned manifest. It reads every
    byte of every entry: no digest comes from the cache."""
    root = Path(root)
    config = LocalConfig.load(root)
    if not (root / VERIFY_MANIFEST).is_file():
        raise LineageError(f"no verification manifest at {VERIFY_MANIFEST}")
    return _verify_stage(root, Path(config.build_dir), on_event)


def run_record(
    root: str | Path,
    paths: list[str] | None = None,
    filt: Filter | None = None,
    algorithm: str = "sha256",
) -> list[VerificationEntry]:
    """(Re-)pin the verification manifest.

    With `paths`, those build-relative files are added or re-pinned using
    `filt`/`algorithm`; without, every existing entry is re-pinned
    keeping its own algorithm and filter.
    """
    root = Path(root)
    config = LocalConfig.load(root)
    build_dir = Path(config.build_dir)
    manifest = root / VERIFY_MANIFEST
    entries: dict[str, VerificationEntry] = {}
    if manifest.is_file():
        for entry in parse_manifest(_read_as_written(manifest), VERIFY_MANIFEST):
            entries[entry.path] = entry
    if paths:
        use_filter = filt or Filter()
        for rel in paths:
            digest = filtered_digest(build_dir / rel, use_filter, algorithm)
            entries[rel] = VerificationEntry(rel, algorithm, digest, use_filter)
    else:
        for rel, entry in list(entries.items()):
            digest = filtered_digest(build_dir / rel, entry.filter, entry.algorithm)
            entries[rel] = VerificationEntry(rel, entry.algorithm, digest, entry.filter)
    result = sorted(entries.values(), key=lambda e: e.path)
    with staged(manifest) as tmp:
        tmp.write_text(serialize_manifest(result), encoding="utf-8")
    return result


def clean(root: str | Path) -> list[str]:
    """Delete built targets and the engine's byproducts: the macro
    aggregate, the bibliography, the build state, the lineage cache and
    the logs. Keep inputs."""
    root = Path(root)
    config = LocalConfig.load(root)
    build_dir = Path(config.build_dir)
    project = Project.load(root)
    removed: list[str] = []
    for target in project.graph.built():
        path = root / target
        if path.exists():
            path.unlink()
            removed.append(target)
        failed = Path(str(path) + ".failed")
        if failed.exists():
            failed.unlink()
    aggregate = build_dir / AGGREGATE_RELPATH
    if aggregate.exists():
        aggregate.unlink()
        removed.append(str(aggregate))
    # state/digests.tsv held the digests of large files before the build
    # state did; a build directory may still hold it.
    for byproduct in (BIBLIOGRAPHY_RELPATH, STATE_RELPATH, LINEAGE_RELPATH, "state/digests.tsv"):
        (build_dir / byproduct).unlink(missing_ok=True)
    logs = build_dir / "logs"
    if logs.is_dir():
        shutil.rmtree(logs)
        logs.mkdir()
    return removed


def _tracked_files(root: Path) -> list[str]:
    """Source files for dist: Git's view when available, else a filtered walk."""
    from .provenance import _git

    listing = _git(root, "ls-files")
    if listing is not None:
        return sorted(line for line in listing.splitlines() if line.strip())
    files: list[str] = []
    skip_names = {".git", BUILD_LINK, LOCAL_CONFIG}
    for path in root.rglob("*"):
        rel = path.relative_to(root)
        if any(part in skip_names for part in rel.parts):
            continue
        if path.is_symlink() or not path.is_file():
            continue
        if rel.parts and rel.parts[0].endswith(".tar.gz"):
            continue
        if path.name.endswith(".failed"):
            continue
        files.append(str(rel))
    return sorted(files)


def make_dist(root: str | Path, output: str | Path | None = None) -> Path:
    """Deterministic tar.gz of the project's source files.

    Entries are sorted, timestamps fixed at the epoch, ownership zeroed
    and the gzip header carries no mtime, so two runs on the same tree
    produce byte-identical archives.
    """
    import gzip
    import tarfile

    root = Path(root)
    git = git_state(root)
    version = git.version if git else "nogit"
    name = f"{root.resolve().name}-{version}"
    out = Path(output) if output else root / f"{name}.tar.gz"
    files = _tracked_files(root)

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as gz:
            with tarfile.open(fileobj=gz, mode="w", format=tarfile.USTAR_FORMAT) as tar:
                for rel in files:
                    full = root / rel
                    info = tarfile.TarInfo(name=f"{name}/{rel}")
                    info.size = full.stat().st_size
                    info.mtime = 0
                    info.uid = 0
                    info.gid = 0
                    info.uname = ""
                    info.gname = ""
                    info.mode = 0o755 if os.access(full, os.X_OK) else 0o644
                    with open(full, "rb") as fh:
                        tar.addfile(info, fh)
    return out


def export_project_graph(root: str | Path, fmt: str) -> str:
    from .provenance import export_graph

    project = Project.load(Path(root))
    return export_graph(project.graph, fmt)
