"""The parsed project from one `make` to the next: `<build>/state/lineage.json`.

`Project.load` parses every DSL file and expands every rule template.
This cache keeps what one such load found, one record per DSL file, so
that what a file yields is keyed by that file alone.

The file is JSON lines: a header, then one line per DSL file in load
order. The header holds the format number, the engine's `__version__`,
the entry file, the variables and the topological order. A file's
record holds its path, its StatKey and its items in source order: each
assignment (key, value, line), each include directive (pattern, `?`
flag, line) and each template (line, the names its texts read, the rules
it expanded to), then each include pattern with the paths it matched.

A record is trusted while its file's StatKey holds under
`state.trusted`, against the cache file's mtime. Every load walks the
include tree (`flatten_statements`) the same way: it takes every trusted
file's statements from its record, each run of its templates as one
`CachedRun`, opens only the other files, and globs every include. A
cached template keeps its rules unless it reads a name whose value
changed; then only its own lines are read again. A cached rule keeps
its recipe text and origin as the record holds them, checked, and
decodes them when first read (`cached_rules`). When no file was
parsed, no template expanded and every include matched the paths its
record holds, the load takes the graph from the header and writes
nothing. Otherwise it builds the graph, and `save` encodes the records of
the files that changed and writes every other record back as it was
read.

The file is written by `state.replace_file`. A missing or unreadable
file, or a header of another format, version or entry, is treated as
absent: it costs one full parse. A damaged or untrusted record costs a
parse of its file alone. A well-formed hand edit is believed, as one to
`digests.tsv` is. The file may be deleted at any time; `clean` deletes
it.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from . import __version__
from .errors import DslSyntaxError
from .graph import BUILT, SOURCE, LineageGraph, Origin, Rule, cached_rules
from .parser import (
    ConfigParam,
    IncludeDirective,
    LoadedFile,
    ParsedFile,
    RuleTemplate,
    parse_workflow,
    references,
)
from .state import StatKey, replace_file, stat_key, trusted

LINEAGE_RELPATH = "state/lineage.json"
FORMAT = 4


def _texts(value: object) -> list[str]:
    if type(value) is not list:
        raise ValueError("expected a list")
    "".join(value)  # a TypeError unless every item is a string
    return value


class _Record:
    """One DSL file's line of the cache, decoded: its StatKey, its items
    as stored and, once `decode` has checked them, its statements, each
    include pattern with the paths it matched, and the line as read."""

    __slots__ = ("path", "key", "items", "file", "globs", "line")

    def __init__(self, line: str):
        record = json.loads(line)
        if type(record) is not list or len(record) != 4:
            raise ValueError("malformed record")
        path, key, items, globs = record
        if type(path) is not str or type(key) is not list or len(key) != 5 \
                or any(type(n) is not int for n in key) \
                or type(items) is not list or type(globs) is not list:
            raise ValueError("malformed record")
        self.path, self.key, self.items, self.line = path, tuple(key), items, line
        self.globs = [(pattern, _texts(matches)) for pattern, matches in globs]
        "".join(pattern for pattern, _matches in self.globs)

    def decode(self) -> None:
        """Check every item and build the file's statements as parsing it
        gives them, but with each run of consecutive templates as one
        CachedRun.

        The hot loop, with its type checks inline: `split` raises unless
        called on a string, and `join` unless every item is one. Every
        check is made here, so a rule whose recipe and origin are decoded
        only when read (`cached_rules`) cannot fail then."""
        join, path, items = "".join, self.path, self.items
        out: list[object] = []
        start, rules = 0, []  # where the current run of templates starts; their rules
        for item in items:
            head = item[0]
            if type(head) is int:
                line, reads, targets, prereqs, *recipes = item
                if type(reads) is not str:
                    raise ValueError("malformed template")
                join(recipes)
                rules.append(cached_rules(targets, tuple(str.split(prereqs)), recipes, path, line))
                continue
            if rules:
                out.append(CachedRun(path, items[start:start + len(rules)], rules))
                start, rules = start + len(rules), []
            start += 1
            if head == "=" or head == "include":
                _head, line, first, second = item
                if type(line) is not int or type(first) is not str or \
                        type(second) is not (str if head == "=" else bool):
                    raise ValueError("malformed item")
                statement = ConfigParam if head == "=" else IncludeDirective
                out.append(statement(first, second, Origin(path, line)))
            else:
                raise ValueError("malformed item")
        if rules:
            out.append(CachedRun(path, items[start:], rules))
        self.file = ParsedFile(path, out)


class CachedRun:
    """Consecutive templates of a trusted file, as its record holds them:
    the item of each and the rules each expanded to. One item of the
    statement stream for all of them."""

    __slots__ = ("path", "items", "rules")

    def __init__(self, path: str, items: list[list], rules: list[list[Rule]]):
        self.path, self.items, self.rules = path, items, rules


class LineageCache:
    """One lineage.json, as read by `load`.

    `records` holds the record of every file it trusts, by path, `env`
    the variables the load that wrote it found, and `order` the
    topological order of its graph. A cache that could not be used holds
    nothing, and so serves no file."""

    def __init__(self, path: Path):
        self.path = path
        self.env: dict[str, str] = {}
        self.order: list[str] = []
        self.records: dict[str, _Record] = {}

    @classmethod
    def load(cls, build_dir: str | Path, root: Path, entry: str) -> "LineageCache":
        cache = cls(Path(build_dir) / LINEAGE_RELPATH)
        try:
            with open(cache.path, "rb") as fh:
                written_ns = os.fstat(fh.fileno()).st_mtime_ns
                header, *lines = fh.read().decode("ascii").split("\n")
            doc = json.loads(header)
            if (doc["format"], doc["version"], doc["entry"]) == (FORMAT, __version__, entry):
                cache._decode(doc, lines, root, written_ns)
        except (OSError, ValueError, TypeError, KeyError, RecursionError):
            return cls(cache.path)
        return cache

    def _decode(self, doc: dict, lines: list[str], root: Path, written_ns: int) -> None:
        """Check the header and keep every record whose file is trusted."""
        if type(doc["env"]) is not dict:
            raise ValueError("malformed cache")
        "".join(doc["env"].values())  # a TypeError unless every value is a string
        self.env, self.order = doc["env"], _texts(doc["order"])
        for line in lines:
            try:
                record = _Record(line)
                current = stat_key(os.stat(os.path.join(root, record.path)))
                if trusted(current, record.key, written_ns):
                    record.decode()
                    self.records[record.path] = record
            except (OSError, ValueError, TypeError, KeyError, IndexError, RecursionError):
                continue  # its file, if reached, is parsed

    def parsed(self) -> dict[str, tuple[ParsedFile, StatKey]]:
        """Per trusted file, its statements and its StatKey, for the
        include walk."""
        return {path: (record.file, record.key) for path, record in self.records.items()}

    def holds(self, files: list[LoadedFile]) -> bool:
        """Whether the include walk took every file from its record and
        every include matched the paths that record holds: then the
        statements, and so the files' rules, are those this cache was
        written from."""
        records = self.records
        return all(f.path in records and f.globs == records[f.path].globs for f in files)

    def graph(self, rules: list[Rule]) -> LineageGraph:
        """The cached graph over `rules`, the rules this cache was written
        from without the goal alias. `order` lists every node."""
        by_target = {rule.target: rule for rule in rules}
        nodes = {node: BUILT if node in by_target else SOURCE for node in sorted(self.order)}
        return LineageGraph(nodes=nodes, rules=by_target, order=self.order)

    def templates(self, root: Path, templates: list[RuleTemplate | CachedRun],
                  env: dict[str, str]) -> list[RuleTemplate | CachedRun] | None:
        """`templates`, with every cached template that reads an affected
        variable split out of its run and parsed again. Affected are the
        names whose value changed, and then every name whose old or new
        value reads an affected one. A cached template's file is unchanged
        since its record was trusted, so only the template's own lines are
        parsed. None if such a file has changed since, or its lines do not
        hold the template its record says they do."""
        if env == self.env:
            return templates
        users: dict[str, set[str]] = {}
        for name in self.env.keys() | env.keys():
            for value in (self.env.get(name, ""), env.get(name, "")):
                for ref in references(value):
                    users.setdefault(ref, set()).add(name)
        todo = [n for n in self.env.keys() | env.keys() if self.env.get(n) != env.get(n)]
        affected = set(todo)
        while todo:
            for user in users.get(todo.pop(), ()):
                if user not in affected:
                    affected.add(user)
                    todo.append(user)

        out: list[RuleTemplate | CachedRun] = []
        stale: dict[str, list[int]] = {}  # by file, where its stale templates are in `out`
        for t in templates:
            if type(t) is RuleTemplate:
                out.append(t)
                continue
            start = 0
            for k, item in enumerate(t.items):
                if not affected.isdisjoint(item[1].split()):
                    if start < k:
                        out.append(CachedRun(t.path, t.items[start:k], t.rules[start:k]))
                    stale.setdefault(t.path, []).append(len(out))
                    out.append(CachedRun(t.path, [item], [t.rules[k]]))
                    start = k + 1
            if start == 0:
                out.append(t)
            elif start < len(t.items):
                out.append(CachedRun(t.path, t.items[start:], t.rules[start:]))
        for path, at in stale.items():
            try:
                with open(os.path.join(root, path), encoding="utf-8", newline="") as fh:
                    if stat_key(os.fstat(fh.fileno())) != self.records[path].key:
                        return None
                    lines = fh.read().split("\n")
            except (OSError, UnicodeDecodeError):
                return None
            for i in at:
                first = out[i].rules[0][0]
                end = first.origin.line + len(first.recipe)
                try:
                    parsed = parse_workflow("\n".join(lines[first.origin.line - 1:end]), path)
                except DslSyntaxError:
                    return None
                if len(parsed.items) != 1 or type(parsed.items[0]) is not RuleTemplate:
                    return None
                out[i] = dataclasses.replace(parsed.items[0], origin=first.origin)
        return out

    def save(self, entry: str, files: list[LoadedFile], env: dict[str, str],
             expanded: list[tuple[RuleTemplate, list[Rule]]], graph: LineageGraph) -> None:
        """Write what one load found; `expanded` holds each template the
        load expanded, with its rules.

        A template is one item: its line, the names its texts read, its
        targets and its prerequisites, each joined by spaces, then each
        target's recipe with a newline before every line. Names and
        expanded paths hold no whitespace and expanded recipe lines no
        newline, so all split back exactly. A file whose record was
        trusted, whose templates all kept their rules and whose includes
        matched the same paths keeps its line as it was read."""
        fresh = {(t.origin.path, t.origin.line): (t, rules) for t, rules in expanded}

        def template(t: RuleTemplate, rules: list[Rule]) -> list:
            reads = set().union(*map(references, (t.target_text, t.prereq_text, *t.recipe)))
            return [t.origin.line, " ".join(sorted(reads)), " ".join([r.target for r in rules]),
                    " ".join(rules[0].prerequisites),
                    *["".join(["\n" + line for line in r.recipe]) for r in rules]]

        def items(f: LoadedFile) -> list[list]:
            out: list[list] = []
            for x in f.parsed.items:
                if type(x) is ConfigParam:
                    out.append(["=", x.origin.line, x.key, x.value])
                elif type(x) is IncludeDirective:
                    out.append(["include", x.origin.line, x.pattern, x.optional])
                elif type(x) is RuleTemplate:
                    out.append(template(*fresh[f.path, x.origin.line]))
                else:  # a CachedRun: each template's item, unless it was parsed again
                    out += [template(*fresh[f.path, item[0]]) if (f.path, item[0]) in fresh
                            else item for item in x.items]
            return out

        compact = {"separators": (",", ":")}
        changed = {path for path, _line in fresh}
        lines = [json.dumps({
            "format": FORMAT,
            "version": __version__,
            "entry": entry,
            "env": env,
            "order": graph.order,
        }, **compact)]
        for f in files:
            record = self.records.get(f.path)
            if record is not None and f.path not in changed and f.globs == record.globs:
                lines.append(record.line)
                continue
            globs = [[pattern, matches] for pattern, matches in f.globs]
            # ASCII, so a file name that is not UTF-8 (a surrogate escape
            # from a glob) is written as a `\u` escape and reads back the
            # same.
            lines.append(json.dumps([f.path, f.stat, items(f), globs], **compact))
        replace_file(self.path, "\n".join(lines).encode("ascii"))
