"""The parsed project from one `make` to the next: `<build>/state/lineage.json`.

`Project.load` parses every DSL file and expands every rule template.
This cache keeps what one such load found, keyed by:

* the StatKey of every DSL file it read, each trusted under
  `state.trusted` against the cache file's mtime;
* every include pattern with the paths it matched, globbed again on each
  lookup, so a new file matching an include glob is seen;
* the format number, the engine's `__version__` and the entry file.

While the whole key holds, nothing is parsed. When it does not, the
project is parsed again and `reusable` hands back the cached rules of
every template that need not be expanded again; the graph is built anew.

The file is one JSON object, written by `state.replace_file`. A missing,
truncated or malformed file, or one of another format or version, is
treated as absent: it costs one full parse. A well-formed hand edit is
believed, as one to `digests.tsv` is. The file may be deleted at any
time; `clean` deletes it.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

from . import __version__
from .graph import BUILT, SOURCE, LineageGraph, Origin, Rule
from .parser import InputSpec, LoadedFile, RuleTemplate, include_matches, references
from .state import StatKey, replace_file, stat_key, trusted

LINEAGE_RELPATH = "state/lineage.json"
FORMAT = 2


def _texts(value: object) -> list[str]:
    if type(value) is not list:
        raise ValueError("expected a list")
    "".join(value)  # a TypeError unless every item is a string
    return value


class LineageCache:
    """One lineage.json, as read by `load`.

    On a hit, `rules` holds every rule the templates expanded to, in
    order, and `files`, `env`, `input_specs` and `order` what the load
    that wrote the cache found. On a miss, `env` and, by file and line,
    the rules of each template with the item they were decoded from are
    kept for `reusable` and `save`. A cache that could not be used holds
    nothing."""

    def __init__(self, path: Path):
        self.path = path
        self.hit = False
        self.files: list[str] = []
        self.env: dict[str, str] = {}
        self.rules: list[Rule] = []
        self.input_specs: list[InputSpec] = []
        self.order: list[str] = []
        self._keys: dict[str, StatKey] = {}
        self._written_ns = 0
        self._templates: dict[tuple[str, int], tuple[list[Rule], list]] = {}

    @classmethod
    def load(cls, build_dir: str | Path, root: Path, entry: str) -> "LineageCache":
        cache = cls(Path(build_dir) / LINEAGE_RELPATH)
        try:
            with open(cache.path, encoding="ascii") as fh:
                written_ns = os.fstat(fh.fileno()).st_mtime_ns
                doc = json.load(fh)
            if (doc["format"], doc["version"], doc["entry"]) == (FORMAT, __version__, entry):
                cache._decode(doc, root, written_ns)
        except (OSError, ValueError, TypeError, KeyError):
            return cls(cache.path)
        return cache

    def _decode(self, doc: dict, root: Path, written_ns: int) -> None:
        """Check the key, then decode what a hit, or a miss, needs."""
        lists = ("files", "globs", "rules", "inputs", "order")
        if type(doc["env"]) is not dict or any(type(doc[name]) is not list for name in lists):
            raise ValueError("malformed cache")
        keys: dict[str, StatKey] = {}
        for path, *key in doc["files"]:
            if type(path) is not str or len(key) != 5 or any(type(n) is not int for n in key):
                raise ValueError("malformed file key")
            keys[path] = tuple(key)
        unchanged = True
        for path, key in keys.items():
            try:
                unchanged = trusted(stat_key(os.stat(root / path)), key, written_ns)
            except OSError:
                unchanged = False
            if not unchanged:
                break
        for pattern, matches in doc["globs"]:
            if type(pattern) is not str:
                raise ValueError("malformed include pattern")
            unchanged = unchanged and include_matches(pattern, root) == _texts(matches)
        env = doc["env"]
        "".join(env.values())  # a TypeError unless every value is a string

        # The hot loop, with its type checks inline: `split` raises unless
        # called on a string, and `join` unless every item is one.
        join = "".join
        rules: list[Rule] = []
        templates: dict[tuple[str, int], tuple[list[Rule], list]] = {}
        for path, items in doc["rules"]:
            if type(path) is not str:
                raise ValueError("malformed origin")
            for item in items:
                line, reads, targets, prereqs, *recipes = item
                if type(line) is not int or type(reads) is not str:
                    raise ValueError("malformed template")
                join(recipes)
                origin = Origin(path, line)
                prereqs = tuple(str.split(prereqs))
                expanded = [Rule(target, prereqs, tuple(recipe.split("\n")[1:]), origin)
                            for target, recipe in zip(str.split(targets), recipes, strict=True)]
                rules += expanded
                templates[path, line] = expanded, item
        self.files = list(keys)
        self.env = env
        if not unchanged:
            self._keys, self._written_ns, self._templates = keys, written_ns, templates
            return

        for pin in doc["inputs"]:
            if type(pin) is not list or len(pin) != 6 or pin[5] is not None \
                    and type(pin[5]) is not str:
                raise ValueError("malformed input pin")
            self.input_specs.append(InputSpec(*_texts(pin[:5]), size_hint=pin[5]))
        self.order = _texts(doc["order"])
        self.rules = rules
        self.hit = True

    def graph(self, rules: list[Rule]) -> LineageGraph:
        """On a hit, the cached graph over `rules`: the cached rules
        without the goal alias. `order` lists every node."""
        by_target = {rule.target: rule for rule in rules}
        nodes = {node: BUILT if node in by_target else SOURCE for node in sorted(self.order)}
        return LineageGraph(nodes=nodes, rules=by_target, order=self.order)

    def reusable(self, files: list[LoadedFile], templates: list[RuleTemplate],
                 env: dict[str, str]) -> list[list[Rule] | None]:
        """Per template, its cached rules if it expands as it did, else
        None. It does when the cache trusts its file unchanged, as `files`
        read it, so its text and origin are too, and it reads no variable
        whose value is affected. Affected are the names whose value
        changed, and then every name whose old or new value reads an
        affected one."""
        unchanged = {f.path for f in files if f.path in self._keys
                     and trusted(f.stat, self._keys[f.path], self._written_ns)}
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
        reused: list[list[Rule] | None] = []
        for t in templates:
            rules, item = None, None
            if t.origin.path in unchanged:
                rules, item = self._templates.get((t.origin.path, t.origin.line), (None, None))
            reused.append(rules if item and affected.isdisjoint(item[1].split()) else None)
        return reused

    def save(self, entry: str, files: list[LoadedFile], env: dict[str, str],
             templates: list[RuleTemplate], expanded: list[list[Rule]],
             input_specs: list[InputSpec], graph: LineageGraph) -> None:
        """Write what one load found; `expanded` holds the rules of each
        template, in order, as `reusable` handed them back or as they were
        expanded again.

        The rules of a template are one item under its file: its line,
        the names its texts read, its targets and its prerequisites, each
        joined by spaces, then each target's recipe with a newline before
        every line. Names and expanded paths hold no whitespace and
        expanded recipe lines no newline, so all split back exactly.
        Reused rules keep the item they were decoded from."""

        def item(t: RuleTemplate, rules: list[Rule]) -> list:
            cached, cached_item = self._templates.get((t.origin.path, t.origin.line), (None, None))
            if cached is rules:
                return cached_item
            reads = set().union(*map(references, (t.target_text, t.prereq_text, *t.recipe)))
            return [t.origin.line, " ".join(sorted(reads)), " ".join([r.target for r in rules]),
                    " ".join(rules[0].prerequisites),
                    *["".join(["\n" + line for line in r.recipe]) for r in rules]]

        pairs = zip(templates, expanded, strict=True)
        doc = {
            "format": FORMAT,
            "version": __version__,
            "entry": entry,
            "files": [[f.path, *f.stat] for f in files],
            "globs": [glob for f in files for glob in f.globs],
            "env": env,
            "rules": [
                [path, [item(*pair) for pair in group]]
                for path, group in itertools.groupby(pairs, lambda pair: pair[0].origin.path)
            ],
            "inputs": [[s.name, s.filename, s.algorithm, s.digest, s.url, s.size_hint]
                       for s in input_specs],
            "order": graph.order,
        }
        # ASCII, so a file name that is not UTF-8 (a surrogate escape from
        # a glob) is written as a `\u` escape and reads back the same.
        replace_file(self.path, json.dumps(doc, separators=(",", ":")).encode("ascii"))
