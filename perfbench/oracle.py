"""Independent oracle: what one `run_make` op must do, from the model alone.

The oracle never calls the engine. It tracks the current value of every
parameter file, derives the targets an edit invalidates by walking the
generator's own dependency lists, and predicts every macro in the
aggregate file, including the `-dirty` suffix on `\\projectversion`
while any tracked parameter file differs from its committed value.
"""

from __future__ import annotations

import platform
import re
import sys
from pathlib import Path

from genproject import SOFTWARE, Model, closure, param_text, software_ack

MACRO_RE = re.compile(r"^\\newcommand\{\\([A-Za-z]+)\}\{(.*)\}$")
AGGREGATE = "tex/project.tex"


class Oracle:
    def __init__(self, model: Model, head: str):
        self.model = model
        self.head = head
        self.values = {path: v[1] for path, v in model.params.items()}
        self._dependents = model.dependents()
        self._stage_rules = {st: [r.target for r in model.rules
                                  if r.stage == st and r.target in model.const_value]
                             for st in model.stages}

    def built_targets(self) -> set[str]:
        return {r.target for r in self.model.rules}

    def edit(self, path: str) -> tuple[bytes, set[str]]:
        """Flip `path` to its other value. Returns the file's new bytes and
        the targets the next make must execute: every descendant."""
        key, original, alternate = self.model.params[path]
        value = alternate if self.values[path] == original else original
        self.values[path] = value
        return param_text(key, value), closure(self._dependents[path], self._dependents)

    def direct_dependents(self, path: str) -> list[str]:
        return self._dependents[path]

    def expected_macros(self) -> list[tuple[str, str | None]]:
        """(name, value) in aggregate order; None accepts any value."""
        dirty = any(self.values[p] != v[1] for p, v in self.model.params.items())
        macros: list[tuple[str, str | None]] = [
            ("projectversion", self.head[:7] + ("-dirty" if dirty else "")),
            ("machinearchitecture", platform.machine() or "unknown"),
            ("machinebyteorder", sys.byteorder),
            ("machineaddresssizes", None),
            ("projectsoftware", software_ack()),
        ]
        macros += [(f"sw{name}version", version) for name, version, _ in sorted(SOFTWARE)]
        model = self.model
        if model.kind == "dag":
            for stage, name in zip(model.stages, model.macro_names):
                total = 0
                for target in self._stage_rules[stage]:
                    param = model.reads_param.get(target)
                    total += int(self.values[param]) if param else model.const_value[target]
                macros.append((name, str(total)))
        else:
            label = self.values[next(iter(model.params))]
            macros += [(n, model.bulk_macros.get(n, label)) for n in model.macro_names]
        return macros

    def check(self, result, build_dir: Path, expected: set[str]) -> list[str]:
        """Every way the op's outcome differs from the prediction."""
        problems = []
        executed = set(result.report.executed_targets())
        if executed != expected:
            problems.append(f"executed {len(executed)} targets, expected {len(expected)}; "
                            f"unexpected {sorted(executed - expected)[:3]}, "
                            f"missing {sorted(expected - executed)[:3]}")
        if result.verification is None or not result.verification.ok:
            problems.append("verification did not pass")
        actual = []
        for line in (build_dir / AGGREGATE).read_text(encoding="utf-8").splitlines():
            match = MACRO_RE.match(line)
            actual.append((match.group(1), match.group(2)) if match else (line, None))
        want = self.expected_macros()
        if len(actual) != len(want) or any(
                a[0] != w[0] or (w[1] is not None and a[1] != w[1])
                for a, w in zip(actual, want)):
            diff = [(a, w) for a, w in zip(actual, want) if a != w and w[1] is not None]
            problems.append(f"aggregate macros differ: {diff[:3] or (len(actual), len(want))}")
        return problems
