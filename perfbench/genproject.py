"""Seeded generator of the benchmark's workflow projects.

A workload's project is described twice: once as a `Model` (the DAG, the
parameter values, the values every recipe will compute) and once as the
files the engine reads. The model is built first and the files are
rendered from it, so the oracle in `oracle.py` predicts what the engine
must do without asking the engine. The same seed always gives
byte-identical files.

Two project shapes exist:

* `dag`, behind `noop-large` and `edit-rebuild`: about 3,000 single-line
  `printf` rules in 30 stage files over a layered DAG, one parameter file
  per stage wired to seeded rules whose descendants number exactly 100, a
  macro file per stage, a small pinned input and a few-hundred-entry
  verification manifest.
* `bulk`, behind `bulk-hash`: about 30 rules over one pinned CSV of tens
  of MB. Large outputs are made by `cp`, `tr`, `cut` and a timestamped
  copy and pinned with strip-comments; small `head | tail` probes read
  them; a summary step alone reads `summary.conf`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

MAKE_DIR = "reproduce/analysis/make"
CONFIG_DIR = "reproduce/analysis/config"
TARGETS_CONF = "reproduce/software/config/TARGETS.conf"
INPUTS_CONF = f"{CONFIG_DIR}/INPUTS.conf"
VERIFY_CONF = f"{CONFIG_DIR}/verify.conf"
BDIR = ".build"

# Software pins written to TARGETS.conf: (name, version, tarball bytes).
# Names are letters only, so each macro stem is the name itself.
SOFTWARE = (("hashkit", "2.1", 1 << 20), ("rowtool", "0.9", 1 << 19),
            ("textproc", "4.2", 3 << 19))

# Workload -> (project shape, whether ops edit a parameter, make mode).
WORKLOADS = {
    "noop-large": ("dag", False, "timestamp"),
    "edit-rebuild": ("dag", True, "timestamp"),
    "bulk-hash": ("bulk", True, "digest"),
}


@dataclass
class Rule:
    """One generated rule; paths are project-relative, as the engine sees
    them (`.build/...` for build outputs, or a config file)."""

    target: str
    prereqs: list[str]
    recipe: str  # one recipe line, DSL text
    stage: str


@dataclass
class Model:
    """What the oracle needs to predict an op, and what the files say."""

    kind: str  # "dag" | "bulk"
    seed: int
    stages: list[str]  # stage file stems in include order; the last is final
    rules: list[Rule]
    goal: str
    # Parameter file path -> (key, original value, alternate value).
    params: dict[str, tuple[str, str, str]]
    macro_names: list[str] = field(default_factory=list)  # stage macros, in order
    input_filename: str = ""
    # dag shape: each printf rule's constant value, the parameter file a
    # rule prints instead, and how many outputs verify.conf pins.
    const_value: dict[str, int] = field(default_factory=dict)
    reads_param: dict[str, str] = field(default_factory=dict)
    n_verify: int = 0
    # bulk shape: data rows in the input and probe target -> (1-based
    # line, source file). Constant macro values are filled in when the
    # input is written, since they depend on its bytes.
    bulk_rows: int = 0
    probes: dict[str, tuple[int, str]] = field(default_factory=dict)
    bulk_macros: dict[str, str] = field(default_factory=dict)

    def dependents(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for rule in self.rules:
            for p in rule.prereqs:
                out.setdefault(p, []).append(rule.target)
        return out


def closure(start: list[str], dependents: dict[str, list[str]]) -> set[str]:
    """`start` plus every node reachable through `dependents`."""
    seen: set[str] = set()
    todo = list(start)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(dependents.get(node, ()))
    return seen


def _letters(i: int) -> str:
    """0 -> 'aa', 1 -> 'ab', ...: macro names must be ASCII letters."""
    return chr(97 + i // 26) + chr(97 + i % 26)


def _macro_recipe(name: str, value_sh: str) -> str:
    """A recipe line printing `\\newcommand{\\name}{<value_sh>}` to `$@`."""
    return f"printf '\\\\newcommand{{\\\\{name}}}{{%s}}\\n' {value_sh} > $@"


# --------------------------------------------------------------------------
# dag shape


def dag_model(seed: int, n_stages: int = 30, rules_per_stage: int = 100,
              layers: int = 5, invalidate: int = 100, n_verify: int = 300) -> Model:
    """Layered DAG of `n_stages * rules_per_stage` printf rules.

    Inside a stage, each rule of layer L > 0 reads one or two rules of
    layer L-1; a tenth of the layer-0 rules also read a last-layer rule
    of the previous stage, so staleness crosses stage boundaries. Each
    stage's parameter file is then wired to rules taken in seeded order,
    skipping any that would push its descendants past `invalidate`, so
    every edit reruns the same number of recipes.
    """
    rng = random.Random(f"dag-{seed}")
    per_layer = rules_per_stage // layers
    stages = [f"stage-{s:02d}" for s in range(n_stages)]
    rules: list[Rule] = []
    by_layer: dict[tuple[int, int], list[str]] = {}
    const_value: dict[str, int] = {}
    for s in range(n_stages):
        for layer in range(layers):
            names = []
            for k in range(per_layer):
                target = f"{BDIR}/s{s:02d}r{layer * per_layer + k:03d}.txt"
                prereqs: list[str] = []
                if layer > 0:
                    prereqs = sorted(rng.sample(by_layer[(s, layer - 1)], rng.choice((1, 1, 2))))
                elif s > 0 and rng.random() < 0.1:
                    prereqs = [rng.choice(by_layer[(s - 1, layers - 1)])]
                const_value[target] = rng.randint(1, 9)
                rules.append(Rule(target, prereqs, "", stages[s]))
                names.append(target)
            by_layer[(s, layer)] = names

    macro_targets = [f"{BDIR}/tex/{st}.tex" for st in stages]
    for s, (st, mt) in enumerate(zip(stages, macro_targets)):
        prereqs = [r.target for r in rules if r.stage == st]
        value = "\"$$(cat $^ | awk '{s += $$2} END {print s}')\""
        rules.append(Rule(mt, prereqs, _macro_recipe(f"stage{_letters(s)}total", value), st))
    report = f"{BDIR}/report.txt"
    rules.append(Rule(report, [*macro_targets, f"{BDIR}/inputs/table.txt"],
                      "cat $^ > $@", "report"))

    model = Model("dag", seed, [*stages, "report"], rules, report, {},
                  macro_names=[f"stage{_letters(s)}total" for s in range(n_stages)],
                  input_filename="table.txt", const_value=const_value, n_verify=n_verify)
    by_target = {r.target: r for r in rules}
    deps = model.dependents()  # parameter files never add target->target edges
    for s in range(n_stages):
        path = f"{CONFIG_DIR}/param-{s:02d}.conf"
        original = rng.randint(100, 499)
        model.params[path] = (f"param-{s:02d}", str(original),
                              str(original + rng.randint(1, 400)))
        candidates = [t for t in const_value if t not in model.reads_param]
        rng.shuffle(candidates)
        reached: set[str] = set()
        for cand in candidates:
            grown = reached | closure([cand], deps)
            if len(grown) <= invalidate:
                by_target[cand].prereqs.append(path)
                model.reads_param[cand] = path
                reached = grown
            if len(reached) == invalidate:
                break

    for target, value in const_value.items():
        rid = Path(target).stem
        if target in model.reads_param:
            key = model.params[model.reads_param[target]][0]
            by_target[target].recipe = f"printf '{rid} %s\\n' '$({key})' > $@"
        else:
            by_target[target].recipe = f"printf '{rid} {value}\\n' > $@"
    return model


def _dag_table(seed: int) -> bytes:
    """The dag shape's small pinned input."""
    rng = random.Random(f"table-{seed}")
    return "".join(f"row{i:03d} {rng.randint(0, 999)}\n" for i in range(64)).encode()


def _dag_pins(model: Model) -> dict[str, bytes]:
    """Build-relative path -> predicted bytes for the outputs verify.conf
    pins: seeded constant outputs, which no parameter edit changes."""
    fixed = sorted(t for t in model.const_value if t not in model.reads_param)
    rng = random.Random(f"verify-{model.seed}")
    pinned = sorted(rng.sample(fixed, min(len(fixed), model.n_verify)))
    return {t[len(BDIR) + 1:]: f"{Path(t).stem} {model.const_value[t]}\n".encode()
            for t in pinned}


# --------------------------------------------------------------------------
# bulk shape

BULK_BLOCK = 1000  # data rows between comment lines
ROW_BYTES = 58  # "0000000,<32 hex>,<16 hex>\n"
CUT_BYTES = 40  # the first two fields
_UPPER = bytes.maketrans(b"abcdef", b"ABCDEF")


def bulk_model(seed: int, megabytes: int = 20, n_probes: int = 20) -> Model:
    """One pinned CSV of `megabytes` MiB and about 30 rules over it."""
    rng = random.Random(f"bulk-{seed}")
    rows = megabytes * (1 << 20) // ROW_BYTES
    stages = ["import", "derive", "probe", "summary", "report"]
    data, upper, stamped, cut = (f"{BDIR}/bulk-{n}.csv" for n in
                                 ("data", "upper", "stamped", "cut"))
    rules = [
        Rule(data, [f"{BDIR}/inputs/bulk-input.csv"], "cp $< $@", "import"),
        Rule(f"{BDIR}/tex/import.tex", [data],
             _macro_recipe("bulkrows", "\"$$(grep -cv '^#' $<)\""), "import"),
        Rule(upper, [data], "tr 'a-f' 'A-F' < $< > $@", "derive"),
        Rule(stamped, [data], "{ date -u '+# stamped %Y-%m-%dT%H:%M:%SZ'; cat $<; } > $@",
             "derive"),
        Rule(cut, [upper], "cut -d, -f1,2 $< > $@", "derive"),
        Rule(f"{BDIR}/tex/derive.tex", [upper, stamped, cut],
             _macro_recipe("bulkderivedrows", "\"$$(cat $^ | grep -cv '^#')\""), "derive"),
    ]
    probes: dict[str, tuple[int, str]] = {}
    total_lines = rows + -(-rows // BULK_BLOCK)
    for k in range(n_probes):
        src = (data, upper, cut)[k % 3]
        line = rng.randint(1, total_lines)
        target = f"{BDIR}/probe-{k:02d}.txt"
        rules.append(Rule(target, [src], f"head -n {line} $< | tail -n 1 > $@", "probe"))
        probes[target] = (line, src)
    rules.append(Rule(f"{BDIR}/tex/probe.tex", list(probes),
                      _macro_recipe("bulkprobebytes", "\"$$(cat $^ | wc -c)\""), "probe"))
    summary_conf = f"{CONFIG_DIR}/summary.conf"
    rules.append(Rule(f"{BDIR}/tex/summary.tex", [f"{BDIR}/tex/probe.tex", summary_conf],
                      _macro_recipe("bulksummarylabel", "'$(summary-label)'"), "summary"))
    report = f"{BDIR}/report.txt"
    rules.append(Rule(report, [f"{BDIR}/tex/{s}.tex" for s in stages[:-1]],
                      "cat $^ > $@", "report"))
    params = {summary_conf: ("summary-label", str(rng.randint(1000, 4999)),
                             str(rng.randint(5000, 9999)))}
    return Model("bulk", seed, stages, rules, report, params,
                 macro_names=["bulkrows", "bulkderivedrows", "bulkprobebytes",
                              "bulksummarylabel"],
                 input_filename="bulk-input.csv", bulk_rows=rows, probes=probes)


def _write_bulk_input(model: Model, dest: Path) -> tuple[str, dict[str, str]]:
    """Stream the input CSV to `dest` and predict the derived outputs.

    Returns the input's sha256 and, per build-relative output pinned in
    verify.conf, its digest under that entry's filter. Fills in
    `model.bulk_macros`.
    """
    rng = random.Random(f"bulk-rows-{model.seed}")
    whole, upper_h, stamped_h, cut_h = (hashlib.sha256() for _ in range(4))
    lines_per_block = BULK_BLOCK + 1
    wanted: dict[int, list[str]] = {}
    for target, (line, _src) in model.probes.items():
        wanted.setdefault((line - 1) // lines_per_block, []).append(target)
    probe_bytes: dict[str, bytes] = {}
    rows = model.bulk_rows
    with open(dest, "wb") as fh:
        for block, start in enumerate(range(0, rows, BULK_BLOCK)):
            blob = rng.randbytes(24 * min(BULK_BLOCK, rows - start)).hex()
            lines = [f"{start + i:07d},{blob[48 * i:48 * i + 32]},{blob[48 * i + 32:48 * i + 48]}\n"
                     for i in range(len(blob) // 48)]
            comment = f"# block {block:05d}\n".encode()
            data = "".join(lines).encode()
            upper = data.translate(_UPPER)
            cut = "".join(line[:CUT_BYTES] + "\n" for line in lines).encode().translate(_UPPER)
            fh.write(comment + data)
            whole.update(comment + data)
            stamped_h.update(data)
            upper_h.update(upper)
            cut_h.update(cut)
            for target in wanted.get(block, ()):
                line, src = model.probes[target]
                offset = (line - 1) % lines_per_block
                if offset == 0:
                    raw = comment
                else:
                    raw = lines[offset - 1].encode()
                variant = src.rsplit("-", 1)[1].split(".")[0]
                if variant == "upper":
                    raw = raw.translate(_UPPER)
                elif variant == "cut":
                    raw = (raw if offset == 0 else raw[:CUT_BYTES] + b"\n").translate(_UPPER)
                probe_bytes[target] = raw
    model.bulk_macros = {
        "bulkrows": str(rows),
        "bulkderivedrows": str(3 * rows),
        "bulkprobebytes": str(sum(len(b) for b in probe_bytes.values())),
    }
    pins = {"bulk-upper.csv": upper_h.hexdigest(), "bulk-stamped.csv": stamped_h.hexdigest(),
            "bulk-cut.csv": cut_h.hexdigest()}
    pins.update({t[len(BDIR) + 1:]: hashlib.sha256(b).hexdigest()
                 for t, b in probe_bytes.items()})
    return whole.hexdigest(), pins


# --------------------------------------------------------------------------
# rendering


def param_text(key: str, value: str) -> bytes:
    return f"# Benchmark parameter; edits invalidate its descendants.\n{key} = {value}\n".encode()


def _dsl_path(path: str) -> str:
    return "$(BDIR)" + path[len(BDIR):] if path.startswith(BDIR + "/") else path


def _stage_text(model: Model, stage: str) -> bytes:
    out = [f"# Stage {stage}, generated by the benchmark from seed {model.seed}.\n"]
    for rule in model.rules:
        if rule.stage == stage:
            head = " ".join([f"{_dsl_path(rule.target)}:", *map(_dsl_path, rule.prereqs)])
            out.append(f"\n{head}\n\t{rule.recipe}\n")
    return "".join(out).encode()


def _top_text(model: Model) -> bytes:
    lines = [f"all: {_dsl_path(model.goal)}\n\n", f"include {CONFIG_DIR}/*.conf\n\n"]
    lines += [f"include {MAKE_DIR}/{stage}.wf\n" for stage in model.stages]
    return "".join(lines).encode()


def software_ack() -> str:
    """The acknowledgment text the engine builds from SOFTWARE."""
    return ", ".join(f"{n} {v}" for n, v, _ in sorted(SOFTWARE, key=lambda e: e[0].lower()))


def write_project(model: Model, dest: str | Path) -> dict[str, Path]:
    """Write the project tree, its input directory and its tarballs.

    Layout under `dest`: `proj/` (the project, to be committed),
    `inputs/` (the configure-time input directory) and `tarballs/` (the
    software directory). Returns those three paths by name.
    """
    dest = Path(dest)
    dirs = {name: dest / name for name in ("proj", "inputs", "tarballs")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)

    files = {".gitignore": b".local-config\n.build\n", f"{MAKE_DIR}/top.wf": _top_text(model)}
    for stage in model.stages:
        files[f"{MAKE_DIR}/{stage}.wf"] = _stage_text(model, stage)
    for path, (key, value, _alt) in model.params.items():
        files[path] = param_text(key, value)

    input_path = dirs["inputs"] / model.input_filename
    if model.kind == "dag":
        table = _dag_table(model.seed)
        input_path.write_bytes(table)
        input_digest = hashlib.sha256(table).hexdigest()
        verify = [(rel, hashlib.sha256(b).hexdigest(), "none")
                  for rel, b in _dag_pins(model).items()]
    else:
        input_digest, pins = _write_bulk_input(model, input_path)
        verify = [(rel, d, "strip-comments:#" if rel.endswith(".csv") else "none")
                  for rel, d in pins.items()]
    files[VERIFY_CONF] = "".join(f"{r}\tsha256\t{d}\t{f}\n" for r, d, f in sorted(verify)).encode()

    name = Path(model.input_filename).stem.replace("-", "").upper()
    files[INPUTS_CONF] = (
        f"{name} = {model.input_filename}\n"
        f"{name}-SHA256 = {input_digest}\n"
        f"{name}-URL = https://example.invalid/bench/{model.input_filename}\n"
    ).encode()

    targets = []
    for sw, version, size in SOFTWARE:
        blob = random.Random(f"tarball-{model.seed}-{sw}").randbytes(size)
        tarball = f"{sw}-{version}.tar.gz"
        (dirs["tarballs"] / tarball).write_bytes(blob)
        targets.append(f"{sw}\t{version}\t{tarball}\t{hashlib.sha512(blob).hexdigest()}\n")
    files[TARGETS_CONF] = "".join(targets).encode()

    for rel, data in files.items():
        path = dirs["proj"] / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return dirs


def build_model(workload: str, seed: int, small: bool = False) -> Model:
    """The model of a workload; `small` shrinks it for the benchmark's tests."""
    if WORKLOADS[workload][0] == "dag":
        if small:
            return dag_model(seed, n_stages=3, rules_per_stage=10, layers=2,
                             invalidate=6, n_verify=8)
        return dag_model(seed)
    return bulk_model(seed, megabytes=1 if small else 20, n_probes=6 if small else 20)
