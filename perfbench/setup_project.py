"""Set up one workload project: generate, commit, configure, cold build.

Runs as its own process so that the benchmark process's peak RSS is set
by the timed ops alone. Prints one JSON line: the cold-build wall time,
the committed HEAD, and the generator's predicted constant macros.
Exits non-zero if the cold build differs from the oracle.

    python3 perfbench/setup_project.py --workload noop-large --seed 1 --dest DIR
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The host's git configuration must not change what git does, or costs,
# in set-up or in the engine's own git calls during ops.
GIT_ISOLATION = {"GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
# Fixed identity and dates make the commit, and so \projectversion,
# a function of the seed alone.
GIT_IDENTITY = {
    "GIT_AUTHOR_NAME": "bench", "GIT_AUTHOR_EMAIL": "bench@example.invalid",
    "GIT_COMMITTER_NAME": "bench", "GIT_COMMITTER_EMAIL": "bench@example.invalid",
    "GIT_AUTHOR_DATE": "2020-06-04T00:00:00Z", "GIT_COMMITTER_DATE": "2020-06-04T00:00:00Z",
}


def git(proj: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(proj), "-c", "init.defaultBranch=main", *args],
                          env={**os.environ, **GIT_ISOLATION, **GIT_IDENTITY}, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {proc.stdout.strip()}")
    return proc.stdout.strip()


def configure_kwargs(dest: Path) -> dict:
    """Arguments of `configure` for the project generated under `dest`."""
    return {"build_dir": dest / "build", "input_dir": str(dest / "inputs"),
            "software_dir": str(dest / "tarballs"), "jobs": 2, "strict_software": True}


def set_up(workload: str, seed: int, dest: Path, small: bool = False) -> dict:
    """Generate, commit, configure and cold-build one project under `dest`."""
    from genproject import WORKLOADS, build_model, write_project
    from oracle import Oracle
    from lineage_forge.project import configure, run_make

    model = build_model(workload, seed, small)
    proj = write_project(model, dest)["proj"]
    git(proj, "init", "-q")
    git(proj, "add", "-A")
    git(proj, "commit", "-q", "-m", f"{workload} seed {seed}")
    head = git(proj, "rev-parse", "HEAD")
    configure(proj, **configure_kwargs(dest))
    started = time.perf_counter()
    result = run_make(proj, jobs=2, offline=True, mode=WORKLOADS[workload][2])
    cold = time.perf_counter() - started
    oracle = Oracle(model, head)
    problems = oracle.check(result, dest / "build", oracle.built_targets())
    return {"cold_build_s": cold, "head": head, "bulk_macros": model.bulk_macros,
            "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    info = set_up(args.workload, args.seed, args.dest)
    print(json.dumps(info))
    return 1 if info["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
