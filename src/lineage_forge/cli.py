"""Command-line interface: the two-command lifecycle plus helpers.

    lineage-forge configure --build-dir <dir>   # record local dirs, verify software pins
    lineage-forge make                          # inputs -> DAG -> verify -> macros

Exit codes are stable: 0 success, 1 generic error, 2 recipe failure,
3 verification failure, 4 input failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ExecutionError,
    InputError,
    LineageError,
    RecipeFailed,
    UsageError,
    VerificationError,
)
from .executor import DIGEST, TIMESTAMP
from .project import (
    clean,
    configure,
    export_project_graph,
    make_dist,
    run_make,
    run_record,
    run_verify,
)
from .verify import Filter

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_RECIPE = 2
EXIT_VERIFICATION = 3
EXIT_INPUT = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _use_color() -> bool:
    if os.environ.get("LINEAGE_FORGE_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _paint(tag: str, color: str) -> str:
    if not _use_color():
        return tag
    codes = {"green": "32", "red": "31", "yellow": "33", "dim": "2"}
    return f"\033[{codes[color]}m{tag}\033[0m"


class _Emitter:
    """Routes pipeline events to human lines or a JSON stream."""

    def __init__(self, as_json: bool):
        self.as_json = as_json

    def event(self, payload: dict) -> None:
        if self.as_json:
            print(json.dumps(payload, sort_keys=True))
            return
        kind = payload.get("event")
        if kind == "built":
            print(f"{_paint('[built]', 'green')} {payload['target']} ({payload['seconds']}s)")
        elif kind == "failed":
            print(f"{_paint('[failed]', 'red')} {payload['target']} "
                  f"(exit {payload['status']})")
        elif kind == "verify" and payload["status"] != "ok":
            print(f"{_paint('[' + payload['status'] + ']', 'red')} {payload['path']}")
        elif kind == "input":
            print(f"{_paint('[input]', 'dim')} {payload['name']} -> {payload['path']}")
        elif kind == "aggregate":
            print(f"{_paint('[macros]', 'green')} {payload['path']}")
        elif kind == "software" and payload["status"] != "ok":
            print(f"{_paint('[software]', 'yellow')} {payload['name']}: {payload['status']}")

    def line(self, text: str) -> None:
        if not self.as_json:
            print(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lineage-forge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"lineage-forge {__version__}")
    parser.add_argument("-C", "--chdir", metavar="DIR", default=".",
                        help="project root (default: current directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("configure", help="record local directories, set up the build tree")
    p.add_argument("--build-dir", help="where all built files go (prompted for if omitted)")
    p.add_argument("--input-dir", help="host directory searched for input files")
    p.add_argument("--software-dir", help="host directory with pinned software tarballs")
    p.add_argument("--group", help="POSIX group for shared build directories")
    p.add_argument("--jobs", type=int, default=1, help="default worker count for make")
    p.add_argument("--strict-software", action="store_true",
                   help="treat missing software tarballs as fatal")
    p.add_argument("--log-json", action="store_true", help="machine-readable event stream")

    p = sub.add_parser("make", help="run the analysis pipeline to the goal")
    p.add_argument("--jobs", type=int, help="parallel recipe workers")
    p.add_argument("--hash", action="store_true",
                   help="content-digest staleness instead of timestamps")
    p.add_argument("--offline", action="store_true", help="fail rather than touch the network")
    p.add_argument("--insecure", action="store_true",
                   help="skip TLS certificate verification for downloads (logged loudly)")
    p.add_argument("--serial-verify", action="store_true",
                   help="on verification failure after a parallel build, rebuild serially and re-verify")
    p.add_argument("--goal",
                   help="build this target instead of the project goal "
                        "(skips verification and macro aggregation)")
    p.add_argument("--log-json", action="store_true", help="machine-readable event stream")

    p = sub.add_parser("verify", help="check deliverables against the pinned manifest")
    p.add_argument("--record", action="store_true",
                   help="(re-)pin the manifest instead of checking it")
    p.add_argument("paths", nargs="*",
                   help="with --record: build-relative files to pin")
    p.add_argument("--filter", default="none",
                   help="filter for newly pinned files (none or strip-comments[:CHAR])")
    p.add_argument("--algorithm", default="sha256", choices=["md5", "sha256", "sha512"])
    p.add_argument("--log-json", action="store_true", help="machine-readable event stream")

    p = sub.add_parser("dist", help="deterministic source tarball")
    p.add_argument("--out", help="output path (default: <project>-<version>.tar.gz)")

    p = sub.add_parser("graph", help="export the lineage graph")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("--out", help="write here instead of stdout")

    sub.add_parser("clean", help="delete built targets, keep inputs")

    p = sub.add_parser("demo", help="write the bundled demo project")
    p.add_argument("dest", help="directory to create the demo project in")

    return parser


def _cmd_configure(root: Path, args) -> int:
    emitter = _Emitter(args.log_json)
    build_dir = args.build_dir
    if not build_dir:
        if not sys.stdin.isatty():
            print("configure: --build-dir is required in non-interactive runs",
                  file=sys.stderr)
            return EXIT_USAGE
        build_dir = input("Build directory (all built files go there): ").strip()
        if not build_dir:
            print("configure: no build directory given", file=sys.stderr)
            return EXIT_USAGE
    config = configure(
        root,
        build_dir,
        input_dir=args.input_dir,
        software_dir=args.software_dir,
        group=args.group,
        jobs=args.jobs,
        strict_software=args.strict_software,
        on_event=emitter.event,
    )
    emitter.line(f"configured: build directory {config.build_dir}")
    return EXIT_OK


def _cmd_make(root: Path, args) -> int:
    emitter = _Emitter(args.log_json)
    result = run_make(
        root,
        jobs=args.jobs,
        mode=DIGEST if args.hash else TIMESTAMP,
        offline=args.offline,
        serial_verify=args.serial_verify,
        goal=args.goal,
        insecure=args.insecure,
        on_event=emitter.event,
    )
    executed = len(result.report.executed)
    fresh = len(result.report.skipped_fresh)
    emitter.line(f"done: {result.goal} ({executed} built, {fresh} fresh)")
    return EXIT_OK


def _cmd_verify(root: Path, args) -> int:
    emitter = _Emitter(args.log_json)
    if args.record:
        filt = Filter.parse(args.filter) if args.paths else None
        entries = run_record(root, args.paths or None, filt, args.algorithm)
        for entry in entries:
            emitter.line(f"[pinned] {entry.path} {entry.algorithm}:{entry.expected}")
        return EXIT_OK
    report = run_verify(root, on_event=emitter.event)
    for result in report.results:
        if result.status == "ok":
            emitter.line(f"[ok] {result.path}")
    if not report.ok:
        return EXIT_VERIFICATION
    emitter.line(f"verification passed ({len(report.results)} entries)")
    return EXIT_OK


def _cmd_dist(root: Path, args) -> int:
    path = make_dist(root, args.out)
    print(f"{path} ({path.stat().st_size} bytes)")
    return EXIT_OK


def _cmd_graph(root: Path, args) -> int:
    text = export_project_graph(root, args.format)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_clean(root: Path, args) -> int:
    removed = clean(root)
    print(f"removed {len(removed)} built file(s)")
    return EXIT_OK


def _cmd_demo(root: Path, args) -> int:
    from .demo import create_demo_project

    dest = create_demo_project(args.dest)
    print(f"demo project written to {dest}")
    return EXIT_OK


_COMMANDS = {
    "configure": _cmd_configure,
    "make": _cmd_make,
    "verify": _cmd_verify,
    "dist": _cmd_dist,
    "graph": _cmd_graph,
    "clean": _cmd_clean,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    root = Path(args.chdir)
    try:
        return _COMMANDS[args.command](root, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ExecutionError as exc:
        print(f"recipe error: {exc}", file=sys.stderr)
        if isinstance(exc, RecipeFailed) and exc.output_tail:
            print(exc.output_tail, file=sys.stderr)
        return EXIT_RECIPE
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except LineageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERIC
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
