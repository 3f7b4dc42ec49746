from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineage_forge import state
from lineage_forge.parser import VERIFY_MANIFEST
from lineage_forge.project import LocalConfig, run_record
from lineage_forge.errors import FileMissing
from lineage_forge.verify import (
    Filter,
    VerificationEntry,
    filtered_digest,
    parse_manifest,
    serialize_manifest,
    verify_all,
)
from oracles import whole_file_filtered_digest

# Frozen via an independent pipeline:
#   printf 'a\n#b\nc\n' | grep -v '^#' | sha256sum
STRIPPED_ABC_SHA256 = "b72cf6d7918130f75347ff0f8b6e9fde004ee6d7fc26af90a349707207f72750"

STRIP = Filter("strip-comments", "#")
NONE = Filter()


class TestFilteredDigest:
    def test_comment_only_difference_hashes_identically(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"# created 2021-01-04\n1 2 3\n")
        b.write_bytes(b"# created 1999-12-31\n1 2 3\n")
        assert filtered_digest(a, STRIP, "sha256") == filtered_digest(b, STRIP, "sha256")

    def test_raw_digests_differ_for_same_pair(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"# created 2021-01-04\n1 2 3\n")
        b.write_bytes(b"# created 1999-12-31\n1 2 3\n")
        assert filtered_digest(a, NONE, "sha256") != filtered_digest(b, NONE, "sha256")

    def test_strip_comments_matches_independent_filter(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\n#b\nc\n")
        assert filtered_digest(path, STRIP, "sha256") == STRIPPED_ABC_SHA256
        # and the raw digest of the already-filtered content agrees
        assert hashlib.sha256(b"a\nc\n").hexdigest() == STRIPPED_ABC_SHA256

    def test_prefix_must_be_first_byte_no_whitespace_skipping(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b" # indented comment stays\ndata\n")
        assert filtered_digest(path, STRIP, "sha256") == hashlib.sha256(
            b" # indented comment stays\ndata\n"
        ).hexdigest()

    def test_custom_prefix_char(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"% note\nvalue\n")
        filt = Filter("strip-comments", "%")
        assert filtered_digest(path, filt, "sha256") == hashlib.sha256(
            b"value\n"
        ).hexdigest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileMissing):
            filtered_digest(tmp_path / "absent", NONE, "sha256")

    @given(
        st.lists(
            st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                    min_size=1, max_size=10).filter(lambda s: not s.startswith("#")),
            max_size=8,
        ),
        st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                           st.text(alphabet="abc 0123", max_size=8)),
                 max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_comment_injection(self, data_lines, injections):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            base = "".join(line + "\n" for line in data_lines)
            plain = tmp_path / "plain.txt"
            plain.write_text(base, encoding="utf-8")

            lines = [line + "\n" for line in data_lines]
            for pos, text in sorted(injections, reverse=True):
                lines.insert(min(pos, len(lines)), f"#{text}\n")
            salted = tmp_path / "salted.txt"
            salted.write_text("".join(lines), encoding="utf-8")

            assert filtered_digest(plain, STRIP, "sha256") == filtered_digest(
                salted, STRIP, "sha256"
            )


class TestStreamingDigest:
    """The chunked filter must hash exactly what the whole-file oracle does,
    at every chunk size, and in memory bounded by the chunk size."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, state.CHUNK_SIZE])
    @given(data=st.lists(st.sampled_from([b"\r", b"\n", b"#", b"%", b"a", b"\xe9", b"\xff"]),
                         max_size=60).map(b"".join))
    @example(data=b"#x\r\nkeep\r\n#" + b"y" * 20 + b"\r\nz")  # CRLF and lines past a chunk
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_file_oracle(self, chunk_size, data):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(state, "CHUNK_SIZE", chunk_size):
            path = Path(tmp) / "f.txt"
            path.write_bytes(data)
            for filt in (STRIP, NONE, Filter("strip-comments", "%")):
                prefix = None if filt == NONE else filt.prefix.encode("ascii")
                assert filtered_digest(path, filt, "sha256") == whole_file_filtered_digest(
                    data, prefix, "sha256")

    @pytest.mark.parametrize("line", [b"# stamp\n0123456789 abcdef\n", b"x"],
                             ids=["short-lines", "one-line-without-end"])
    def test_memory_stays_flat(self, tmp_path, line):
        path = tmp_path / "big.txt"
        path.write_bytes(line * ((4 << 20) // len(line) + 1))
        tracemalloc.start()
        try:
            filtered_digest(path, STRIP, "sha256")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def entry_for(build_dir: Path, rel: str, filt: Filter = NONE,
              algorithm: str = "sha256") -> VerificationEntry:
    digest = filtered_digest(build_dir / rel, filt, algorithm)
    return VerificationEntry(rel, algorithm, digest, filt)


class TestVerifyAll:
    def fresh_build(self, tmp_path: Path) -> Path:
        build = tmp_path / "bd"
        (build / "demo").mkdir(parents=True)
        (build / "demo" / "table.txt").write_bytes(b"# stamp\n1 2\n3 4\n")
        (build / "demo" / "counts.txt").write_bytes(b"1996 47\n")
        (build / "macros.tex").write_bytes(b"\\newcommand{\\n}{1}\n")
        return build

    def test_all_fresh_outputs_ok(self, tmp_path):
        build = self.fresh_build(tmp_path)
        entries = [
            entry_for(build, "demo/table.txt", STRIP),
            entry_for(build, "demo/counts.txt"),
            entry_for(build, "macros.tex"),
        ]
        report = verify_all(entries, build)
        assert report.ok
        assert [r.status for r in report.results] == ["ok", "ok", "ok"]

    def test_one_flipped_byte_fails_exactly_that_entry(self, tmp_path):
        build = self.fresh_build(tmp_path)
        entries = [
            entry_for(build, "demo/table.txt", STRIP),
            entry_for(build, "demo/counts.txt"),
            entry_for(build, "macros.tex"),
        ]
        raw = bytearray((build / "demo" / "counts.txt").read_bytes())
        raw[0] ^= 0x01
        (build / "demo" / "counts.txt").write_bytes(bytes(raw))
        report = verify_all(entries, build)
        assert not report.ok
        assert [r.path for r in report.failing()] == ["demo/counts.txt"]
        assert report.failing()[0].status == "mismatch"
        assert report.failing()[0].actual is not None

    def test_never_built_file_reported_missing(self, tmp_path):
        build = self.fresh_build(tmp_path)
        entries = [
            entry_for(build, "demo/counts.txt"),
            VerificationEntry("demo/never-built.txt", "sha256", "0" * 64, NONE),
        ]
        report = verify_all(entries, build)
        assert [r.status for r in report.results] == ["ok", "missing"]

    def test_directory_at_pinned_path_reported_missing(self, tmp_path):
        build = self.fresh_build(tmp_path)
        (build / "demo" / "dir.txt").mkdir()
        entries = [VerificationEntry("demo/dir.txt", "sha256", "0" * 64, NONE)]
        assert [r.status for r in verify_all(entries, build).results] == ["missing"]

    def test_fifo_at_pinned_path_reported_missing_without_blocking(self, tmp_path):
        build = self.fresh_build(tmp_path)
        os.mkfifo(build / "demo" / "fifo.txt")
        entries = [
            VerificationEntry("demo/fifo.txt", "sha256", "0" * 64, STRIP),
            entry_for(build, "demo/counts.txt"),
        ]

        def blocked(signum, frame):
            raise TimeoutError("verify_all opened the FIFO")

        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(10)  # opening a FIFO for reading waits for a writer
        try:
            report = verify_all(entries, build)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [r.status for r in report.results] == ["missing", "ok"]

    def test_no_short_circuit_all_failures_listed(self, tmp_path):
        build = self.fresh_build(tmp_path)
        entries = [
            VerificationEntry("demo/table.txt", "sha256", "0" * 64, NONE),
            VerificationEntry("demo/counts.txt", "sha256", "1".ljust(64, "1"), NONE),
            entry_for(build, "macros.tex"),
        ]
        report = verify_all(entries, build)
        assert len(report.failing()) == 2

    def test_result_independent_of_entry_order(self, tmp_path):
        build = self.fresh_build(tmp_path)
        entries = [
            entry_for(build, "demo/table.txt", STRIP),
            entry_for(build, "demo/counts.txt"),
            entry_for(build, "macros.tex"),
        ]
        forward = verify_all(entries, build)
        backward = verify_all(list(reversed(entries)), build)
        assert sorted((r.path, r.status) for r in forward.results) == sorted(
            (r.path, r.status) for r in backward.results
        )


def record(paths: list[str], filt: Filter, algorithm: str, build: Path) -> str:
    """Pin `paths` with `verify --record`'s routine, `run_record`, in a
    project whose build directory is `build`, and return the manifest it
    wrote. The project lives in `build` too, which nothing here lists."""
    root = build / "project"
    root.mkdir(exist_ok=True)
    LocalConfig(build_dir=str(build)).save(root)
    run_record(root, paths, filt, algorithm)
    return (root / VERIFY_MANIFEST).read_text(encoding="utf-8")


class TestRecordManifest:
    def test_record_then_verify_unchanged_passes(self, tmp_path):
        build = tmp_path / "bd"
        build.mkdir()
        (build / "out.txt").write_bytes(b"# header\nstable\n")
        text = record(["out.txt"], STRIP, "sha256", build)
        report = verify_all(parse_manifest(text), build)
        assert report.ok

    def test_comment_edit_passes_under_strip_filter(self, tmp_path):
        build = tmp_path / "bd"
        build.mkdir()
        (build / "out.txt").write_bytes(b"# made at noon\ndata row\n")
        text = record(["out.txt"], STRIP, "sha256", build)
        (build / "out.txt").write_bytes(b"# made at midnight\ndata row\n")
        assert verify_all(parse_manifest(text), build).ok

    def test_data_edit_fails(self, tmp_path):
        build = tmp_path / "bd"
        build.mkdir()
        (build / "out.txt").write_bytes(b"# header\ndata row\n")
        text = record(["out.txt"], STRIP, "sha256", build)
        (build / "out.txt").write_bytes(b"# header\nedited row\n")
        report = verify_all(parse_manifest(text), build)
        assert [r.status for r in report.results] == ["mismatch"]

    def test_manifest_sorted_by_path(self, tmp_path):
        build = tmp_path / "bd"
        build.mkdir()
        for name in ("zz.txt", "aa.txt"):
            (build / name).write_bytes(b"x\n")
        text = record(["zz.txt", "aa.txt"], NONE, "sha256", build)
        paths = [line.split("\t")[0] for line in text.splitlines()]
        assert paths == ["aa.txt", "zz.txt"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileMissing):
            record(["ghost.txt"], NONE, "sha256", tmp_path)


class TestManifestFormat:
    def test_round_trip(self, tmp_path):
        entries = [
            VerificationEntry("a.txt", "sha256", "a" * 64, STRIP),
            VerificationEntry("b.txt", "md5", "b" * 32, NONE),
            VerificationEntry("c.txt", "sha512", "c" * 128, Filter("strip-comments", "%")),
        ]
        reparsed = parse_manifest(serialize_manifest(entries))
        assert reparsed == sorted(entries, key=lambda e: e.path)

    def test_filter_spec_parsing(self):
        assert Filter.parse("none") == NONE
        assert Filter.parse("strip-comments") == STRIP
        assert Filter.parse("strip-comments:%") == Filter("strip-comments", "%")
        with pytest.raises(ValueError):
            Filter.parse("gzip")

    def test_bad_digest_length_rejected(self):
        with pytest.raises(ValueError):
            VerificationEntry("a.txt", "sha256", "abc", NONE)

    @pytest.mark.parametrize("prefix", ["\t", "\n", "\x0b", " ", "\x7f", "\xe9", "", "##"])
    def test_unwritable_prefix_rejected(self, prefix):
        with pytest.raises(ValueError):
            Filter("strip-comments", prefix)
        with pytest.raises(ValueError):
            Filter.parse("strip-comments:" + prefix)

    @pytest.mark.parametrize("prefix", [chr(c) for c in range(0x21, 0x7F)])
    def test_every_allowed_prefix_survives_record_and_parse(self, tmp_path, prefix):
        (tmp_path / "out.txt").write_bytes(prefix.encode("ascii") + b" stamp\n data\n")
        filt = Filter("strip-comments", prefix)
        text = record(["out.txt"], filt, "sha256", tmp_path)
        [entry] = parse_manifest(text)
        assert entry.filter == filt
        assert entry.expected == hashlib.sha256(b" data\n").hexdigest()
        assert verify_all([entry], tmp_path).ok
