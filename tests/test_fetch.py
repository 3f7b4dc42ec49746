from __future__ import annotations

import hashlib
import os

import pytest

from lineage_forge.errors import ChecksumMismatch, DownloadFailed, NotFound, OfflineAndMissing
from lineage_forge.fetch import (
    InputResolver,
    Mismatch,
    TerminalNetworkError,
    TransientNetworkError,
    download,
    verify_checksum,
)
from lineage_forge.parser import InputSpec

# Frozen with an independent utility: `printf '' | sha256sum` and
# `printf 'hello\n' | md5sum`.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
MD5_HELLO = "b1946ac92492d2347c6235b4d2611184"


class StubTransport:
    """Scripted in-process server: a list of bytes payloads or failure marks."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def fetch(self, url: str, sink) -> None:
        self.calls += 1
        action = self.script.pop(0)
        if action == "conn-error":
            raise TransientNetworkError("connection reset")
        if action == "http-500":
            raise TransientNetworkError("HTTP 500")
        if action == "http-404":
            raise TerminalNetworkError(404)
        if isinstance(action, tuple) and action[0] == "partial":
            sink.write(action[1])
            raise TransientNetworkError("connection dropped mid-body")
        sink.write(action)


def spec_for(data: bytes, name="DEMO", filename="demo.csv",
             url="https://example.org/demo.csv") -> InputSpec:
    return InputSpec(
        name=name,
        filename=filename,
        algorithm="sha256",
        digest=hashlib.sha256(data).hexdigest(),
        url=url,
    )


class TestVerifyChecksum:
    def test_empty_file_sha256(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert verify_checksum(path, "sha256", SHA256_EMPTY) is None

    def test_hello_md5(self, tmp_path):
        path = tmp_path / "hello"
        path.write_bytes(b"hello\n")
        assert verify_checksum(path, "md5", MD5_HELLO) is None

    def test_uppercase_expected_hex_ok(self, tmp_path):
        path = tmp_path / "hello"
        path.write_bytes(b"hello\n")
        assert verify_checksum(path, "md5", MD5_HELLO.upper()) is None

    def test_mismatch_reports_actual(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"content\n")
        result = verify_checksum(path, "sha256", SHA256_EMPTY)
        assert isinstance(result, Mismatch)
        assert result.actual_hex == hashlib.sha256(b"content\n").hexdigest()


class TestDownload:
    def test_fails_twice_then_serves(self, tmp_path):
        transport = StubTransport(["conn-error", "http-500", b"payload"])
        slept: list[float] = []
        download("https://example.org/f", tmp_path / "f", transport,
                 retries=3, backoff_seconds=(1, 5, 30), sleep=slept.append)
        assert transport.calls == 3
        assert (tmp_path / "f").read_bytes() == b"payload"
        assert slept == [1, 5]

    def test_404_terminal_after_one_attempt(self, tmp_path):
        transport = StubTransport(["http-404"])
        with pytest.raises(NotFound):
            download("https://example.org/f", tmp_path / "f", transport,
                     retries=3, backoff_seconds=(0,), sleep=lambda _: None)
        assert transport.calls == 1

    def test_retries_exhausted(self, tmp_path):
        transport = StubTransport(["conn-error"] * 4)
        with pytest.raises(DownloadFailed) as exc:
            download("https://example.org/f", tmp_path / "f", transport,
                     retries=3, backoff_seconds=(0,), sleep=lambda _: None)
        assert exc.value.attempts == 4

    def test_interrupted_transfer_leaves_no_partial_file(self, tmp_path):
        transport = StubTransport([("partial", b"half of the"), b"full payload"])
        download("https://example.org/f", tmp_path / "f", transport,
                 retries=1, backoff_seconds=(0,), sleep=lambda _: None)
        assert (tmp_path / "f").read_bytes() == b"full payload"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "f"]
        assert leftovers == []

    def test_total_failure_cleans_temp_files(self, tmp_path):
        transport = StubTransport([("partial", b"junk")])
        with pytest.raises(DownloadFailed):
            download("https://example.org/f", tmp_path / "f", transport,
                     retries=0, backoff_seconds=(0,), sleep=lambda _: None)
        assert list(tmp_path.iterdir()) == []


class TestUrllibTransport:
    @pytest.fixture
    def http_server(self, tmp_path):
        import http.server
        import threading

        (tmp_path / "served.bin").write_bytes(b"served payload\n")
        handler = lambda *a, **kw: http.server.SimpleHTTPRequestHandler(
            *a, directory=str(tmp_path), **kw
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()

    def test_real_get_over_loopback(self, http_server, tmp_path):
        from lineage_forge.fetch import UrllibTransport

        transport = UrllibTransport()
        download(f"{http_server}/served.bin", tmp_path / "got.bin", transport,
                 retries=0, backoff_seconds=(0,), sleep=lambda _: None)
        assert (tmp_path / "got.bin").read_bytes() == b"served payload\n"

    def test_real_404_is_terminal(self, http_server, tmp_path):
        from lineage_forge.fetch import UrllibTransport

        transport = UrllibTransport()
        with pytest.raises(NotFound):
            download(f"{http_server}/absent.bin", tmp_path / "got.bin", transport,
                     retries=2, backoff_seconds=(0,), sleep=lambda _: None)


class TestResolveInput:
    def test_local_input_dir_hit_makes_no_network_call(self, tmp_path):
        data = b"1996,47\n"
        input_dir = tmp_path / "hostdata"
        input_dir.mkdir()
        (input_dir / "demo.csv").write_bytes(data)
        transport = StubTransport([])
        resolver = InputResolver(tmp_path / "bd", input_dir, transport=transport)
        resolved = resolver.resolve(spec_for(data))
        assert resolved == tmp_path / "bd" / "inputs" / "demo.csv"
        assert resolved.read_bytes() == data
        assert transport.calls == 0

    def test_already_imported_copy_short_circuits(self, tmp_path):
        data = b"rows\n"
        dest = tmp_path / "bd" / "inputs" / "demo.csv"
        dest.parent.mkdir(parents=True)
        dest.write_bytes(data)
        resolver = InputResolver(tmp_path / "bd", None, transport=StubTransport([]))
        assert resolver.resolve(spec_for(data)) == dest

    def test_download_happy_path(self, tmp_path):
        data = b"downloaded rows\n"
        transport = StubTransport([data])
        resolver = InputResolver(tmp_path / "bd", None, transport=transport)
        resolved = resolver.resolve(spec_for(data))
        assert resolved.read_bytes() == data
        assert transport.calls == 1

    def test_corrupted_local_copy_offline_aborts(self, tmp_path):
        data = b"pristine bytes\n"
        spec = spec_for(data)
        input_dir = tmp_path / "hostdata"
        input_dir.mkdir()
        corrupted = bytearray(data)
        corrupted[0] ^= 0xFF  # one flipped byte
        (input_dir / spec.filename).write_bytes(bytes(corrupted))
        resolver = InputResolver(tmp_path / "bd", input_dir, offline=True)
        with pytest.raises(ChecksumMismatch):
            resolver.resolve(spec)
        assert not (tmp_path / "bd" / "inputs" / spec.filename).exists()

    def test_copy_is_verified_not_its_source(self, tmp_path, monkeypatch):
        data = b"pristine bytes\n"
        spec = spec_for(data)
        input_dir = tmp_path / "hostdata"
        input_dir.mkdir()
        (input_dir / spec.filename).write_bytes(data)

        def altered_copy(src, dst):
            with open(dst, "wb") as out:
                out.write(b"altered in the copy\n")

        monkeypatch.setattr("lineage_forge.fetch.shutil.copyfile", altered_copy)
        resolver = InputResolver(tmp_path / "bd", input_dir, offline=True)
        with pytest.raises(ChecksumMismatch) as exc:
            resolver.resolve(spec)
        assert exc.value.path == str(input_dir / spec.filename)
        assert exc.value.stage == "input directory"
        assert list((tmp_path / "bd" / "inputs").iterdir()) == []

    def test_corrupted_imported_copy_aborts(self, tmp_path):
        data = b"pristine\n"
        spec = spec_for(data)
        dest = tmp_path / "bd" / "inputs" / spec.filename
        dest.parent.mkdir(parents=True)
        dest.write_bytes(b"tampered\n")
        resolver = InputResolver(tmp_path / "bd", None, offline=True)
        with pytest.raises(ChecksumMismatch):
            resolver.resolve(spec)

    def test_offline_and_missing(self, tmp_path):
        resolver = InputResolver(tmp_path / "bd", None, offline=True)
        with pytest.raises(OfflineAndMissing):
            resolver.resolve(spec_for(b"whatever"))

    def test_offline_makes_zero_transport_calls(self, tmp_path):
        data = b"present locally\n"
        input_dir = tmp_path / "hostdata"
        input_dir.mkdir()
        (input_dir / "demo.csv").write_bytes(data)
        transport = StubTransport([b"should never be used"])
        resolver = InputResolver(tmp_path / "bd", input_dir, transport=transport,
                                 offline=True)
        resolver.resolve(spec_for(data))
        assert transport.calls == 0

    def test_wrong_download_content_rejected_and_removed(self, tmp_path):
        good = b"expected\n"
        transport = StubTransport([b"not what was pinned\n"])
        resolver = InputResolver(tmp_path / "bd", None, transport=transport)
        with pytest.raises(ChecksumMismatch):
            resolver.resolve(spec_for(good))
        # neither the final path nor any temp leftover exists
        assert list((tmp_path / "bd" / "inputs").iterdir()) == []

    def test_imported_inputs_get_the_umask_mode(self, tmp_path):
        # Readable by a build group (`configure --group`) as a plain new file is.
        data = b"rows\n"
        input_dir = tmp_path / "hostdata"
        input_dir.mkdir()
        (input_dir / "copied.csv").write_bytes(data)
        resolver = InputResolver(tmp_path / "bd", input_dir, transport=StubTransport([data]))
        old_umask = os.umask(0o022)
        try:
            copied = resolver.resolve(spec_for(data, name="C", filename="copied.csv"))
            downloaded = resolver.resolve(spec_for(data, name="D", filename="downloaded.csv"))
            plain = tmp_path / "plain"
            plain.write_bytes(b"")
        finally:
            os.umask(old_umask)
        assert copied.stat().st_mode == plain.stat().st_mode
        assert downloaded.stat().st_mode == plain.stat().st_mode

    def test_resolve_all_multiple_inputs(self, tmp_path):
        a, b = b"alpha\n", b"beta\n"
        input_dir = tmp_path / "hostdata"
        input_dir.mkdir()
        (input_dir / "a.csv").write_bytes(a)
        (input_dir / "b.csv").write_bytes(b)
        resolver = InputResolver(tmp_path / "bd", input_dir, offline=True)
        resolved = resolver.resolve_all([
            spec_for(a, name="A", filename="a.csv"),
            spec_for(b, name="B", filename="b.csv"),
        ])
        assert resolved["A"].read_bytes() == a
        assert resolved["B"].read_bytes() == b
