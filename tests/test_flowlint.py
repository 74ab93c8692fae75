"""The flowlint analyzer: per-rule fixtures, pragmas, baseline, CLI.

Fixtures mirror the repo layout under a temp directory (scope
predicates match on *path suffixes*, so ``tmp/repro/core/x.py`` scans
exactly like ``src/repro/core/x.py``).  Each rule gets a positive
fixture (fires) and a near-miss (must stay silent); the meta-test at
the bottom runs the real analyzer over the committed tree and asserts
it is clean against the committed baseline.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.flowlint import engine as fl
from tools.flowlint.__main__ import main as flowlint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(tmp_path, files, rules=None):
    """Write ``{rel: source}`` under ``tmp_path`` and run the rules."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    project = fl.load_project(tmp_path)
    return fl.run_rules(project, rules=rules)


def codes(diags):
    return [d.rule for d in diags]


# ----------------------------------------------------------------------
# FL-DET — determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_reduceat_in_core_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/opt.py": """
            import numpy as np

            def f(a, idx):
                return np.add.reduceat(a, idx)
        """})
        assert "FL-DET001" in codes(diags)

    def test_reduceat_outside_core_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/sim/opt.py": """
            import numpy as np

            def f(a, idx):
                return np.add.reduceat(a, idx)
        """})
        assert "FL-DET001" not in codes(diags)

    def test_ufunc_at_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/opt.py": """
            import numpy as np

            def f(out, idx, vals):
                np.add.at(out, idx, vals)
        """})
        assert "FL-DET001" in codes(diags)

    def test_sum_over_set_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/opt.py": """
            def f(xs):
                return sum({x * 1.5 for x in xs})
        """})
        assert "FL-DET002" in codes(diags)

    def test_sum_over_list_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/opt.py": """
            def f(xs):
                return sum([x * 1.5 for x in xs])
        """})
        assert "FL-DET002" not in codes(diags)

    def test_bincount_outside_kernels_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/opt.py": """
            import numpy as np

            def f(idx, w):
                return np.bincount(idx, weights=w)
        """})
        assert "FL-DET003" in codes(diags)

    def test_bincount_inside_kernels_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/kernels.py": """
            import numpy as np

            def f(idx, w):
                return np.bincount(idx, weights=w)
        """})
        assert "FL-DET003" not in codes(diags)


# ----------------------------------------------------------------------
# FL-LIFE — lifecycle
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_resource_class_without_close_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            class Server:
                def __init__(self):
                    self._sock = socket.socket()
        """})
        assert "FL-LIFE001" in codes(diags)

    def test_private_class_with_shutdown_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            class _Worker:
                def __init__(self):
                    self._sock = socket.socket()

                def shutdown(self):
                    self._sock.close()
        """})
        assert "FL-LIFE001" not in codes(diags)

    def test_public_owner_without_ctx_manager_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            class Server:
                def __init__(self):
                    self._sock = socket.socket()

                def close(self):
                    self._sock.close()
        """})
        assert "FL-LIFE002" in codes(diags)

    def test_full_contract_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            class Server:
                def __init__(self):
                    self._sock = socket.socket()

                def close(self):
                    self._sock.close()

                def __enter__(self):
                    return self

                def __exit__(self, exc_type, exc, tb):
                    self.close()
                    return False
        """})
        assert not codes(diags)

    def test_exit_not_delegating_to_close_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            class Server:
                def __init__(self):
                    self._sock = socket.socket()

                def close(self):
                    self._sock.close()

                def __enter__(self):
                    return self

                def __exit__(self, exc_type, exc, tb):
                    self._sock = None
                    return False
        """})
        assert "FL-LIFE004" in codes(diags)

    def test_local_leak_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            def probe(addr):
                sock = socket.socket()
                return 1
        """})
        assert "FL-LIFE003" in codes(diags)

    def test_local_returned_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            def dial(addr):
                sock = socket.socket()
                return sock
        """})
        assert "FL-LIFE003" not in codes(diags)

    def test_local_closed_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import socket

            def probe(addr):
                sock = socket.socket()
                sock.close()
        """})
        assert "FL-LIFE003" not in codes(diags)


# ----------------------------------------------------------------------
# FL-WIRE — wire formats
# ----------------------------------------------------------------------

class TestWire:
    def test_pickle_under_service_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/codec.py": """
            import pickle
        """})
        assert "FL-WIRE001" in codes(diags)

    def test_pickle_under_parallel_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/parallel/other.py": """
            import pickle
        """})
        assert "FL-WIRE001" in codes(diags)

    def test_pickle_outside_repro_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"benchmarks/cache.py": """
            import pickle
        """})
        assert "FL-WIRE001" not in codes(diags)

    def test_pickle_under_core_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/core/cache.py": """
            import pickle
        """})
        assert "FL-WIRE001" in codes(diags)

    def test_from_pickle_import_in_net_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/net.py": """
            from pickle import dumps
        """})
        assert "FL-WIRE001" in codes(diags)

    def test_pack_arity_mismatch_in_net_fires(self, tmp_path):
        """``repro/net.py`` holds the service's framing, so it is in
        the wire scan group."""
        diags = lint(tmp_path, {"repro/net.py": """
            import struct

            FRAME_HEADER = struct.Struct("!II")

            def send(length):
                return FRAME_HEADER.pack(length)

            def recv(buf):
                length, tag = FRAME_HEADER.unpack(buf)
                return length, tag
        """})
        assert "FL-WIRE002" in codes(diags)

    def test_format_paired_between_net_and_service_is_silent(
            self, tmp_path):
        diags = lint(tmp_path, {
            "repro/net.py": """
                import struct

                FRAME_HEADER = struct.Struct("!II")

                def header(length, tag):
                    return FRAME_HEADER.pack(length, tag)
            """,
            "repro/service/wire.py": """
                from ..net import FRAME_HEADER

                def parse(buf):
                    length, tag = FRAME_HEADER.unpack_from(buf)
                    return length, tag
            """})
        assert "FL-WIRE004" not in codes(diags)

    def test_one_sided_format_outside_the_group_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/parallel/codec.py": """
            import struct

            _HDR = struct.Struct("!II")

            def encode(a, b):
                return _HDR.pack(a, b)
        """})
        assert "FL-WIRE004" not in codes(diags)

    def test_pack_arity_mismatch_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/codec.py": """
            import struct

            _HDR = struct.Struct("!II")

            def encode(a, b):
                return _HDR.pack(a)

            def decode(buf):
                a, b = _HDR.unpack(buf)
                return a, b
        """})
        assert "FL-WIRE002" in codes(diags)

    def test_unpack_target_mismatch_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/codec.py": """
            import struct

            _HDR = struct.Struct("!II")

            def encode(a, b):
                return _HDR.pack(a, b)

            def decode(buf):
                a, b, c = _HDR.unpack(buf)
                return a
        """})
        assert "FL-WIRE003" in codes(diags)

    def test_one_sided_format_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/codec.py": """
            import struct

            _HDR = struct.Struct("!II")

            def encode(a, b):
                return _HDR.pack(a, b)
        """})
        assert "FL-WIRE004" in codes(diags)

    def test_paired_format_across_modules_is_silent(self, tmp_path):
        diags = lint(tmp_path, {
            "repro/service/enc.py": """
                import struct

                _HDR = struct.Struct("!II")

                def encode(a, b):
                    return _HDR.pack(a, b)
            """,
            "repro/service/dec.py": """
                import struct

                _HDR = struct.Struct("!II")

                def decode(buf):
                    a, b = _HDR.unpack(buf)
                    return a, b
            """})
        assert "FL-WIRE004" not in codes(diags)

    def test_size_constant_mismatch_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/codec.py": """
            import struct

            _HDR = struct.Struct("!II")
            HDR_SIZE = 12

            def roundtrip(a, b):
                return _HDR.unpack(_HDR.pack(a, b))
        """})
        assert "FL-WIRE005" in codes(diags)


# ----------------------------------------------------------------------
# FL-LOCK — concurrency
# ----------------------------------------------------------------------

class TestLocks:
    def test_sendall_under_lock_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import threading

            class Client:
                def __init__(self, sock):
                    self._lock = threading.Lock()
                    self._sock = sock

                def send(self, data):
                    with self._lock:
                        self._sock.sendall(data)
        """})
        assert "FL-LOCK001" in codes(diags)

    def test_sendall_outside_lock_is_silent(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import threading

            class Client:
                def __init__(self, sock):
                    self._lock = threading.Lock()
                    self._sock = sock

                def send(self, data):
                    self._sock.sendall(data)
        """})
        assert "FL-LOCK001" not in codes(diags)

    def test_dual_context_write_fires(self, tmp_path):
        diags = lint(tmp_path, {"repro/service/x.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n += 1

                def reset(self):
                    self._n = 0
        """})
        assert "FL-LOCK003" in codes(diags)

    def test_locked_helper_context_propagates(self, tmp_path):
        """A helper called only from locked regions counts as locked."""
        diags = lint(tmp_path, {"repro/service/x.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def reset(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):
                    self._n += 1
        """})
        assert "FL-LOCK003" not in codes(diags)


# ----------------------------------------------------------------------
# FL-API — facade hygiene
# ----------------------------------------------------------------------

class TestApi:
    FACADE = {
        "repro/__init__.py": """
            from .core import Thing

            __all__ = ["Thing", "Ghost"]
        """,
        "repro/core.py": """
            class Thing:
                def __init__(self, n):
                    self.n = n

                def run(self, x):
                    return x
        """,
    }

    def test_all_name_without_definition_fires(self, tmp_path):
        diags = lint(tmp_path, self.FACADE)
        assert "FL-API001" in codes(diags)

    def test_unannotated_facade_symbol_fires(self, tmp_path):
        diags = lint(tmp_path, self.FACADE)
        assert "FL-API002" in codes(diags)

    def test_annotated_facade_is_silent(self, tmp_path):
        diags = lint(tmp_path, {
            "repro/__init__.py": """
                from .core import Thing

                __all__ = ["Thing"]
            """,
            "repro/core.py": """
                class Thing:
                    def __init__(self, n: int) -> None:
                        self.n = n

                    def run(self, x: float) -> float:
                        return x
            """})
        assert not codes(diags)


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------

class TestPragmas:
    SOURCE = """
        import numpy as np

        def f(a, idx):
            return np.add.reduceat(a, idx){pragma}
    """

    def test_rule_pragma_suppresses(self, tmp_path):
        src = self.SOURCE.format(
            pragma="  # flowlint: disable=FL-DET001 -- test fixture")
        diags = lint(tmp_path, {"repro/core/opt.py": src})
        assert "FL-DET001" not in codes(diags)

    def test_wildcard_pragma_suppresses(self, tmp_path):
        src = self.SOURCE.format(pragma="  # flowlint: disable=all")
        diags = lint(tmp_path, {"repro/core/opt.py": src})
        assert not codes(diags)

    def test_mismatched_pragma_does_not_suppress(self, tmp_path):
        src = self.SOURCE.format(pragma="  # flowlint: disable=FL-WIRE001")
        diags = lint(tmp_path, {"repro/core/opt.py": src})
        assert "FL-DET001" in codes(diags)

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        src = ("# flowlint: disable=FL-DET001\n"
               + textwrap.dedent(self.SOURCE.format(pragma="")))
        diags = lint(tmp_path, {"repro/core/opt.py": src})
        assert "FL-DET001" in codes(diags)


# ----------------------------------------------------------------------
# baseline ratcheting
# ----------------------------------------------------------------------

class TestBaseline:
    def diag(self, msg="m", line=3):
        return fl.Diagnostic("FL-DET001", "repro/core/opt.py", line, msg)

    def test_apply_partitions(self):
        base = fl.Baseline([{"rule": "FL-DET001",
                             "path": "repro/core/opt.py",
                             "message": "m", "justification": "why"}])
        new, suppressed, stale = base.apply([self.diag("m"),
                                             self.diag("other")])
        assert [d.message for d in suppressed] == ["m"]
        assert [d.message for d in new] == ["other"]
        assert stale == []

    def test_line_moves_do_not_invalidate(self):
        base = fl.Baseline([{"rule": "FL-DET001",
                             "path": "repro/core/opt.py",
                             "message": "m", "justification": "why"}])
        new, suppressed, _ = base.apply([self.diag("m", line=99)])
        assert not new and suppressed

    def test_fixed_finding_goes_stale(self):
        base = fl.Baseline([{"rule": "FL-DET001",
                             "path": "repro/core/opt.py",
                             "message": "m", "justification": "why"}])
        new, suppressed, stale = base.apply([])
        assert not new and not suppressed
        assert [e["message"] for e in stale] == ["m"]

    def test_update_preserves_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        fl.Baseline([{"rule": "FL-DET001", "path": "repro/core/opt.py",
                      "message": "m",
                      "justification": "carefully argued"}]).save(path)
        updated = fl.Baseline.from_diagnostics([self.diag("m")])
        existing = fl.Baseline.load(path)
        justified = {fl.Baseline._key(e): e["justification"]
                     for e in existing.entries}
        for entry in updated.entries:
            prior = justified.get(fl.Baseline._key(entry))
            if prior:
                entry["justification"] = prior
        assert updated.entries[0]["justification"] == "carefully argued"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    CLEAN = {"repro/core/ok.py": "X = 1\n"}
    DIRTY = {"repro/core/bad.py": """
        import numpy as np

        def f(a, idx):
            return np.add.reduceat(a, idx)
    """}

    def write(self, tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self.write(tmp_path, self.CLEAN)
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "none"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self.write(tmp_path, self.DIRTY)
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "none"])
        assert rc == 1
        assert "FL-DET001" in capsys.readouterr().out

    def test_baseline_suppresses_to_exit_zero(self, tmp_path, capsys):
        self.write(tmp_path, self.DIRTY)
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--update-baseline",
                            "--baseline", "base.json"])
        assert rc == 0
        data = json.loads((tmp_path / "base.json").read_text())
        assert data["entries"], "baseline not written"
        capsys.readouterr()
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "base.json"])
        assert rc == 0

    def test_strict_fails_on_stale_entries(self, tmp_path, capsys):
        self.write(tmp_path, self.CLEAN)
        fl.Baseline([{"rule": "FL-DET001", "path": "repro/core/gone.py",
                      "message": "m", "justification": "was real once"}
                     ]).save(tmp_path / "base.json")
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "base.json"])
        assert rc == 0
        capsys.readouterr()
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "base.json", "--strict"])
        assert rc == 1

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        self.write(tmp_path, self.DIRTY)
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "none", "--format", "github"])
        assert rc == 1
        assert "::error file=" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        self.write(tmp_path, self.DIRTY)
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "none", "--format", "json"])
        assert rc == 1
        data = json.loads(capsys.readouterr().out)
        assert data["new"] and data["new"][0]["rule"] == "FL-DET001"

    def test_step_summary_written(self, tmp_path, capsys, monkeypatch):
        self.write(tmp_path, self.DIRTY)
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "none", "--step-summary"])
        assert rc == 1
        assert "FL-DET001" in summary.read_text()

    def test_list_rules(self, capsys):
        assert flowlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("FL-DET", "FL-LIFE", "FL-WIRE", "FL-LOCK",
                       "FL-API"):
            assert family in out


# ----------------------------------------------------------------------
# meta: the committed tree itself
# ----------------------------------------------------------------------

class TestCommittedTree:
    def test_flowlint_clean_on_repo(self, capsys):
        """The committed tree passes its own analyzer (strict: stale
        baseline entries fail too, so the baseline only shrinks)."""
        rc = flowlint_main(["src", "tests", "tools",
                            "--root", str(REPO_ROOT), "--strict"])
        assert rc == 0, capsys.readouterr().out

    def test_baseline_entries_are_justified(self):
        data = json.loads(
            (REPO_ROOT / "tools/flowlint/baseline.json").read_text())
        assert data.get("version") == 1
        for entry in data["entries"]:
            assert entry.get("justification", "").strip(), entry
            assert "TODO" not in entry["justification"]

    def test_violation_is_caught_end_to_end(self, tmp_path, capsys):
        """Dropping a reduceat into a copy of the kernel module (and
        a pickle import into the service) must fail the lane."""
        core_dst = tmp_path / "repro/core"
        core_dst.mkdir(parents=True)
        kernels_src = (REPO_ROOT / "src/repro/core/kernels.py").read_text()
        (core_dst / "kernels.py").write_text(
            kernels_src
            + "\n\ndef evil(a, idx):\n"
              "    return np.add.reduceat(a, idx)\n")
        service_dst = tmp_path / "repro/service"
        service_dst.mkdir(parents=True)
        (service_dst / "evil.py").write_text("import pickle\n")
        rc = flowlint_main(["repro", "--root", str(tmp_path),
                            "--baseline", "none"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FL-DET001" in out and "FL-WIRE001" in out


@pytest.mark.skipif(shutil.which("mypy") is None,
                    reason="mypy not installed in this environment")
def test_mypy_ratchet_passes():
    ratchet = (REPO_ROOT / "tools/flowlint/mypy_ratchet.txt"
               ).read_text().split()
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *ratchet],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
