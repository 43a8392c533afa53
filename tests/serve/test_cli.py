"""The `repro serve` command: parser surface, env plumbing, clean boot.

The parser/env tests stay in-process: the environment error fires
before a socket opens, and ``create_server`` is patched to raise, so a
missed error fails the test instead of serving forever.  The boot test
runs the real ``python -m repro serve`` in
a subprocess because ``_cmd_serve`` installs a SIGTERM handler —
signal machinery only works on a process's main thread.
"""

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "--dataset", "orlando"])
        assert args.command == "serve"
        assert args.dataset == ["orlando"]
        assert args.scale == 0.1
        assert args.host == "127.0.0.1"
        assert args.port is None  # resolved from $REPRO_SERVE_PORT later
        assert args.max_stops == 20
        assert args.max_queued == 16
        assert args.deadline == 30.0
        assert args.trace_dir is None
        assert args.no_warm is False

    def test_datasets_are_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--dataset", "orlando", "--dataset", "chicago"]
        )
        assert args.dataset == ["orlando", "chicago"]

    def test_dataset_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_unknown_city_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dataset", "atlantis"])


class TestEnvPlumbing:
    @pytest.fixture(autouse=True)
    def _refuse_to_serve(self, monkeypatch):
        def create_server(*args, **kwargs):
            raise AssertionError("serve reached create_server")

        monkeypatch.setattr("repro.serve.create_server", create_server)

    def test_malformed_port_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SERVE_PORT", "80.5")
        code = main(["serve", "--dataset", "orlando", "--scale", "0.05"])
        assert code == 2
        err = capsys.readouterr().err
        assert "REPRO_SERVE_PORT" in err
        assert "Traceback" not in err

    def test_port_flag_short_circuits_its_env_read(self, monkeypatch, capsys):
        # With --port pinned, a broken $REPRO_SERVE_PORT is never read;
        # resolution then proceeds to the warm env var, whose broken
        # value is what actually fails — proving the flag won.
        monkeypatch.setenv("REPRO_SERVE_PORT", "nonsense")
        monkeypatch.setenv("REPRO_SERVE_WARM", "broken-too")
        code = main(
            ["serve", "--dataset", "orlando", "--scale", "0.05",
             "--port", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "REPRO_SERVE_WARM" in err
        assert "REPRO_SERVE_PORT" not in err


class TestCliBoot:
    def test_serve_boots_answers_and_shuts_down_cleanly(self, tmp_path):
        """python -m repro serve on an ephemeral port: readiness banner,
        live health probe, SIGTERM, exit code 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env.pop("REPRO_SERVE_PORT", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--dataset", "orlando", "--scale", "0.05",
             "--port", "0", "--no-warm"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 180
            banner = []
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                banner.append(line)
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, f"no readiness banner; got: {''.join(banner)!r}"

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as resp:
                assert resp.status == 200

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "shutdown complete" in out
            assert "Traceback" not in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
