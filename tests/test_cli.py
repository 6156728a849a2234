"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import build_parser, main

_SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_natural_defaults(self):
        args = build_parser().parse_args(["natural", "--oscillator", "tanh"])
        assert args.oscillator == "tanh"

    def test_locks_options(self):
        args = build_parser().parse_args(
            ["locks", "--oscillator", "tanh", "--vi", "0.05", "--n", "5"]
        )
        assert args.n == 5
        assert args.vi == "0.05"


class TestCommands:
    def test_natural_tanh(self, capsys):
        assert main(["natural", "--oscillator", "tanh"]) == 0
        out = capsys.readouterr().out
        assert "1.208" in out
        assert "stable" in out

    def test_natural_custom(self, capsys):
        code = main(
            ["natural", "--gm", "2.5m", "--isat", "1m",
             "--r", "1k", "--l", "100u", "--c", "10n"]
        )
        assert code == 0
        assert "159.2 kHz" in capsys.readouterr().out

    def test_custom_requires_full_tank(self):
        with pytest.raises(SystemExit):
            main(["natural", "--gm", "2.5m", "--isat", "1m", "--r", "1k"])

    def test_locks_inside_range(self, capsys):
        code = main(["locks", "--oscillator", "tanh", "--vi", "0.03", "--n", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert "multiple of n = 3" in out

    def test_locks_outside_range_exit_code(self, capsys):
        code = main(
            ["locks", "--oscillator", "tanh", "--vi", "0.03", "--n", "3",
             "--finj", "490k"]
        )
        assert code == 1
        assert "outside the lock range" in capsys.readouterr().out

    def test_lockrange_tanh(self, capsys):
        assert main(["lockrange", "--oscillator", "tanh"]) == 0
        out = capsys.readouterr().out
        assert "lock range width" in out
        assert "boundary tank phase" in out

    def test_experiment_dispatch(self, capsys):
        assert main(["experiment", "FIG6"]) == 0
        assert "RLC tank transfer function" in capsys.readouterr().out

    def test_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiment", "FIG99"])


class TestMethodAndProfile:
    def test_lockrange_method_dense(self, capsys):
        assert main(["lockrange", "--oscillator", "tanh", "--method", "dense"]) == 0
        assert "lock range width" in capsys.readouterr().out

    def test_locks_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["locks", "--oscillator", "tanh", "--method", "magic"]
            )

    def test_profile_writes_bench_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "lockrange", "--oscillator", "tanh"]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "BENCH_LOCKRANGE.json"
        assert path.exists()
        assert "profile written to" in out
        record = json.loads(path.read_text())
        assert record["bench"] == "LOCKRANGE"
        assert record["exit_code"] == 0
        assert record["argv"] == ["--profile", "lockrange", "--oscillator", "tanh"]
        assert "characterize" in record["phases"]
        assert {"hits", "misses"} <= set(record["cache"])

    def test_profile_records_import_time(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "repro", "--profile", "lockrange"]
        started = time.perf_counter()
        proc = subprocess.run(
            argv + ["--oscillator", "tanh"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        wall_s = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        record = json.loads((tmp_path / "BENCH_LOCKRANGE.json").read_text())
        assert 0.0 < record["import_s"] < wall_s


class TestCacheStats:
    def test_stats_report_legacy_records_separately(
        self, capsys, tmp_path, monkeypatch
    ):
        """Pre-fingerprint records show as 'legacy', not as missing coverage."""
        import numpy as np

        from repro.perf.surface_cache import SurfaceCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = SurfaceCache(tmp_path)
        cache.put("ab" * 32, {"coefficients": np.arange(4.0)})
        # Strip the fingerprint from a second record: a legacy store from
        # before output fingerprints existed.
        legacy_key = "cd" * 32
        cache.put(legacy_key, {"coefficients": np.arange(3.0)})
        path = cache.path_for(legacy_key)
        with np.load(path, allow_pickle=False) as record:
            meta = json.loads(str(record["__meta__"]))
            arrays = {
                name: record[name] for name in record.files if name != "__meta__"
            }
        meta.pop("fingerprint")
        np.savez(path, __meta__=np.asarray(json.dumps(meta)), **arrays)

        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "records with output fingerprint: 1/1" in out
        assert "legacy pre-fingerprint 1" in out
