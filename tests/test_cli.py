import csv
import io
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qftmpo
from qftmpo.circuits import compile_to_mpo, compile_trace, nearest_neighbor_qft_circuit
from qftmpo.cli import COMMANDS, main
from qftmpo.mpo import identity_mpo, save_mpo
from qftmpo.oracle import periodic_peak_probabilities
from qftmpo.tensor import TruncationPolicy
from test_sweep import peak_probability


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(qftmpo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "qftmpo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def parse_csv(text):
    body = [line for line in text.strip().split("\n") if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum"])
        assert info.value.code == 1

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--n-list", "eight"])
        assert info.value.code == 1

    def test_semantic_usage_error_returns_one(self, capsys):
        code, _, err = run(capsys, "ordering-scan", "--n", "12")
        assert code == 1
        assert "error" in err


    @pytest.mark.parametrize("argv", [["--bogus"], ["--config", "x.cfg", "spectrum"],
                                      ["--", "spectrum", "--n-list", "6"]])
    def test_command_not_first(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


def assert_lists_commands(text):
    words = " ".join(text.split())  # argparse wraps long help lines
    for name, (help_line, _, _) in COMMANDS.items():
        assert f" {name} {help_line}" in words, name


class TestDispatch:
    def test_commands(self):
        assert list(COMMANDS) == [
            "build", "apply", "spectrum", "converge-spectrum", "converge-tensor", "hs-error",
            "periodic", "aqft-scan", "rotation-scan", "ordering-scan", "bench-scaling"]

    def test_top_level_help_in_process(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert_lists_commands(capsys.readouterr().out)

    def test_top_level_help_subprocess(self):
        proc = run_cli_process("--help")
        assert proc.returncode == 0
        assert_lists_commands(proc.stdout)

    def test_subcommand_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["apply", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: qftmpo apply ")
        for flag in ("--mpo", "--bits", "--save-state", "--config", "--cutoff"):
            assert flag in out

    def test_subcommand_usage_error_names_it(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["apply", "--bits", "0000"])
        assert info.value.code == 1
        assert "qftmpo apply: error: the following arguments are required: --mpo" in (
            capsys.readouterr().err)


class TestNumericalFailures:
    def test_aqft_trend_violation_returns_two(self, capsys):
        code, _, err = run(capsys, "aqft-scan", "--n-list", "8",
                           "--bandwidth-list", "1,2")
        assert code == 2
        assert "numerical failure" in err

    def test_no_check_escapes(self, capsys):
        code, out, _ = run(capsys, "aqft-scan", "--n-list", "8",
                           "--bandwidth-list", "1,2", "--no-check")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["max_bond_rank"] == "1"


class TestStudies:
    def test_spectrum_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n-list", "6,8")
        assert code == 0
        assert out.startswith("# study: spectrum")
        rows = parse_csv(out)
        total = sum(float(r["probability"]) for r in rows if r["n"] == "6")
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_spectrum_json_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n-list", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["study"] == "spectrum"

    def test_out_file_both_formats(self, capsys, tmp_path):
        base = tmp_path / "report"
        code, _, err = run(capsys, "spectrum", "--n-list", "6",
                           "--out", str(base), "--format", "both")
        assert code == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_hs_error(self, capsys):
        code, out, _ = run(capsys, "hs-error", "--n-list", "8",
                           "--rank-list", "2,4,8")
        assert code == 0
        rows = parse_csv(out)
        errs = {r["rank"]: float(r["hs_error"]) for r in rows}
        assert errs["2"] > errs["4"]

    def test_periodic(self, capsys):
        code, out, _ = run(capsys, "periodic", "--L", "8", "--r", "5",
                           "--rank-list", "16")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["max_peak_error"]) < 1e-10

    def test_rotation_scan(self, capsys):
        code, out, _ = run(capsys, "rotation-scan", "--n-list", "8",
                           "--scheme", "standard", "--scheme", "base-n:3")
        assert code == 0
        rows = parse_csv(out)
        assert {r["scheme"] for r in rows} == {"standard", "base-n:3"}

    def test_ordering_scan(self, capsys):
        code, out, _ = run(capsys, "ordering-scan", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["bit_reversal"] in doc["metadata"]["optimal_permutations"]

    def test_bench_scaling(self, capsys):
        code, out, _ = run(capsys, "bench-scaling", "--n-list", "12,16",
                           "--repeats", "1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2

    def test_converge_spectrum(self, capsys):
        code, out, _ = run(capsys, "converge-spectrum", "--n-list", "6,10",
                           "--n-ref", "12")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[1]["mean_abs_diff"]) < float(rows[0]["mean_abs_diff"])


class TestBuildApply:
    def test_build_past_operator_limit_subprocess(self):
        start = time.monotonic()
        proc = run_cli_process("build", "--n", "1024")
        assert time.monotonic() - start < 30
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("qftmpo: error: operator chains need 1 <= n <= 1023")

    def test_build_apply_roundtrip(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        code, out, _ = run(capsys, "build", "--n", "8", "--out", str(mpo_path))
        assert code == 0
        info = json.loads(out)
        assert info["n_qubits"] == 8
        assert len(info["fingerprint"]) == 64

        code, out, _ = run(capsys, "apply", "--mpo", str(mpo_path),
                           "--r", "5", "--k0", "0")
        assert code == 0
        report = json.loads(out)
        exact = periodic_peak_probabilities(8, 5)
        for key, prob in report["peak_probabilities"].items():
            assert prob == pytest.approx(exact[int(key)], abs=1e-10)

    def test_apply_basis_state(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        run(capsys, "build", "--n", "4", "--out", str(mpo_path))
        code, out, _ = run(capsys, "apply", "--mpo", str(mpo_path),
                           "--bits", "0000", "--save-state", str(tmp_path / "s.mps"))
        assert code == 0
        assert (tmp_path / "s.mps").exists()
        report = json.loads(out)
        # uniform output: every amplitude 1/4, low rank
        assert report["output_max_rank"] <= 16

    def test_apply_needs_exactly_one_input(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        run(capsys, "build", "--n", "4", "--out", str(mpo_path))
        code, _, err = run(capsys, "apply", "--mpo", str(mpo_path))
        assert code == 1
        code, _, err = run(capsys, "apply", "--mpo", str(mpo_path),
                           "--r", "3", "--bits", "0000")
        assert code == 1

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_unreadable_operator_is_one_line_input_error(self, capsys, tmp_path, damage):
        mpo_path = tmp_path / "t.mpo"
        if damage == "truncated":
            run(capsys, "build", "--n", "4", "--out", str(mpo_path))
            mpo_path.write_bytes(mpo_path.read_bytes()[:40])
        proc = run_cli_process("apply", "--mpo", str(mpo_path), "--r", "3")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("qftmpo: error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_payload_is_one_line_input_error(self, tmp_path, bad):
        mpo_path = tmp_path / "t.mpo"
        save_mpo(identity_mpo(3), mpo_path)
        raw = bytearray(mpo_path.read_bytes())
        # container header (12 bytes), then the first site record: magic,
        # version, rank 4, four u64 dimensions, then the payload
        payload = 12 + 4 + 8 + 4 * 8
        raw[payload:payload + 8] = struct.pack("<d", bad)
        mpo_path.write_bytes(bytes(raw))
        proc = run_cli_process("apply", "--mpo", str(mpo_path), "--r", "3")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("qftmpo: error: ")
        assert proc.stderr.count("\n") == 1

    def test_build_reports_discarded_weight(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--n", "10", "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        assert json.loads(out)["discarded_weight"] > 0

    def test_discarded_weight_is_relative(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--n", "10", "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        trace = compile_trace(nearest_neighbor_qft_circuit(10), TruncationPolicy(1e-14, 4))
        assert json.loads(out)["discarded_weight"] == trace.discarded_weight / 2**10

    def test_apply_periodic_on_64_qubits(self, tmp_path):
        # peak indices reach 2^64, past int64
        n, period = 64, 29
        path = tmp_path / "qft64.mpo"
        save_mpo(compile_to_mpo(nearest_neighbor_qft_circuit(n), TruncationPolicy(1e-14, 16)),
                 path)
        proc = run_cli_process("apply", "--mpo", str(path), "--r", str(period))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 1
        peaks = json.loads(lines[0])["peak_probabilities"]
        want = [(i * 2**n + period // 2) // period for i in range(period)]  # nearest i 2^n / r
        assert [int(y) for y in peaks] == want
        for y, prob in peaks.items():
            assert abs(prob - peak_probability(n, period, int(y))) <= 1e-12

    def test_build_aqft_and_scheme_exclusive(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "--n", "4", "--bandwidth", "2",
                           "--scheme", "standard", "--out", str(tmp_path / "x.mpo"))
        assert code == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-list = 6\ncutoff = 1e-12\n# comment line\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        rows = parse_csv(out)
        assert all(r["n"] == "6" for r in rows)
        assert '# rel_cutoff: 1e-12' in out

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-list = 6\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                           "--n-list", "8")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["n"] == "8" for r in rows)

    def test_unknown_config_keys_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-list = 6\nseed = 3\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert "seed" not in out

    def test_config_fills_required_flag_of_invoked_command(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        save_mpo(identity_mpo(4), mpo_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mpo = {mpo_path}\nbits = 1111\n")
        code, out, _ = run(capsys, "apply", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["input"] == {"bits": "1111"}
        code, out, _ = run(capsys, "apply", f"--config={cfg}", "--bits", "0110")
        assert code == 0
        assert json.loads(out)["input"] == {"bits": "0110"}

    def test_keys_of_other_commands_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        # mpo/bits belong to apply, n-list to the studies, n-ref to converge-*
        cfg.write_text("mpo = /nonexistent.mpo\nbits = 1\nn-list = 6\nn-ref = 20\n")
        code, out, _ = run(capsys, "ordering-scan", "--config", str(cfg), "--n", "4",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["study"] == "ordering"
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert {r["n"] for r in parse_csv(out)} == {"6"}

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals\n")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg),
                           "--n-list", "6")
        assert code == 1
        assert "config error" in err

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "spectrum", "--config", "/nonexistent.cfg",
                           "--n-list", "6")
        assert code == 1
