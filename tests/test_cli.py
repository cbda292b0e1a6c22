import csv
import io
import json
import math
import struct
import time

import numpy as np
import pytest

import qftmpo
from conftest import run_python
from qftmpo import _canonical
from qftmpo.circuits import (
    CircuitSpec,
    GateSpec,
    RotationScheme,
    aqft_circuit,
    circuit_fingerprint,
    compile_to_mpo,
    compile_trace,
    generalized_circuit,
    nearest_neighbor_qft_circuit,
)
from qftmpo.cli import COMMANDS, _command_args, _emit, _int_list, _Parser, main
from qftmpo.mpo import _carry_sweep, _fourier_sweep, fourier_mpo, identity_mpo, load_mpo, save_mpo
from qftmpo.mps import CanonicalMps, load_mps
from qftmpo.oracle import bit_reversal_permutation, dense_qft_matrix, periodic_peak_probabilities
from qftmpo.tensor import TruncationPolicy
from test_circuits import PINNED
from test_sweep import assert_same_bonds, peak_probability, seeded_bits, train_overlap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv):
    """``main(argv)``'s exit code, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (subcommand, flag) for every flag that takes a list of integers
LIST_FLAGS = [(name, flags[0]) for name, (_, specs, _) in COMMANDS.items()
              for flags, kwargs in specs if kwargs.get("type") is _int_list]


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    return run_python("-m", "qftmpo.cli", *argv)


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

    @pytest.mark.parametrize("value", ["eight", "8,x", "8.5"])
    def test_bad_list_names_the_format(self, capsys, value):
        assert exit_code(["spectrum", "--n-list", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qftmpo spectrum")
        assert err.splitlines()[-1] == (
            f"qftmpo spectrum: error: argument --n-list: "
            f"expected comma-separated integers, got {value!r}")
        assert "_int_list" not in err

    def test_semantic_usage_error_returns_one(self, capsys):
        code, _, err = run(capsys, "ordering-scan", "--n", "12")
        assert code == 1
        assert "error" in err


    @pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name,flag", LIST_FLAGS, ids=[n + f for n, f in LIST_FLAGS])
    def test_empty_list_refused(self, capsys, tmp_path, name, flag, source, value):
        if source == "flag":
            argv = [name, flag, value]
            # argparse prints its usage block above this line
            want = (f"qftmpo {name}: error: argument {flag}: "
                    f"expected comma-separated integers, got {value!r}")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:]} = {value}\n")
            argv = [name, "--config", str(cfg)]
            want = (f"qftmpo: config error: {cfg}: {flag[2:]}: "
                    f"expected comma-separated integers, got {value!r}")
        assert exit_code(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error: " in line] == [want]

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n-list", "8,1"],
        ["converge-spectrum", "--n-list", "1", "--n-ref", "4"],
        ["converge-tensor", "--n-list", "1", "--n-ref", "4"],
        ["rotation-scan", "--n-list", "1", "--scheme", "power-law:2"],
    ], ids=lambda argv: argv[0])
    def test_size_without_a_middle_bond_refused(self, capsys, argv):
        # one line naming the size, and no row written
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "qftmpo: error: n = 1 has no middle bond: at least 2 qubits are needed\n"

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


# a fresh interpreter that loads the package and runs a build and an apply
# in process, printing the scipy modules loaded after each step
_IMPORT_BUDGET_SCRIPT = """
import contextlib, io, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import qftmpo, qftmpo.cli
print("import", scipy_modules())
path = sys.argv[1]
for argv in (["build", "--n", "8", "--out", path],
             ["apply", "--mpo", path, "--bits", "01101001"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qftmpo.cli.main(argv) == 0
    print(argv[0], scipy_modules())
"""


class TestImportBudget:
    def test_commands_load_no_scipy(self, tmp_path):
        """scipy serves only the SVD fallback; a start-up that imports it
        costs every command several times the work of a small apply."""
        proc = run_python("-c", _IMPORT_BUDGET_SCRIPT, str(tmp_path / "q8.mpo"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["import []", "build []", "apply []"]


class TestNumericalFailures:
    def test_aqft_trend_violation_returns_two(self, capsys):
        code, _, err = run(capsys, "aqft-scan", "--n-list", "8",
                           "--bandwidth-list", "1,2")
        assert code == 2
        assert "numerical failure" in err

    def test_dense_cap_is_a_resource_limit(self, capsys, monkeypatch):
        # the ordering scan permutes the dense transform
        monkeypatch.setenv("QFTMPO_DENSE_LIMIT", "4")
        code, out, err = run(capsys, "ordering-scan", "--n", "5")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("qftmpo: resource limit: ")
        assert "dense cap of 4 qubits" in err

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

    def test_rotation_scan_json_has_no_nan(self, capsys):
        # a rank-1 middle bond has no tail: null, as on a saturated row
        code, out, _ = run(capsys, "rotation-scan", "--n-list", "4",
                           "--scheme", "power-law:60", "--format", "json")
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        row = json.loads(out, parse_constant=refuse)["rows"][0]
        assert (row["max_bond_rank"], row["tail_slope"]) == (1, None)

    def test_rotation_scan_refuses_trailing_fields(self, capsys):
        code, out, err = run(capsys, "rotation-scan", "--n-list", "6",
                             "--scheme", "power-law:2:junk")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "power-law:2:junk" in err

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

    @pytest.mark.parametrize("argv", [
        ["bench-scaling", "--n-list", "4", "--repeats", "0"],
        ["bench-scaling", "--n-list", "4", "--repeats", "-1"],
        ["converge-spectrum", "--n-list", "6", "--n-ref", "4"],
        ["converge-tensor", "--n-list", "6", "--n-ref", "6"],
    ])
    def test_parameters_that_cannot_produce_the_row_are_input_errors(self, argv):
        proc = run_cli_process(*argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("qftmpo: error: ")
        assert proc.stderr.count("\n") == 1


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

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_build_without_qubits_subprocess(self, n):
        proc = run_cli_process("build", "--n", n)
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

    def test_sidecars_name_their_writer(self, capsys, tmp_path):
        run(capsys, "build", "--n", "4", "--out", str(tmp_path / "t.mpo"))
        run(capsys, "apply", "--mpo", str(tmp_path / "t.mpo"), "--bits", "0110",
            "--save-state", str(tmp_path / "s.mps"))
        for name in ("t.mpo.json", "s.mps.json"):
            sidecar = json.loads((tmp_path / name).read_text())
            assert sidecar["package_version"] == qftmpo.__version__
            assert sidecar["numpy_version"] == np.__version__

    @pytest.mark.parametrize("bits", seeded_bits(20, 2), ids=["seed0", "seed1"])
    def test_apply_bits_feeds_the_input_bit_reversed(self, capsys, tmp_path, bits):
        mpo_path, state_path = tmp_path / "t.mpo", tmp_path / "s.mps"
        run(capsys, "build", "--n", "20", "--out", str(mpo_path))
        text = "".join(map(str, bits))
        code, _, _ = run(capsys, "apply", "--mpo", str(mpo_path), "--bits", text,
                         "--save-state", str(state_path))
        assert code == 0
        got = load_mps(state_path)
        want = load_mpo(mpo_path).apply_to_mps(
            CanonicalMps.from_basis_state(20, text).reverse_qubits(), TruncationPolicy(1e-14))
        assert_same_bonds(got.lambdas, want.lambdas)
        overlap = train_overlap(list(got.gammas), got.lambdas, list(want.gammas), want.lambdas)
        assert abs(1 - overlap) <= 1e-12

    def test_apply_needs_exactly_one_input(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        run(capsys, "build", "--n", "4", "--out", str(mpo_path))
        usage = "give exactly one of --r (periodic input) or --bits"
        code, _, err = run(capsys, "apply", "--mpo", str(mpo_path))
        assert code == 1 and usage in err
        code, _, err = run(capsys, "apply", "--mpo", str(mpo_path),
                           "--r", "3", "--bits", "0000")
        assert code == 1 and usage in err
        # the usage error comes before the operator file is read
        code, _, err = run(capsys, "apply", "--mpo", str(tmp_path / "missing.mpo"))
        assert code == 1 and usage in err

    @pytest.mark.parametrize("bits", ["０110", "01x0", "012"],
                             ids=["fullwidth-zero", "letter", "wrong-length"])
    def test_apply_reads_only_ascii_bits(self, capsys, tmp_path, bits):
        mpo_path = tmp_path / "t.mpo"
        run(capsys, "build", "--n", "4", "--out", str(mpo_path))
        code, out, err = run(capsys, "apply", "--mpo", str(mpo_path), "--bits", bits)
        assert code == 1 and out == ""
        assert err == f"qftmpo: error: need 4 bits of 0/1, got {bits!r}\n"

    @pytest.mark.parametrize("damage", ["missing", "truncated", "trailing"])
    def test_unreadable_operator_is_one_line_input_error(self, capsys, tmp_path, damage):
        mpo_path = tmp_path / "t.mpo"
        if damage != "missing":
            run(capsys, "build", "--n", "4", "--out", str(mpo_path))
            raw = mpo_path.read_bytes()
            mpo_path.write_bytes(raw[:40] if damage == "truncated" else raw + bytes(192))
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

    def test_complex_bond_is_one_line_input_error(self, tmp_path):
        # an imaginary part on a bond record is damage, not to be dropped
        mpo_path = tmp_path / "t.mpo"
        op = fourier_mpo(6, TruncationPolicy(1e-14))
        bonds = list(op.gamma_vectors)
        bonds[2] = bonds[2] + 1j * bonds[2]
        _canonical.save_chain(mpo_path, "mpo", op.site_tensors, bonds, None)
        proc = run_cli_process("apply", "--mpo", str(mpo_path), "--bits", "010101")
        assert proc.returncode == 1
        assert proc.stderr == ("qftmpo: error: bond 2 of the container has a nonzero "
                               "imaginary part\n")

    def test_build_reports_discarded_weight(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--n", "10", "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        assert json.loads(out)["discarded_weight"] > 0

    def test_discarded_weight_is_relative(self, capsys, tmp_path):
        # the plain transform's weight is that of its one truncating sweep
        code, out, _ = run(capsys, "build", "--n", "10", "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        _, weight = _fourier_sweep(10, TruncationPolicy(1e-14, 4))
        assert json.loads(out)["discarded_weight"] == weight / 2**10

    def test_discarded_weight_bounds_the_error(self, capsys, tmp_path):
        n = 10
        code, out, _ = run(capsys, "build", "--n", str(n), "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        got = load_mpo(tmp_path / "t.mpo").to_dense()
        want = dense_qft_matrix(n)[:, bit_reversal_permutation(n)]
        error = np.linalg.norm(got - want) ** 2 / 2**n
        assert 1e-6 < error <= json.loads(out)["discarded_weight"] * (1 + 1e-9)

    def test_gate_paths_report_their_steps_weight(self, capsys, tmp_path):
        scheme = "perturbed-exponent:0.1:7:per-gate"
        code, out, _ = run(capsys, "build", "--n", "10", "--scheme", scheme, "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        assert json.loads(out)["construction"] == {"kind": "gate-compile"}
        trace = compile_trace(generalized_circuit(10, RotationScheme.parse(scheme)),
                              TruncationPolicy(1e-14, 4))
        assert json.loads(out)["discarded_weight"] == trace.discarded_weight / 2**10

    def test_carry_trains_report_their_sweeps_weight(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--n", "10", "--bandwidth", "6", "--max-rank", "4",
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        assert json.loads(out)["construction"] == {"kind": "carry-train"}
        turns = [math.pi] + [2.0 * math.pi / 2.0**k for k in range(2, 7)]
        _, weight = _carry_sweep(10, turns, TruncationPolicy(1e-14, 4))
        assert json.loads(out)["discarded_weight"] == weight / 2**10

    def test_build_matches_gate_compile(self, capsys, tmp_path):
        path = tmp_path / "t.mpo"
        code, out, err = run(capsys, "build", "--n", "32", "--max-rank", "16", "--out", str(path))
        assert code == 0
        assert "bulk tensor" in err and "gates" not in err
        ref = compile_to_mpo(nearest_neighbor_qft_circuit(32), TruncationPolicy(1e-14, 16))
        assert json.loads(out)["bond_ranks"] == list(ref.bond_ranks)
        sidecar = json.loads((tmp_path / "t.mpo.json").read_text())
        assert sidecar["circuit_fingerprint"] == circuit_fingerprint(
            nearest_neighbor_qft_circuit(32))

    @pytest.mark.parametrize("n,option,construction", [
        (8, [], {"kind": "bulk-tensor", "nodes": 16}),
        (8, ["--bandwidth", "4"], {"kind": "carry-train"}),
        (8, ["--scheme", "power-law:2"], {"kind": "carry-train"}),
        (16, ["--scheme", "base-n:3"], {"kind": "bulk-tensor", "base": 3, "nodes": 11}),
        (8, ["--scheme", "perturbed-base:0.1:7:per-gate"], {"kind": "gate-compile"}),
        (16, ["--bandwidth", "9"], {"kind": "carry-train"}),  # W = 256
        (22, ["--bandwidth", "11", "--max-rank", "4"], {"kind": "gate-compile"}),  # W = 1024
    ], ids=["bulk-tensor", "aqft", "scheme", "base-n-3", "per-gate", "wide-aqft",
            "widest-aqft"])
    def test_build_records_its_construction(self, capsys, tmp_path, n, option, construction):
        path = tmp_path / "t.mpo"
        code, out, _ = run(capsys, "build", "--n", str(n), *option, "--out", str(path))
        assert code == 0
        assert json.loads(out)["construction"] == construction
        sidecar = json.loads((tmp_path / "t.mpo.json").read_text())
        assert sidecar["construction"] == construction

    def test_base_scheme_has_the_gate_compile_ranks(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "--n", "16", "--scheme", "base-n:3",
                             "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        assert "bulk tensor" in err and "gates" not in err
        circuit = generalized_circuit(16, RotationScheme("base-n", base=3))
        ref = compile_to_mpo(circuit, TruncationPolicy(1e-14))
        assert json.loads(out)["bond_ranks"] == list(ref.bond_ranks)
        assert json.loads(out)["fingerprint"] == circuit_fingerprint(circuit)

    @pytest.mark.parametrize("option,circuit", [
        (["--scheme", "standard"], generalized_circuit(64, RotationScheme("standard"))),
        (["--scheme", "base-n:2"], generalized_circuit(64, RotationScheme("base-n", base=2))),
        (["--bandwidth", "64"], aqft_circuit(64, 64)),
    ], ids=["standard", "base-n-2", "full-bandwidth"])
    def test_full_transform_spellings_take_the_bulk_tensor(self, capsys, tmp_path, monkeypatch,
                                                          option, circuit):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "build", "--n", "64", "--max-rank", "16", *option)
        assert code == 0
        assert "bulk tensor" in err and "gates" not in err
        path = tmp_path / f"{circuit.family}-64.mpo"
        assert json.loads(out)["file"] == path.name and path.exists()
        run(capsys, "build", "--n", "64", "--max-rank", "16", "--out", "plain.mpo")
        plain = load_mpo(tmp_path / "plain.mpo")
        assert json.loads(out)["bond_ranks"] == list(plain.bond_ranks)
        sidecar = json.loads((tmp_path / f"{path.name}.json").read_text())
        assert sidecar["circuit_fingerprint"] == circuit_fingerprint(circuit)
        assert sidecar["circuit_fingerprint"] != circuit_fingerprint(
            nearest_neighbor_qft_circuit(64))

    @pytest.mark.parametrize("n,option,digest", [
        (1023, [], PINNED["nn1023"]),
        (1023, ["--scheme", "standard"], None),
        (1023, ["--bandwidth", "1023"], PINNED["aqft1023-1023"]),
        (256, ["--scheme", "base-n:3"], None),
    ], ids=["plain", "standard", "full-bandwidth", "base-n-3"])
    def test_bulk_spellings_build_no_gate_list(self, capsys, tmp_path, monkeypatch,
                                               n, option, digest):
        made = []
        post_init = GateSpec.__post_init__

        def counting(self):
            made.append(self.kind)
            post_init(self)

        def refused(self):
            raise AssertionError("the gate tuple was built")

        monkeypatch.setattr(GateSpec, "__post_init__", counting)
        monkeypatch.setattr(CircuitSpec, "gates", property(refused))
        code, out, _ = run(capsys, "build", "--n", str(n), *option,
                           "--out", str(tmp_path / "t.mpo"))
        assert code == 0
        assert len(made) <= 4 * n
        assert json.loads(out)["construction"]["kind"] == "bulk-tensor"
        if digest is not None:
            assert json.loads(out)["fingerprint"] == digest

    def test_bandwidth_build_has_the_gate_compile_ranks(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "--n", "16", "--bandwidth", "5",
                             "--out", str(tmp_path / "a.mpo"))
        assert code == 0
        assert "carry train" in err
        ref = compile_to_mpo(aqft_circuit(16, 5), TruncationPolicy(1e-14))
        assert json.loads(out)["bond_ranks"] == list(ref.bond_ranks)
        assert json.loads(out)["fingerprint"] == circuit_fingerprint(aqft_circuit(16, 5))

    def test_gate_compile_matches_an_explicit_gate_list(self, capsys, tmp_path):
        # a per-gate draw has no carry train: `build` compiles its gates
        n, rng = 12, np.random.default_rng(7)
        gates = []
        for stage in range(n):
            gates.append(GateSpec("h", (0,)))
            for d in range(n - 1 - stage):
                angle = 2.0 * math.pi / 2.0 ** (d + 2 + rng.uniform(-0.1, 0.1))
                gates.append(GateSpec("cphase", (d, d + 1), angle=angle))
                gates.append(GateSpec("swap", (d, d + 1), side="both"))
        ref = compile_trace(CircuitSpec(n, gates), TruncationPolicy(1e-14)).mpo
        path = tmp_path / "a.mpo"
        code, out, _ = run(capsys, "build", "--n", str(n), "--scheme",
                           "perturbed-exponent:0.1:7:per-gate", "--out", str(path))
        assert code == 0
        assert json.loads(out)["construction"] == {"kind": "gate-compile"}
        got = load_mpo(path)
        for a, b in zip((*ref.site_tensors, *ref.gamma_vectors),
                        (*got.site_tensors, *got.gamma_vectors), strict=True):
            assert np.array_equal(a, b)

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

    @pytest.mark.parametrize("option", [["--scheme", "standard"], ["--scheme", ""]])
    def test_bandwidth_and_scheme_are_one_error_line(self, capsys, tmp_path, option):
        path = tmp_path / "x.mpo"
        code, out, err = run(capsys, "build", "--n", "8", "--bandwidth", "3", *option,
                             "--out", str(path))
        assert code == 1
        assert out == ""
        assert err == "qftmpo: error: bandwidth and scheme are mutually exclusive\n"
        assert not path.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_scheme_is_an_input_error(self, capsys, tmp_path, source):
        path = tmp_path / "x.mpo"
        if source == "flag":
            argv = ["--scheme", ""]
        else:
            cfg = tmp_path / "build.cfg"
            cfg.write_text("scheme =\n")
            argv = ["--config", str(cfg)]
        code, out, err = run(capsys, "build", "--n", "8", *argv, "--out", str(path))
        assert code == 1
        assert out == ""
        assert err == "qftmpo: error: unknown rotation scheme ''\n"
        assert not path.exists()

    @pytest.mark.parametrize("n,scheme,says", [
        ("4", "perturbed-exponent:inf:1", "finite non-negative scale, got inf"),
        ("4", "perturbed-exponent:1e308:1", "finite non-negative scale, got 1e+308"),
        ("3", "perturbed-base:inf:3", "finite non-negative scale, got inf"),
        ("4", "power-law:99999999999", "angle at order 2 is not a finite number"),
        ("40", "base-n:99999999999999999999", "angle at order 16 is not a finite number"),
        # 3^647 overflows a double, 3^646 does not
        ("647", "base-n:3", "angle at order 647 is not a finite number"),
        ("1023", "base-n:3", "angle at order 647 is not a finite number"),
        # a draw near -2 sends (2 + delta)^k to zero
        ("300", "perturbed-base:1.99:3", "is not a finite number"),
    ])
    def test_overflowing_scheme_is_one_error_line(self, capsys, tmp_path, n, scheme, says):
        code, out, err = run(capsys, "build", "--n", n, "--scheme", scheme,
                             "--out", str(tmp_path / "x.mpo"))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("qftmpo: error: ")
        assert scheme in err and says in err
        assert not (tmp_path / "x.mpo").exists()


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

    @pytest.mark.parametrize("line,key", [("n-list = x", "n-list"),
                                          ("n_list = 8,x", "n-list"),
                                          ("cutoff = tiny", "cutoff")])
    def test_bad_value_names_file_and_key(self, tmp_path, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# shared settings\n{line}\n")
        proc = run_cli_process("spectrum", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"qftmpo: config error: {cfg}: {key}: ")
        assert proc.stderr.count("\n") == 1

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "spectrum", "--config", "/nonexistent.cfg",
                           "--n-list", "6")
        assert code == 1


class _ReadRecorder:
    """Stands in for a parsed namespace and notes which flags are read."""

    def __init__(self, values):
        self._values = values
        self.read = set()

    def __getattr__(self, name):  # reached only for the parsed flags
        self.read.add(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None


# tiny runs that together reach every branch which reads a flag
_GUARD_RUNS = [
    ("build", ["--n", "4", "--out", "{tmp}/b.mpo"]),
    ("apply", ["--mpo", "{mpo}", "--bits", "0110"]),
    ("apply", ["--mpo", "{mpo}", "--r", "3", "--save-state", "{tmp}/s.mps"]),
    ("spectrum", ["--n-list", "6"]),
    ("converge-spectrum", ["--n-list", "6", "--n-ref", "8"]),
    ("converge-tensor", ["--n-list", "6", "--n-ref", "8"]),
    ("hs-error", ["--n-list", "6", "--rank-list", "2"]),
    ("periodic", ["--L", "6", "--r", "3", "--rank-list", "4"]),
    ("aqft-scan", ["--n-list", "8", "--bandwidth-list", "1,2", "--no-check"]),
    ("rotation-scan", ["--n-list", "6", "--scheme", "standard"]),
    ("ordering-scan", ["--n", "3"]),
    ("bench-scaling", ["--n-list", "4", "--repeats", "1"]),
]


class TestOptionsAreRead:
    def test_every_parsed_flag_is_read(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        save_mpo(identity_mpo(4), mpo_path)
        assert {name for name, _ in _GUARD_RUNS} == set(COMMANDS)
        unread = {}
        for name, argv in _GUARD_RUNS:
            parser = _command_args(_Parser(prog=f"qftmpo {name}"), name)
            argv = [a.format(tmp=tmp_path, mpo=mpo_path) for a in argv]
            args = _ReadRecorder(vars(parser.parse_args(argv)))
            result = COMMANDS[name][2](args)
            if result is not None:
                _emit(result, args)
            # main reads --config from argv before parsing, never from args
            parsed = {a.dest for a in parser._actions if a.dest not in ("help", "config")}
            unread[name] = unread.get(name, parsed) & (parsed - args.read)
        capsys.readouterr()
        assert {name: flags for name, flags in unread.items() if flags} == {}

    @pytest.mark.parametrize("argv", [
        ["build", "--n", "4", "--out", "{tmp}/q.mpo", "--format", "json"],
        ["apply", "--mpo", "{tmp}/q.mpo", "--bits", "0110", "--out", "{tmp}/r.json"],
        ["apply", "--mpo", "{tmp}/q.mpo", "--bits", "0110", "--format", "json"],
        ["ordering-scan", "--n", "4", "--cutoff", "0.9"],
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, argv):
        proc = run_cli_process(*[a.format(tmp=tmp_path) for a in argv])
        assert proc.returncode == 1
        prefix = f"qftmpo {argv[0]}: error: unrecognized arguments: "
        assert sum(line.startswith(prefix) for line in proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_config_keys_of_other_commands_flags_are_ignored(self, capsys, tmp_path):
        mpo_path = tmp_path / "t.mpo"
        save_mpo(identity_mpo(4), mpo_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mpo = {mpo_path}\nbits = 0110\nout = {tmp_path / 'r.json'}\n"
                       "format = json\n")
        code, out, _ = run(capsys, "apply", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["input"] == {"bits": "0110"}
        assert not (tmp_path / "r.json").exists()
