"""The benchmark's workloads: what each pass runs and how its outputs are checked.

A workload has a set-up (run several times so its median is stable), a
list of operations per pass, and one check per operation. Operations call
the public CLI (`qftmpo.cli.main`) or the Python API in-process; checks run
outside the timed region and compare against `reference`, which does not
use the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qftmpo.analysis as analysis
import qftmpo.circuits as circuits
import qftmpo.cli as cli
import qftmpo.mpo as mpo_module
import qftmpo.mps as mps_module
from qftmpo.tensor import TruncationPolicy

from reference import (
    check_fourier_operator,
    check_fourier_state,
    dense_fourier,
    peak_locations,
    periodic_peak_probability,
    require,
)


@dataclass
class Op:
    """One timed operation. ``kind`` groups operations for latency figures."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """Invoke the CLI entry point in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_report(result: CliResult) -> dict:
    require(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[-300:]}")
    lines = result.stdout.strip().splitlines()
    require(bool(lines), "no report printed")
    return json.loads(lines[-1])


def _remove(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def _chain_arrays(chain_sites, bonds):
    return [np.asarray(t) for t in chain_sites], [np.asarray(b) for b in bonds]


class Workload:
    name = ""
    # operation kinds whose durations feed the op_ms figures
    latency_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Prepare the inputs of every pass; must be safe to repeat."""

    def ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)

    def headline(self, durations: dict[str, list[float]], pass_seconds: list[float]) -> dict:
        """The workload's own named end-to-end figures, as (value, unit, samples)."""
        raise NotImplementedError


class BuildNN32(Workload):
    """Compile the 32-qubit nearest-neighbour transform at max rank 16."""

    name = "build-nn32"
    latency_kinds = ("build",)
    N = 32
    MAX_RANK = 16
    SAMPLES = 32
    # rank-16 truncation of intermediate bonds leaves errors up to about 5e-7
    TOL = 1e-5

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.out = self.work / f"qft{self.N}.mpo"
        rng = self.rng(0)
        self.pairs = [(rng.getrandbits(self.N), rng.getrandbits(self.N))
                      for _ in range(self.SAMPLES)]
        self.fingerprint = None

    def ops(self, index: int) -> list[Op]:
        argv = ["build", "--n", str(self.N), "--max-rank", str(self.MAX_RANK),
                "--out", str(self.out)]
        return [Op("build", lambda: run_cli(argv), self.check)]

    def check(self, result: CliResult) -> None:
        sidecar = Path(f"{self.out}.json")
        try:
            report = cli_report(result)
            require(report["n_qubits"] == self.N, f"report n_qubits {report['n_qubits']}")
            require(report["max_bond_rank"] <= self.MAX_RANK,
                    f"reported max rank {report['max_bond_rank']}")
            op = mpo_module.load_mpo(self.out)
            ranks = [len(b) for b in op.gamma_vectors]
            require(len(op.site_tensors) == self.N, "operator width")
            require(max(ranks) <= self.MAX_RANK, f"stored max rank {max(ranks)}")
            if self.fingerprint is None:
                self.fingerprint = circuits.circuit_fingerprint(
                    circuits.nearest_neighbor_qft_circuit(self.N))
            stored = json.loads(sidecar.read_text()).get("circuit_fingerprint")
            require(stored == self.fingerprint, "sidecar fingerprint differs from the circuit's")
            sites, bonds = _chain_arrays(op.site_tensors, op.gamma_vectors)
            check_fourier_operator(sites, bonds, self.pairs, self.TOL)
        finally:
            _remove(self.out, sidecar)

    def headline(self, durations, pass_seconds):
        builds = durations.get("build", [])
        return {"build_s": (median(builds), "s", len(builds))}


class ApplyN20(Workload):
    """Apply a saved 20-qubit operator to basis and periodic inputs."""

    name = "apply-n20"
    latency_kinds = ("bits",)
    N = 20
    MAX_RANK = 16
    BITS_COMMANDS = 128
    PERIODS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    OUTPUT_SAMPLES = 4
    PEAK_TOL = 1e-10  # acceptance criterion 4
    # the rank-16 operator leaves amplitude errors up to about 2e-7
    STATE_TOL = 1e-5

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.mpo_path = self.work / f"qft{self.N}.mpo"
        self.state_path = self.work / "out.mps"
        cli_report(run_cli(["build", "--n", str(self.N), "--max-rank", str(self.MAX_RANK),
                            "--out", str(self.mpo_path)]))
        self.peaks = {
            r: {m: periodic_peak_probability(self.N, r, m) for m in peak_locations(self.N, r)}
            for r in self.PERIODS
        }

    def ops(self, index: int) -> list[Op]:
        rng = self.rng(index)
        mpo_arg = ["--mpo", str(self.mpo_path)]
        ops = []
        for _ in range(self.BITS_COMMANDS):
            value = rng.getrandbits(self.N)
            outputs = [rng.getrandbits(self.N) for _ in range(self.OUTPUT_SAMPLES)]
            argv = ["apply", *mpo_arg, "--bits", format(value, f"0{self.N}b"),
                    "--save-state", str(self.state_path)]
            ops.append(Op("bits", lambda argv=argv: run_cli(argv),
                          lambda res, v=value, ys=outputs: self.check_bits(res, v, ys)))
        for r in self.PERIODS:
            argv = ["apply", *mpo_arg, "--r", str(r)]
            ops.append(Op("periodic", lambda argv=argv: run_cli(argv),
                          lambda res, r=r: self.check_periodic(res, r)))
        return ops

    def check_bits(self, result: CliResult, value: int, outputs: list[int]) -> None:
        sidecar = Path(f"{self.state_path}.json")
        try:
            report = cli_report(result)
            require(report.get("state_file") == str(self.state_path), "state file not reported")
            state = mps_module.load_mps(self.state_path)
            sites, bonds = _chain_arrays(state.gammas, state.lambdas)
            check_fourier_state(sites, bonds, value, outputs, self.STATE_TOL)
        finally:
            _remove(self.state_path, sidecar)

    def check_periodic(self, result: CliResult, period: int) -> None:
        report = cli_report(result)
        got = {int(m): float(p) for m, p in report["peak_probabilities"].items()}
        want = self.peaks[period]
        require(set(got) == set(want), f"period {period}: peak locations differ")
        worst = max(abs(got[m] - want[m]) for m in want)
        require(worst <= self.PEAK_TOL,
                f"period {period}: peak probability error {worst:.2e} > {self.PEAK_TOL:.0e}")

    def headline(self, durations, pass_seconds):
        bits = [1e3 * d for d in durations.get("bits", [])]
        periodic = durations.get("periodic", [])
        per_pass = [sum(periodic[i:i + len(self.PERIODS)])
                    for i in range(0, len(periodic), len(self.PERIODS))]
        return {
            "apply_bits_ms_mean": (sum(bits) / len(bits), "ms", len(bits)),
            "apply_bits_ms_p50": (quantile(bits, 0.5), "ms", len(bits)),
            "apply_bits_ms_p90": (tail_quantile(bits, 0.9), "ms", len(bits)),
            "apply_periodic_s": (median(per_pass), "s", len(per_pass)),
        }


class StudySuite(Workload):
    """Acceptance criteria 1-6 and 8 plus README's spectrum and convergence
    studies, through the Python API in one process."""

    name = "study-suite"
    latency_kinds = ("criterion-1", "criterion-2", "hs-error", "periodic-peaks", "aqft-scan",
                     "ordering-scan", "rotation-scan", "spectrum", "converge-spectrum",
                     "converge-tensor")
    SAMPLES = 16

    def setup(self) -> None:
        rng = self.rng(0)
        self.pairs30 = [(rng.getrandbits(30), rng.getrandbits(30)) for _ in range(self.SAMPLES)]

    def ops(self, index: int) -> list[Op]:
        # names are looked up at call time so a traced pass sees the wrappers
        def call(attr, *args, **kwargs):
            return lambda: getattr(analysis, attr)(*args, **kwargs)

        schemes = ["standard", "base-n:3", "power-law:2", "perturbed-exponent:0.1:7"]
        tight = TruncationPolicy(1e-14)
        return [
            Op("criterion-1", self.run_dense_agreement, self.check_dense_agreement),
            Op("criterion-2", self.run_entanglement, self.check_entanglement),
            Op("hs-error", call("hs_error_study", [8, 12, 16, 20], range(2, 11)),
               self.check_hs_error),
            Op("periodic-peaks", call("periodic_study", [8, 10, 12, 14],
                                      [2, 3, 5, 7, 9, 12, 15], [16]), self.check_periodic),
            Op("aqft-scan", call("aqft_rank_study", [12], range(5, 12), TruncationPolicy(1e-10),
                                 rank_ceiling=64), self.check_aqft),
            Op("ordering-scan", call("ordering_study", 5), self.check_ordering),
            Op("rotation-scan", call("rotation_scheme_study", [14], schemes,
                                     TruncationPolicy(1e-10), rank_ceiling=64),
               self.check_rotation),
            Op("spectrum", call("spectrum_study", [8, 12, 16, 20], tight), self.check_spectrum),
            Op("converge-spectrum", call("spectrum_convergence_study", [6, 10, 14], 20, tight),
               self.check_converging),
            Op("converge-tensor", call("tensor_convergence_study", [6, 10, 14], 20, tight),
               self.check_converging),
        ]

    # criterion 1: compiled operators equal the dense transform
    def run_dense_agreement(self):
        policy = TruncationPolicy(1e-14)
        return {
            n: np.asarray(circuits.compile_to_mpo(
                circuits.nearest_neighbor_qft_circuit(n), policy).to_dense())
            for n in range(2, 11)
        }

    def check_dense_agreement(self, dense) -> None:
        worst = max(float(np.max(np.abs(mat - dense_fourier(n)))) for n, mat in dense.items())
        require(worst <= 1e-9, f"dense agreement error {worst:.2e}")

    # criterion 2: operator entanglement strengths
    def run_entanglement(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        op = circuits.compile_to_mpo(circuits.nearest_neighbor_qft_circuit(30),
                                     TruncationPolicy(1e-14))
        return {
            "op": op,
            "qft": op.schmidt_strength(),
            "cnot": mpo_module.from_dense_operator(cnot).schmidt_strength(),
            "swap": mpo_module.from_dense_operator(swap).schmidt_strength(),
        }

    def check_entanglement(self, out) -> None:
        require(abs(out["qft"] - 0.8208) <= 0.01, f"transform strength {out['qft']:.6f}")
        require(abs(out["cnot"] - 1.0) <= 1e-6, f"cnot strength {out['cnot']:.9f}")
        require(abs(out["swap"] - 2.0) <= 1e-6, f"swap strength {out['swap']:.9f}")
        sites, bonds = _chain_arrays(out["op"].site_tensors, out["op"].gamma_vectors)
        check_fourier_operator(sites, bonds, self.pairs30, 1e-9)

    # criterion 3: trace error decays at least a decade per rank
    def check_hs_error(self, study) -> None:
        slopes = study.metadata["slopes"]
        require(len(slopes) == 4 and all(s <= -1.0 for s in slopes.values()),
                f"decay slopes {slopes}")
        rank8 = [row["hs_error"] for row in study.rows if row["rank"] == 8]
        require(len(rank8) == 4 and max(rank8) < 1e-12, f"rank-8 errors {rank8}")

    # criterion 4: periodic peaks, against the closed form as well
    def check_periodic(self, study) -> None:
        require(len(study.rows) == 28, f"{len(study.rows)} periodic rows")
        for row in study.rows:
            n, r = row["n"], row["period"]
            require(row["max_peak_error"] <= 1e-10, f"n={n} r={r}: {row['max_peak_error']:.2e}")
            exact = sum(periodic_peak_probability(n, r, m) for m in peak_locations(n, r))
            require(abs(row["peak_prob_sim"] - exact) <= r * 1e-10,
                    f"n={n} r={r}: captured peak probability {row['peak_prob_sim']} vs {exact}")

    # criterion 5: approximate-transform rank growth
    def check_aqft(self, study) -> None:
        full = study.metadata["full_qft_ranks"]["12"]
        per_b = {row["bandwidth"]: (row["max_bond_rank"], row["saturated"]) for row in study.rows}
        require(len(per_b) == 7 and all(rank > full for rank, _ in per_b.values()),
                f"ranks {per_b} vs full {full}")
        window = sorted(analysis.doubling_window(per_b))
        require(len(window) >= 2, f"doubling window {window}")
        slope = float(np.polyfit(window, [math.log2(per_b[b][0]) for b in window], 1)[0])
        require(abs(slope - 1.0) <= 0.3, f"doubling slope {slope:.2f}")

    # criterion 6: bit reversal is an optimal ordering
    def check_ordering(self, study) -> None:
        meta = study.metadata
        require(meta["bit_reversal"] in meta["optimal_permutations"], "bit reversal not optimal")
        require(len(study.rows) == 120, f"{len(study.rows)} permutations scanned")

    # criterion 8: rotation-law contrasts
    def check_rotation(self, study) -> None:
        rows = {row["scheme"]: row for row in study.rows}
        require(len(rows) == 4, f"schemes {sorted(rows)}")
        std, base3, power, perturbed = (rows[label] for label in
                                        ("standard", "base-n:3", "power-law:2",
                                         "perturbed-exponent:0.1:7"))
        require(base3["tail_slope"] < std["tail_slope"], "base-3 spectrum not steeper")
        require(power["max_bond_rank"] > std["max_bond_rank"], "power-law rank not larger")
        require(perturbed["max_bond_rank"] > std["max_bond_rank"], "perturbed rank not larger")

    def check_spectrum(self, study) -> None:
        for n in (8, 12, 16, 20):
            total = sum(row["probability"] for row in study.rows if row["n"] == n)
            require(abs(total - 1.0) <= 1e-9, f"n={n}: spectrum sums to {total}")

    def check_converging(self, study) -> None:
        diffs = [row["mean_abs_diff"] for row in study.rows]
        require(len(diffs) == 3 and diffs[0] > diffs[1] > diffs[2],
                f"distances to the reference do not shrink: {diffs}")

    def headline(self, durations, pass_seconds):
        return {"study_s": (median(pass_seconds), "s", len(pass_seconds))}


WORKLOADS = {w.name: w for w in (BuildNN32, ApplyN20, StudySuite)}


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_quantile(values: list[float], q: float) -> float:
    """The q-quantile, lowered to the highest quantile that still has ten
    samples beyond it (never below the median), so a short sample's tail
    figure is not its single slowest value."""
    n = len(values)
    supported = 1.0 - 10.0 / n if n else 0.5
    return quantile(values, max(0.5, min(q, supported)))
