"""Self-test of the benchmark's checks and accounting.

Run from the repository root:

    python3 perfbench/selftest.py

Small versions of the three workloads go through the benchmark's own
runner twice: as they are, where every operation must pass, and with each
operation's output deliberately corrupted, where every operation must count
as failed. A traced pass must also restore every name it wrapped and its
layer self times must add up to the pass time. Exits non-zero on any
violation.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

run.import_package()

import numpy as np  # noqa: E402

import qftmpo.cli as cli  # noqa: E402
import qftmpo.mpo as mpo_module  # noqa: E402
import qftmpo.mps as mps_module  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402


class SmallBuild(workloads.BuildNN32):
    N = 12


class SmallApply(workloads.ApplyN20):
    N = 10
    BITS_COMMANDS = 3
    PERIODS = (3, 5)


def _rephase_site(chain, site: int):
    """Multiply one site tensor of a chain by a phase: a wrong, still canonical chain."""
    sites = [np.asarray(t) for t in chain[0]]
    sites[site] = sites[site] * np.exp(0.5j)
    return sites, list(chain[1])


def corrupt(workload, kind, output):
    """Damage an operation's output the way a wrong program would."""
    if kind == "build":
        op = mpo_module.load_mpo(workload.out)
        sites, bonds = _rephase_site((op.site_tensors, op.gamma_vectors), 1)
        fingerprint = cli.circuit_fingerprint(cli.nearest_neighbor_qft_circuit(workload.N))
        mpo_module.save_mpo(mpo_module.CanonicalMpo(tuple(sites), tuple(bonds)), workload.out,
                            circuit_fingerprint=fingerprint)
    elif kind == "bits":
        state = mps_module.load_mps(workload.state_path)
        sites, bonds = _rephase_site((state.gammas, state.lambdas), 2)
        mps_module.save_mps(mps_module.CanonicalMps(tuple(sites), tuple(bonds)),
                            workload.state_path)
    elif kind == "periodic":
        lines = output.stdout.strip().splitlines()
        report = json.loads(lines[-1])
        first = next(iter(report["peak_probabilities"]))
        report["peak_probabilities"][first] += 1e-6
        output.stdout = json.dumps(report) + "\n"
    elif kind == "criterion-1":
        output[10] = output[10].copy()
        output[10][3, 5] *= -1.0
    elif kind == "criterion-2":
        output["qft"] += 0.05
    elif kind == "hs-error":
        for row in output.rows:
            if row["rank"] == 8:
                row["hs_error"] = 1e-9
    elif kind in ("periodic-peaks", "spectrum"):
        key = "peak_prob_sim" if kind == "periodic-peaks" else "probability"
        output.rows[0][key] += 1e-6
    elif kind == "aqft-scan":
        for row in output.rows:
            row["max_bond_rank"] = 1
    elif kind == "ordering-scan":
        output.metadata["optimal_permutations"] = ["0-1-2-3-4"]
    elif kind == "rotation-scan":
        output.rows[2]["max_bond_rank"] = 1
    elif kind in ("converge-spectrum", "converge-tensor"):
        output.rows[2]["mean_abs_diff"] = 2 * output.rows[0]["mean_abs_diff"]
    else:
        raise KeyError(f"no corruption defined for {kind}")
    return output


class Corrupted:
    """A workload whose every operation returns damaged output; counts the
    operations whose check, not something else, rejected it."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.rejected = 0

    def ops(self, index):
        return [workloads.Op(op.kind, lambda op=op: corrupt(self.inner, op.kind, op.run()),
                             lambda output, op=op: self._check(op, output))
                for op in self.inner.ops(index)]

    def _check(self, op, output):
        try:
            op.check(output)
        except CheckFailed:
            self.rejected += 1
            raise


def main() -> int:
    problems = []
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for cls in (SmallBuild, SmallApply, workloads.StudySuite):
            workload = cls(7, work)
            workload.setup()
            clean = run.measure(workload, 0.0, None)
            if clean.failed:
                problems.append(f"{workload.name}: {clean.failed} clean operations failed")
            corrupted = Corrupted(workload)
            damaged = run.measure(corrupted, 0.0, None)
            if not damaged.failed == corrupted.rejected == damaged.attempted:
                problems.append(f"{workload.name}: of {damaged.attempted} corrupted operations "
                                f"{damaged.failed} counted as failed, {corrupted.rejected} "
                                f"rejected by their check")
            print(f"{workload.name}: clean {clean.attempted - clean.failed}/{clean.attempted} "
                  f"passed, corrupted {damaged.failed}/{damaged.attempted} failed")

        before = [np.linalg.svd, np.linalg.qr, cli.main, dict(vars(mpo_module.CanonicalMpo))]
        tracer = Tracer()
        workload = SmallBuild(7, work)
        workload.setup()
        traced = run.measure(workload, 0.0, tracer)
        after = [np.linalg.svd, np.linalg.qr, cli.main, dict(vars(mpo_module.CanonicalMpo))]
        if any(a is not b for a, b in zip(after[:3], before[:3])) or after[3] != before[3]:
            problems.append("tracer left wrapped names behind")
        self_sum = tracer.layer_metrics(len(traced.traced_pass_seconds))["trace.self_sum_s"]
        pass_s = sum(traced.traced_pass_seconds) / len(traced.traced_pass_seconds)
        if abs(self_sum - pass_s) > 1e-3 * pass_s:
            problems.append(f"layer self times sum to {self_sum}, traced pass took {pass_s}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
