"""End-to-end acceptance checks.

Each test exercises one headline claim of the package and prints a single
PASS/FAIL line with the measured numbers (run with ``pytest -s`` to see
them on a green run). The whole module takes a few minutes; the scaling
benchmark dominates.
"""

import numpy as np
import pytest

from qftmpo.analysis import (
    aqft_rank_study,
    doubling_window,
    hs_error_study,
    ordering_study,
    periodic_study,
    rotation_scheme_study,
    scaling_benchmark,
)
from qftmpo.circuits import (
    RotationScheme,
    compile_to_mpo,
    nearest_neighbor_qft_circuit,
)
from qftmpo.mpo import from_dense_operator
from qftmpo.oracle import bit_reversal_permutation, dense_qft_matrix
from qftmpo.tensor import TruncationPolicy

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _report(num: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num} ({label}): {detail}", flush=True)
    return ok


def test_criterion_1_compiled_operator_matches_dense_transform():
    policy = TruncationPolicy(1e-14)
    worst = 0.0
    for n in range(2, 11):
        mpo = compile_to_mpo(nearest_neighbor_qft_circuit(n), policy)
        ref = dense_qft_matrix(n)[:, bit_reversal_permutation(n)]
        err = float(np.max(np.abs(mpo.to_dense() - ref)))
        worst = max(worst, err)
    ok = worst <= 1e-9
    assert _report(1, "dense agreement n=2..10", ok, f"max |diff| = {worst:.2e}")


def test_criterion_2_entanglement_strengths():
    mpo = compile_to_mpo(nearest_neighbor_qft_circuit(30), TruncationPolicy(1e-14))
    qft = mpo.schmidt_strength()
    cnot = from_dense_operator(CNOT).schmidt_strength()
    swap = from_dense_operator(SWAP).schmidt_strength()
    ok = abs(qft - 0.8208) <= 0.01 and abs(cnot - 1.0) <= 1e-6 and abs(swap - 2.0) <= 1e-6
    assert _report(
        2, "operator entanglement", ok,
        f"transform(n=30) = {qft:.6f} (want 0.8208 +/- 0.01), "
        f"cnot = {cnot:.9f}, swap = {swap:.9f}",
    )


def test_criterion_3_rank_truncation_error_decay():
    study = hs_error_study([8, 12, 16, 20], range(2, 11))
    errs = {(row["n"], row["rank"]): row["hs_error"] for row in study.rows}
    slopes = study.metadata["slopes"]
    ok = all(s <= -1.0 for s in slopes.values())
    rank8 = {n: errs[(n, 8)] for n in (8, 12, 16, 20)}
    ok = ok and all(e < 1e-12 for e in rank8.values())
    assert _report(
        3, "trace-error decay", ok,
        f"decades/rank = {{{', '.join(f'{k}: {v:.2f}' for k, v in slopes.items())}}}, "
        f"max rank-8 error = {max(rank8.values()):.2e}",
    )


def test_criterion_4_periodic_state_peaks():
    study = periodic_study([8, 10, 12, 14], [2, 3, 5, 7, 9, 12, 15], [16])
    worst = max(row["max_peak_error"] for row in study.rows)
    ok = worst <= 1e-10
    assert _report(
        4, "periodic peaks", ok,
        f"worst peak probability error over {len(study.rows)} cases = {worst:.2e}",
    )


def test_criterion_5_approximate_transform_rank_growth():
    study = aqft_rank_study([12], range(5, 12), TruncationPolicy(1e-10), rank_ceiling=64)
    full = study.metadata["full_qft_ranks"]["12"]
    per_b = {
        row["bandwidth"]: (row["max_bond_rank"], row["saturated"])
        for row in study.rows
    }
    above = all(rank > full for rank, _ in per_b.values())
    window = doubling_window(per_b)
    bs = sorted(window)
    slope = float(np.polyfit(bs, [np.log2(per_b[b][0]) for b in bs], 1)[0])
    ok = above and abs(slope - 1.0) <= 0.3
    ranks = ", ".join(f"{b}:{per_b[b][0]}" for b in sorted(per_b))
    assert _report(
        5, "bandwidth rank growth", ok,
        f"full rank {full}, per-bandwidth ranks {{{ranks}}}, "
        f"doubling slope {slope:.2f} over window {bs}",
    )


def test_criterion_6_bit_reversal_is_optimal_ordering():
    study = ordering_study(5)
    meta = study.metadata
    ok = meta["bit_reversal"] in meta["optimal_permutations"]
    assert _report(
        6, "ordering scan", ok,
        f"min max-rank {meta['minimum_rank']} attained by "
        f"{meta['optimal_permutations']}; bit reversal = {meta['bit_reversal']}",
    )


def test_criterion_7_apply_cost_scaling():
    study = scaling_benchmark([32, 64, 128, 256, 512], max_rank=16, repeats=2)
    exponent = study.metadata["fitted_exponent"]
    ok = exponent is not None and exponent <= 1.5
    times = ", ".join(f"{row['n']}:{row['seconds']:.3f}s" for row in study.rows)
    assert _report(
        7, "near-linear apply cost", ok,
        f"fitted exponent {exponent:.2f} (want <= 1.5); best-of-2 {{{times}}}",
    )


def test_criterion_8_rotation_law_contrasts():
    schemes = [
        RotationScheme("standard"),
        RotationScheme.parse("base-n:3"),
        RotationScheme.parse("power-law:2"),
        RotationScheme.parse("perturbed-exponent:0.1:7"),
    ]
    study = rotation_scheme_study([14], schemes, TruncationPolicy(1e-10), rank_ceiling=64)
    by_label = {row["scheme"]: row for row in study.rows}
    std = by_label[schemes[0].label()]
    base3 = by_label[schemes[1].label()]
    power = by_label[schemes[2].label()]
    perturbed = by_label[schemes[3].label()]
    steeper = base3["tail_slope"] < std["tail_slope"]
    bigger = (
        power["max_bond_rank"] > std["max_bond_rank"]
        and perturbed["max_bond_rank"] > std["max_bond_rank"]
    )
    ok = steeper and bigger
    assert _report(
        8, "rotation-law contrasts", ok,
        f"tail slopes std {std['tail_slope']:.2f} vs base-3 {base3['tail_slope']:.2f}; "
        f"max ranks std {std['max_bond_rank']}, power-law {power['max_bond_rank']}"
        f"{'+' if power['saturated'] else ''}, perturbed {perturbed['max_bond_rank']}"
        f"{'+' if perturbed['saturated'] else ''}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
