"""Numerical studies: spectra, convergence, truncation error, and scaling.

Each study returns a StudyResult with tabular rows plus metadata, writable
as CSV (leading ``#`` comment lines carry the metadata) or JSON. Studies
that assert trends raise NumericalError when the data contradicts the
expected behaviour; `aqft_rank_study` takes check=False to collect the
numbers regardless.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from ._canonical import bonds_around
from .circuits import RotationScheme, cascade_operator, check_rank_ceiling
from .errors import NumericalError
from .mpo import fourier_mpo, hs_inner
from .mps import CanonicalMps
from .oracle import (
    dense_operator_schmidt,
    dense_qft_matrix,
    periodic_peak_locations,
    periodic_peak_probabilities,
)
from .tensor import TruncationPolicy

# squared weights at or below ~(100 x double-precision floor)^2 carry no
# information; trend fits ignore them
WEIGHT_FLOOR = 1e-24

DEFAULT_COMPILE_POLICY = TruncationPolicy(rel_cutoff=1e-14)


def middle_bond(n: int) -> int:
    """Central bond index of an n-site chain (left of the middle site)."""
    if n < 2:
        raise ValueError(f"n = {n} has no middle bond: at least 2 qubits are needed")
    return (n - 1) // 2


@functools.cache
def _git_describe() -> str:
    """``git describe`` of the checkout holding this package, whatever the
    caller's working directory; "unknown" outside a checkout. Run once per
    process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# the BLAS thread settings a study's timings and bits may depend on
_BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _base_metadata(policy: TruncationPolicy, **extra) -> dict:
    """What every study records: the code, numpy and Python versions, the
    BLAS thread variables (None when unset), precision and policy."""
    meta = {
        "code_version": _git_describe(),
        "numpy_version": np.__version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        **{name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "precision": "float64",
        "rel_cutoff": policy.rel_cutoff,
        "max_rank": policy.max_rank,
    }
    meta.update(extra)
    return meta


@dataclass(eq=False)
class StudyResult:
    """Tabular study output: named rows plus run metadata."""

    study: str
    metadata: dict
    rows: list[dict]
    schema_version = 1  # not annotated: a class constant, not a constructor field

    def to_json(self, path=None) -> str:
        doc = {
            "study": self.study,
            "schema_version": self.schema_version,
            "metadata": self.metadata,
            "rows": self.rows,
        }
        text = json.dumps(doc, indent=2, default=_json_default)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path=None) -> str:
        lines = [f"# study: {self.study}", f"# schema_version: {self.schema_version}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {json.dumps(self.metadata[key], default=_json_default)}")
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines.append(",".join(columns))
        for row in self.rows:
            lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------- #
# trend fitting
# ---------------------------------------------------------------- #

def significant_weights(p: np.ndarray) -> np.ndarray:
    """Mask of entries above WEIGHT_FLOOR.

    Falls back to everything positive when fewer than three entries
    survive, so short clean spectra still fit.
    """
    p = np.asarray(p, dtype=float)
    mask = p > WEIGHT_FLOOR
    if mask.sum() < 3:
        mask = p > 0
    return mask


def loglinear_slope(x, y) -> float:
    """Least-squares slope of log10(y) against x (y must be positive)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points for a slope")
    if np.any(y <= 0):
        raise ValueError("log-linear fit needs positive values")
    return float(np.polyfit(x, np.log10(y), 1)[0])


def spectrum_tail_slope(p: np.ndarray) -> float:
    """Decay rate (decades per rank) of a bond probability spectrum."""
    p = np.asarray(p, dtype=float)
    mask = significant_weights(p)
    idx = np.flatnonzero(mask)
    if len(idx) < 2:
        return float("nan")
    return loglinear_slope(idx, p[idx])


# ---------------------------------------------------------------- #
# spectra and convergence
# ---------------------------------------------------------------- #

def spectrum_study(n_list, policy: TruncationPolicy | None = None) -> StudyResult:
    """Middle-bond probability spectra of the transform (`fourier_mpo`).

    Rows hold (n, bond, rank_index, probability); metadata records the
    fitted tail slope per size. The exponential decay is asserted (slope
    at most -0.5 decades per rank).
    """
    policy = policy or DEFAULT_COMPILE_POLICY
    rows = []
    slopes = {}
    for n in n_list:
        mpo = fourier_mpo(n, policy)
        bond = middle_bond(n)
        p = mpo.bond_probability_distribution(bond)
        slope = spectrum_tail_slope(p)
        slopes[str(n)] = slope
        if not slope <= -0.5:
            raise NumericalError(
                f"middle-bond spectrum at n={n} decays at {slope:.2f} decades/rank; "
                f"expected exponential falloff"
            )
        for i, val in enumerate(p):
            rows.append({"n": n, "bond": bond, "rank_index": i, "probability": float(val)})
    meta = _base_metadata(policy, tail_slopes=slopes)
    return StudyResult("spectrum", meta, rows)


def _convergence_study(study: str, n_list, n_ref: int, policy: TruncationPolicy,
                       distance) -> StudyResult:
    """Rows of ``distance(fourier_mpo(n), reference)`` for each n in
    ``n_list``, against the larger reference size ``n_ref``."""
    n_list = list(n_list)
    for n in (*n_list, n_ref):  # a size without a middle bond is refused before any is built
        middle_bond(n)
    if n_list and n_ref <= max(n_list):
        raise ValueError(f"n_ref ({n_ref}) must exceed the largest size in n_list "
                         f"({max(n_list)})")
    ref = fourier_mpo(n_ref, policy)
    rows = [{"n": n, "n_ref": n_ref, "mean_abs_diff": distance(fourier_mpo(n, policy), ref)}
            for n in n_list]
    return StudyResult(study, _base_metadata(policy, n_ref=n_ref), rows)


def _spectrum_distance(mpo_a, mpo_b) -> float:
    """Mean absolute difference of the middle-bond spectra, zero-padded to
    a common length."""
    p, q = (m.bond_probability_distribution(middle_bond(m.n_qubits)) for m in (mpo_a, mpo_b))
    width = max(len(p), len(q))
    return float(np.mean(np.abs(np.pad(p, (0, width - len(p))) - np.pad(q, (0, width - len(q))))))


def spectrum_convergence_study(n_list, n_ref: int,
                               policy: TruncationPolicy | None = None) -> StudyResult:
    """Distance between each middle-bond spectrum and a larger reference.

    Spectra are zero-padded to a common length; the row value is the mean
    absolute difference. Convergence with n shows the transform's middle
    acquires a size-independent structure.
    """
    return _convergence_study("spectrum-convergence", n_list, n_ref,
                              policy or DEFAULT_COMPILE_POLICY, _spectrum_distance)


def middle_tensor_difference(mpo_a, mpo_b) -> float:
    """Gauge-tolerant distance between the central site tensors.

    Each central tensor is compared bond-weighted, as lambda_l Gamma
    lambda_r with both bond vectors scaled to unit norm (the weighting of
    `_canonical.canonical_defect`): bare Gamma = W / lambda blows up the
    slices whose Schmidt value sits near the noise floor, and those would
    swamp the comparison. Bonds of the larger tensor are truncated to the
    smaller's dimensions; bond vectors are descending so the leading
    slices dominate. Returns the mean absolute difference over entries,
    relative to the largest entry of the first tensor.

    Entries are compared in absolute value. That removes the phase a
    canonical sweep leaves on each Schmidt vector, which is the whole gauge
    freedom of a bond whose Schmidt values are distinct. Where two values
    on a central bond agree to a relative 1e-8, any unitary mixes their
    vectors and no entrywise comparison is gauge-invariant; such a bond is
    a ValueError.
    """
    a = _weighted_middle(mpo_a)
    b = _weighted_middle(mpo_b)
    l = min(a.shape[0], b.shape[0])
    r = min(a.shape[3], b.shape[3])
    a = np.abs(a[:l, :, :, :r])
    b = np.abs(b[:l, :, :, :r])
    scale = float(np.max(a)) or 1.0
    return float(np.mean(np.abs(a - b))) / scale


def _weighted_middle(mpo) -> np.ndarray:
    """Central tensor with its unit-norm bond vectors folded in; a bond with
    two Schmidt values equal to a relative 1e-8 is a ValueError."""
    site = mpo.n_qubits // 2
    left, right = bonds_around(mpo.gamma_vectors, site, site)
    for bond in (left, right):
        if np.any(np.abs(np.diff(bond)) <= 1e-8 * bond[:-1]):
            raise ValueError(f"degenerate Schmidt values on a bond of central site {site}: "
                             f"the central tensor has no entrywise gauge")
    left = left / np.linalg.norm(left)
    right = right / np.linalg.norm(right)
    return mpo.middle_tensor() * left[:, None, None, None] * right[None, None, None, :]


def tensor_convergence_study(n_list, n_ref: int,
                             policy: TruncationPolicy | None = None) -> StudyResult:
    """Distance between each transform's central tensor and a
    larger reference's, under the gauge conventions of
    `middle_tensor_difference`."""
    return _convergence_study("tensor-convergence", n_list, n_ref,
                              policy or DEFAULT_COMPILE_POLICY, middle_tensor_difference)


# ---------------------------------------------------------------- #
# truncation error
# ---------------------------------------------------------------- #

def hs_error_study(n_list, rank_list, *,
                   policy: TruncationPolicy | None = None) -> StudyResult:
    """Normalized trace-inner-product error of rank-truncated transforms.

    For each size the transform is built at the base policy, truncated
    to each rank cap, and compared to the untruncated operator through
    1 - Re<truncated, full>. Metadata records per-size decay slopes over
    ranks 2..6 (decades per unit rank). The inner product is asserted to be
    real to 1e-9.

    The measure is quadratic in the error: where the truncated operator
    is within about 1e-8 of the full one it sits at rounding level: a few
    multiples of the double-precision epsilon, of either sign, so rows
    there can read negative.
    """
    policy = policy or DEFAULT_COMPILE_POLICY
    rows = []
    slopes = {}
    for n in n_list:
        full = fourier_mpo(n, policy)
        errs = {}
        for rank in rank_list:
            trunc = full.recanonicalize(TruncationPolicy(policy.rel_cutoff, int(rank)))
            val = hs_inner(trunc, full)
            if abs(val.imag) > 1e-9:
                raise NumericalError(
                    f"inner product has imaginary part {val.imag:.2e} at n={n} rank={rank}"
                )
            err = 1.0 - val.real
            errs[int(rank)] = err
            rows.append({"n": n, "rank": int(rank), "hs_error": float(err)})
        window = [(r, e) for r, e in errs.items() if 2 <= r <= 6 and e > WEIGHT_FLOOR]
        if len(window) >= 2:
            slopes[str(n)] = loglinear_slope([w[0] for w in window], [w[1] for w in window])
    meta = _base_metadata(policy, slopes=slopes)
    return StudyResult("hs-error", meta, rows)


# ---------------------------------------------------------------- #
# periodic-state transforms
# ---------------------------------------------------------------- #

def periodic_study(n_qubits_list, period_list, rank_list, *, offset: int = 0,
                   compile_policy: TruncationPolicy | None = None) -> StudyResult:
    """Transform periodic states and compare peak probabilities to the
    exact references.

    The rank caps apply to the operator only; the state side runs at the
    relative cutoff 1e-14 with no rank cap. Each input state is built once
    per (n, period) and reused across the rank caps. Rows carry the worst
    absolute peak probability error and the total probability captured by
    the peaks.
    """
    state_policy = TruncationPolicy(1e-14)
    compile_policy = compile_policy or DEFAULT_COMPILE_POLICY
    rows = []
    for n in n_qubits_list:
        full = fourier_mpo(n, compile_policy)
        locs = {r: periodic_peak_locations(n, r) for r in period_list}
        exact = {r: periodic_peak_probabilities(n, r, offset % r) for r in period_list}
        inputs = {r: CanonicalMps.from_periodic_state(n, r, offset % r).reverse_qubits()
                  for r in period_list}
        for rank in rank_list:
            mpo = full.recanonicalize(TruncationPolicy(compile_policy.rel_cutoff, int(rank)))
            for r in period_list:
                out = mpo.apply_to_mps(inputs[r], state_policy)
                worst = 0.0
                total_sim = 0.0
                total_exact = 0.0
                for m in locs[r]:
                    bits = tuple(int(b) for b in format(m, f"0{n}b"))
                    p_sim = abs(out.amplitude(bits)) ** 2
                    p_ref = exact[r][m]
                    worst = max(worst, abs(p_sim - p_ref))
                    total_sim += p_sim
                    total_exact += p_ref
                rows.append({
                    "n": n, "period": r, "rank": int(rank), "offset": offset % r,
                    "max_peak_error": float(worst),
                    "peak_prob_sim": float(total_sim),
                    "peak_prob_exact": float(total_exact),
                })
    meta = _base_metadata(compile_policy, state_rel_cutoff=state_policy.rel_cutoff)
    return StudyResult("periodic", meta, rows)


# ---------------------------------------------------------------- #
# AQFT and rotation-scheme scans
# ---------------------------------------------------------------- #

def aqft_rank_study(n_list, bandwidth_list,
                    policy: TruncationPolicy | None = None, *,
                    rank_ceiling: int = 64,
                    check: bool = True) -> StudyResult:
    """Maximum bond rank of approximate transforms.

    Bandwidth is the highest retained rotation order. Each row's operator
    and saturation come from `circuits.cascade_operator` under
    ``rank_ceiling``; saturated rows report ceiling + 1 as a lower bound
    with saturated=true. Metadata records the full transform's rank per
    size (`fourier_mpo`), read off the row of bandwidth n when there is an
    unsaturated one. With check=True the growth-regime trends are
    asserted: every studied bandwidth below n exceeds the full transform's
    rank, and the rank roughly doubles per unit bandwidth before leveling
    off.
    """
    policy = policy or TruncationPolicy(1e-10)
    check_rank_ceiling(rank_ceiling)
    rows = []
    full_ranks = {}
    for n in n_list:
        full = None
        per_b = {}
        for b in map(int, bandwidth_list):
            _, trace = cascade_operator(n, policy, bandwidth=b, rank_ceiling=rank_ceiling)
            if b == n:  # the transform's bulk tensor
                full = trace.mpo
            rank = rank_ceiling + 1 if trace.saturated else trace.mpo.max_bond_rank
            per_b[b] = (rank, trace.saturated)
            rows.append({"n": n, "bandwidth": b, "max_bond_rank": rank,
                         "saturated": trace.saturated})
        full_rank = (full or fourier_mpo(n, policy)).max_bond_rank
        full_ranks[str(n)] = full_rank
        if check:
            _check_aqft_trends(n, per_b, full_rank)
    meta = _base_metadata(policy, rank_ceiling=rank_ceiling, full_qft_ranks=full_ranks)
    return StudyResult("aqft-rank", meta, rows)


def _check_aqft_trends(n, per_b, full_rank):
    for b, (rank, _) in per_b.items():
        if b < n and rank <= full_rank:
            raise NumericalError(
                f"bandwidth {b} at n={n} gives rank {rank}, not above the full "
                f"transform's {full_rank}; below the growth regime the "
                f"approximate transform is genuinely low-rank"
            )
    window = doubling_window(per_b)
    if len(window) >= 3:
        bs = sorted(window)
        logs = [math.log2(per_b[b][0]) for b in bs]
        slope = float(np.polyfit(bs, logs, 1)[0])
        if not 0.7 <= slope <= 1.3:
            raise NumericalError(
                f"pre-leveling rank growth at n={n} is {slope:.2f} doublings per "
                f"unit bandwidth, outside [0.7, 1.3]"
            )


def doubling_window(per_b: dict) -> list:
    """Bandwidths in the initial growth regime: consecutive studied values
    whose rank keeps increasing by at least half a doubling."""
    bs = sorted(b for b in per_b)
    window = []
    for i in range(len(bs) - 1):
        b0, b1 = bs[i], bs[i + 1]
        r0, _ = per_b[b0]
        r1, sat = per_b[b1]
        if r1 >= r0 * 2 ** (0.5 * (b1 - b0)) and not sat:
            if not window:
                window.append(b0)
            window.append(b1)
        elif window:
            break
    return window


def rotation_scheme_study(n_list, schemes,
                          policy: TruncationPolicy | None = None, *,
                          rank_ceiling: int = 64) -> StudyResult:
    """Bond ranks and middle-bond decay rates for modified rotation rules.

    Each scheme replaces the controlled-phase angle law of the cascade.
    Each row's operator and saturation come from
    `circuits.cascade_operator` under ``rank_ceiling``; saturated rows
    report rank_ceiling + 1 as a lower bound and no tail slope, as do rows
    whose middle bond keeps too few weights for a tail (rank 1).
    """
    policy = policy or TruncationPolicy(1e-10)
    check_rank_ceiling(rank_ceiling)
    if isinstance(schemes, (str, RotationScheme)):
        schemes = [schemes]
    schemes = [RotationScheme.parse(s) if isinstance(s, str) else s for s in schemes]
    rows = []
    for n in n_list:
        for scheme in schemes:
            _, trace = cascade_operator(n, policy, scheme=scheme, rank_ceiling=rank_ceiling)
            mpo = trace.mpo
            slope = math.nan if mpo is None else spectrum_tail_slope(
                mpo.bond_probability_distribution(middle_bond(n)))
            rows.append({
                "n": n, "scheme": scheme.label(),
                "max_bond_rank": rank_ceiling + 1 if mpo is None else mpo.max_bond_rank,
                "saturated": trace.saturated,
                "tail_slope": None if math.isnan(slope) else slope,
            })
    meta = _base_metadata(policy, rank_ceiling=rank_ceiling,
                          schemes=[s.label() for s in schemes])
    return StudyResult("rotation-scheme", meta, rows)


# ---------------------------------------------------------------- #
# qubit-ordering scan
# ---------------------------------------------------------------- #

def ordering_study(n: int) -> StudyResult:
    """Operator Schmidt ranks of the transform under every output
    relabeling of the input register.

    For each permutation sigma the dense transform's columns are permuted
    (input x enters as sigma applied to its bits) and the maximum Schmidt
    rank over all contiguous cuts, counting singular values at or above
    1e-10 of the largest, is recorded. Exhaustive over n!
    permutations, so n is capped at 8.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"exhaustive ordering scan supports 2 <= n <= 8, got {n}")
    f = dense_qft_matrix(n)
    size = 2**n
    x = np.arange(size, dtype=np.int64)
    bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]

    rows = []
    best = None
    optimal = []
    reversal = tuple(range(n - 1, -1, -1))
    for sigma in permutations(range(n)):
        idx = np.zeros(size, dtype=np.int64)
        for i in range(n):
            idx |= bits[sigma[i]] << (n - 1 - i)
        mat = f[:, idx]
        worst = 0
        for cut in range(1, n):
            s = dense_operator_schmidt(mat, cut)
            rank = int(np.sum(s >= 1e-10 * s[0]))
            worst = max(worst, rank)
        label = "-".join(str(i) for i in sigma)
        rows.append({"permutation": label, "max_schmidt_rank": worst})
        if best is None or worst < best:
            best = worst
            optimal = [label]
        elif worst == best:
            optimal.append(label)
    meta = _base_metadata(TruncationPolicy(1e-10), n=n,
                          minimum_rank=best, optimal_permutations=optimal,
                          bit_reversal="-".join(str(i) for i in reversal))
    return StudyResult("ordering", meta, rows)


# ---------------------------------------------------------------- #
# runtime scaling
# ---------------------------------------------------------------- #

def scaling_benchmark(n_list, *, max_rank: int = 16,
                      rel_cutoff: float = 1e-14, repeats: int = 3) -> StudyResult:
    """Wall-clock cost of applying the rank-capped transform to a product
    state, with a log-log exponent fit in the metadata.

    Building the operator (`fourier_mpo`) is excluded from the timing;
    each size reports the best of ``repeats`` runs.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    compile_policy = TruncationPolicy(rel_cutoff, max_rank)
    apply_policy = TruncationPolicy(rel_cutoff)
    rows = []
    for n in n_list:
        mpo = fourier_mpo(n, compile_policy)
        state = CanonicalMps.from_basis_state(n, (0,) * n)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = mpo.apply_to_mps(state, apply_policy)
            best = min(best, time.perf_counter() - t0)
        rows.append({
            "n": n, "seconds": float(best),
            "mpo_max_rank": mpo.max_bond_rank,
            "state_max_rank": max(out.bond_ranks) if out.bond_ranks else 1,
        })
    ns = np.array([row["n"] for row in rows], dtype=float)
    ts = np.array([row["seconds"] for row in rows], dtype=float)
    exponent = float(np.polyfit(np.log(ns), np.log(ts), 1)[0]) if len(rows) >= 2 else None
    meta = _base_metadata(compile_policy, repeats=repeats, fitted_exponent=exponent)
    return StudyResult("bench-scaling", meta, rows)
