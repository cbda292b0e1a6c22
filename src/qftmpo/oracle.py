"""Dense reference implementations used to validate the tensor-network code.

Everything here but the periodic peak probabilities, which are a closed
form at any width, materializes full state vectors or matrices, so sizes
are capped (override with QFTMPO_DENSE_LIMIT); dense results are read-only
arrays (`tensor.frozen_array`). Phases are reduced with exact integer
arithmetic before exponentiation so reference values stay accurate to
machine precision at every supported size.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import _svd_matrix, check_dense_size, frozen_array

DENSE_ORACLE_LIMIT = 14
PERIODIC_ORACLE_LIMIT = 24


def _check_qubits(n: int, default_cap: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    check_dense_size(n, default_cap, what)


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index permutation that reverses the n-bit binary expansion."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rev = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        rev |= ((np.arange(2**n, dtype=np.int64) >> bit) & 1) << (n - 1 - bit)
    return rev


def dense_qft_matrix(n: int) -> np.ndarray:
    """Fourier matrix F[j, k] = exp(2*pi*i*j*k / 2^n) / 2^(n/2).

    The compiled nearest-neighbour circuit takes its input bit-reversed:
    compare it with ``dense_qft_matrix(n)[:, bit_reversal_permutation(n)]``.
    """
    _check_qubits(n, DENSE_ORACLE_LIMIT, "dense_qft_matrix")
    size = 2**n
    out = np.empty((size, size), dtype=np.complex128)
    cols = np.arange(size, dtype=np.int64)
    step = 512
    for start in range(0, size, step):
        rows = np.arange(start, min(start + step, size), dtype=np.int64)
        # exact residue keeps the phase argument small at any size
        phase = (rows[:, None] * cols[None, :]) % size
        out[start : start + len(rows)] = np.exp((2j * np.pi / size) * phase)
    out /= math.sqrt(size)
    return frozen_array(out)


def dense_operator_schmidt(matrix, cut: int) -> np.ndarray:
    """Singular values of an operator split at ``cut`` qubits from the left.

    The row/column indices are regrouped so left in/out legs form the rows;
    the returned values are the operator Schmidt coefficients across that
    cut (descending, unnormalized).
    """
    mat = np.asarray(matrix)
    size = mat.shape[0]
    if mat.shape != (size, size) or size & (size - 1):
        raise ValueError(f"expected a square power-of-two matrix, got {mat.shape}")
    n = size.bit_length() - 1
    if not 1 <= cut < n:
        raise ValueError(f"cut must lie in [1, {n - 1}], got {cut}")
    left, right = 2**cut, 2 ** (n - cut)
    work = mat.reshape(left, right, left, right).transpose(0, 2, 1, 3)
    work = work.reshape(left * left, right * right)
    return _svd_matrix(work, compute_uv=False)


def _apply_gate_dense(arr: np.ndarray, mat: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """Apply a 2x2 or 4x4 gate to the given qubit axes of ``arr``.

    ``arr`` may carry extra trailing axes (a matrix being evolved); only the
    leading qubit axes are addressed.
    """
    if len(sites) == 1:
        out = np.tensordot(mat, arr, axes=(1, sites[0]))
        return np.moveaxis(out, 0, sites[0])
    g = mat.reshape(2, 2, 2, 2)
    out = np.tensordot(g, arr, axes=((2, 3), sites))
    return np.moveaxis(out, (0, 1), sites)


def _evolve_axes(arr: np.ndarray, circuit) -> np.ndarray:
    """Shared gate loop: side="both" gates contribute their adjoint as a
    pre-multiplication (applied in reverse encounter order), then every
    gate's left factor applies in circuit order."""
    for gate in reversed([g for g in circuit.gates if g.side == "both"]):
        arr = _apply_gate_dense(arr, gate.dense_matrix().conj().T, gate.sites)
    for gate in circuit.gates:
        arr = _apply_gate_dense(arr, gate.dense_matrix(), gate.sites)
    return arr


def dense_evolve(vector, circuit) -> np.ndarray:
    """Evolve a dense state vector under a circuit.

    side="output" gates multiply in circuit order. side="both" gates are
    conjugations O -> G O G^dag, so the compiled operator picks up their
    adjoints on the input side; evolving a vector therefore pre-applies
    those adjoints (in reverse order) before the left factors. Applying a
    nearest-neighbour transform this way reproduces its compiled operator
    acting on the vector.
    """
    vec = np.asarray(vector)
    vec = vec.reshape(-1).astype(np.complex128)
    size = vec.shape[0]
    if size & (size - 1) or size < 2:
        raise ValueError(f"state length must be a power of two >= 2, got {size}")
    n = size.bit_length() - 1
    if n != circuit.n_qubits:
        raise ValueError(f"state has {n} qubits but circuit has {circuit.n_qubits}")
    _check_qubits(n, DENSE_ORACLE_LIMIT, "dense_evolve")
    arr = _evolve_axes(vec.reshape((2,) * n), circuit)
    return frozen_array(arr.reshape(size))


def dense_circuit_matrix(circuit) -> np.ndarray:
    """Full matrix of a circuit, including both-sides conjugation effects."""
    n = circuit.n_qubits
    _check_qubits(n, DENSE_ORACLE_LIMIT, "dense_circuit_matrix")
    size = 2**n
    arr = np.eye(size, dtype=np.complex128).reshape((2,) * n + (size,))
    arr = _evolve_axes(arr, circuit)
    return frozen_array(arr.reshape(size, size))


# ---------------------------------------------------------------- #
# periodic-state references
# ---------------------------------------------------------------- #

def periodic_support_count(n_qubits: int, period: int, offset: int = 0) -> int:
    """Number of basis states x < 2^n with x = offset (mod period)."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not 0 <= offset < period:
        raise ValueError(f"offset must lie in [0, {period}), got {offset}")
    return (2**n_qubits - 1 - offset) // period + 1


def periodic_peak_locations(n_qubits: int, period: int) -> list[int]:
    """Output indices nearest i * 2^n / period for i = 0..period-1.

    Rounding is exact integer arithmetic, in Python integers, so any width
    works; half-way cases round down.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    size = 2**n_qubits
    locs = []
    for i in range(period):
        q, rem = divmod(i * size, period)
        locs.append(q + (1 if 2 * rem > period else 0))
    return locs


def periodic_peak_probabilities(n_qubits: int, period: int, offset: int = 0) -> dict[int, float]:
    """Exact output probabilities at the peak locations after a Fourier
    transform of the uniform periodic state, at any width.

    The amplitude at m is a geometric series over the c support points,
    so with S = 2^n and q = m * period mod S,
    p = (sin(pi (c q mod S) / S) / (S sin(pi q / S)))^2 * S / c, and
    p = c / S where q = 0. Both sine arguments are reduced in integers to
    at most pi/2, and S scales the small sine before anything is squared,
    so the values stay reliable references down to 1e-15 where S itself
    is near the float range (n = 1023).
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if period >= 2**n_qubits:
        raise ValueError(f"period {period} needs at least one support point below 2^{n_qubits}")
    count = periodic_support_count(n_qubits, period, offset)
    size = 2**n_qubits

    def sin_pi(a: int) -> float:  # |sin(pi a / size)|
        return math.sin(math.pi * (min(a, size - a) / size))

    probs: dict[int, float] = {}
    for m in periodic_peak_locations(n_qubits, period):
        q = (m * period) % size
        if q == 0:
            probs[m] = count / size
        else:
            ratio = sin_pi((count * q) % size) / math.ldexp(sin_pi(q), n_qubits)
            probs[m] = ratio * ratio * (size / count)
    return probs


def periodic_output_distribution(n_qubits: int, period: int, offset: int = 0) -> np.ndarray:
    """Full output distribution of the transformed periodic state, via FFT.

    Independent cross-check for the closed form of
    `periodic_peak_probabilities`; costs a dense 2^n vector, so it alone
    keeps PERIODIC_ORACLE_LIMIT.
    """
    _check_qubits(n_qubits, PERIODIC_ORACLE_LIMIT, "periodic_output_distribution")
    if period >= 2**n_qubits:
        raise ValueError(f"period {period} needs at least one support point below 2^{n_qubits}")
    size = 2**n_qubits
    count = periodic_support_count(n_qubits, period, offset)
    psi = np.zeros(size, dtype=np.complex128)
    psi[offset::period] = 1.0 / math.sqrt(count)
    # ifft carries the e^{+2 pi i k x / N} convention used here
    amps = np.fft.ifft(psi) * math.sqrt(size)
    return np.abs(amps) ** 2
