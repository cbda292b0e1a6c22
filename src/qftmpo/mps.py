"""Matrix product states for qubit chains, stored in canonical form.

Storage convention: per-site tensors ``gammas[j]`` with legs
(left bond, physical, right bond) and one non-negative vector per bond
holding the Schmidt coefficients of the state across that bond, sorted
non-increasing with unit 2-norm. Both are read-only numpy arrays
(complex128 sites, float64 bonds) that the constructor copies. Site 0 is
the most significant qubit of basis-index bookkeeping, so ``to_dense``
lays amplitudes out in plain binary order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _canonical
from .errors import DimensionMismatchError
from .tensor import TruncationPolicy, check_dense_size, frozen_array

DENSE_STATE_LIMIT = 20  # qubits; override with QFTMPO_DENSE_LIMIT


def parse_bits(bits, n: int) -> tuple[int, ...]:
    """n bits from a string of ASCII "0" and "1" characters or a sequence
    of 0/1 integers; a wrong length or any other value is a ValueError
    quoting ``bits``."""
    if isinstance(bits, str):
        vals = tuple("01".find(ch) for ch in bits)  # -1 for any other character
    else:
        vals = tuple(int(b) for b in bits)
    if len(vals) != n or any(b not in (0, 1) for b in vals):
        raise ValueError(f"need {n} bits of 0/1, got {bits!r}")
    return vals


@dataclass(frozen=True, eq=False)
class CanonicalMps:
    """A normalized qubit chain in canonical form."""

    gammas: tuple[np.ndarray, ...]
    lambdas: tuple[np.ndarray, ...]

    def __post_init__(self):
        gammas = tuple(map(frozen_array, self.gammas))
        lambdas = _canonical.check_structure(gammas, self.lambdas, (2,))
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "lambdas", lambdas)

    # ---------------------------------------------------------------- #
    # constructors
    # ---------------------------------------------------------------- #

    @classmethod
    def from_basis_state(cls, n: int, bits) -> "CanonicalMps":
        """Product state |b_0 b_1 ... b_{n-1}>, site 0 most significant."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        gammas = tuple(np.eye(2)[b].reshape(1, 2, 1) for b in parse_bits(bits, n))
        return cls(gammas, (np.ones(1),) * (n - 1))

    @classmethod
    def from_periodic_state(cls, n_qubits: int, period: int, offset: int = 0) -> "CanonicalMps":
        """Uniform superposition of |offset + m*period> over all m that fit
        into n_qubits bits.

        Built from a residue automaton over the bits (most significant
        first), so the bond rank never exceeds ``period`` and no dense
        vector is materialized. The support count is
        floor((2^n - 1 - offset) / period) + 1.
        """
        if n_qubits < 1:
            raise ValueError(f"need n_qubits >= 1, got {n_qubits}")
        if not 1 <= period < 2**n_qubits:
            raise ValueError(f"period must lie in [1, 2^{n_qubits}), got {period}")
        if not 0 <= offset < period:
            raise ValueError(f"offset must lie in [0, period), got {offset}")
        # one transition tensor of the automaton tracking (partial value mod
        # period): step[rho, b, (2 rho + b) mod period] = 1
        rho = np.arange(period)[:, None]
        bit = np.arange(2)[None, :]
        step = np.zeros((period, 2, period), dtype=np.complex128)
        step[rho, bit, (2 * rho + bit) % period] = 1.0
        # the first site starts from residue 0; the last accepts the offset
        train = [step[:1]] + [step] * (n_qubits - 1)
        train[-1] = train[-1][..., offset:offset + 1]
        gammas, lambdas, _ = _canonical.canonicalize_train(
            train, TruncationPolicy(), normalize=True
        )
        return cls(tuple(gammas), tuple(lambdas))

    @classmethod
    def from_dense(cls, vec) -> "CanonicalMps":
        """Canonical form of a dense state vector (unit norm within 1e-8);
        only noise-floor Schmidt values are dropped."""
        arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
        n = int(math.log2(len(arr))) if len(arr) else 0
        if 2**n != len(arr):
            raise DimensionMismatchError(f"state length {len(arr)} is not a power of two")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state norm {norm} is not 1 within 1e-8")
        gammas, lambdas, _ = _canonical.canonicalize_train(
            _canonical.train_from_vector(arr, n, 2), TruncationPolicy(), normalize=True
        )
        return cls(tuple(gammas), tuple(lambdas))

    # ---------------------------------------------------------------- #
    # structure
    # ---------------------------------------------------------------- #

    @property
    def n_qubits(self) -> int:
        return len(self.gammas)

    @property
    def bond_ranks(self) -> tuple[int, ...]:
        return tuple(len(lam) for lam in self.lambdas)

    def reverse_qubits(self) -> "CanonicalMps":
        """Mirror the chain (qubit order reversed). Exact; ranks unchanged."""
        gammas = tuple(g.transpose(2, 1, 0) for g in reversed(self.gammas))
        return CanonicalMps(gammas, tuple(reversed(self.lambdas)))

    def canonical_defect(self) -> float:
        """Largest violation of the canonical conditions, bond-weighted
        (see `_canonical.canonical_defect`)."""
        return _canonical.canonical_defect(self.gammas, self.lambdas, normalize=True)

    def validate(self) -> None:
        """Check bond-vector normalization (to 1e-10) and isometry conditions
        (to 1e-8)."""
        _canonical.validate(self.gammas, self.lambdas, 1e-10, 1e-8, normalize=True)

    # ---------------------------------------------------------------- #
    # operations
    # ---------------------------------------------------------------- #

    def amplitude(self, bits) -> complex:
        """Amplitude of one computational basis state; cost O(n * rank^2)."""
        vals = parse_bits(bits, self.n_qubits)
        v = self.gammas[0][0, vals[0], :]
        for j in range(1, self.n_qubits):
            v = (v * self.lambdas[j - 1]) @ self.gammas[j][:, vals[j], :]
        return complex(v[0])

    def to_dense(self) -> np.ndarray:
        """Read-only dense amplitude vector (guarded by the dense-size limit)."""
        check_dense_size(self.n_qubits, DENSE_STATE_LIMIT, "dense state vector")
        return frozen_array(_canonical.vector_from_vidal(self.gammas, self.lambdas))


# ---------------------------------------------------------------- #
# serialization: binary container + JSON sidecar
# ---------------------------------------------------------------- #

def save_mps(state: CanonicalMps, path: str | Path, policy: TruncationPolicy | None = None) -> None:
    """Write the chain to ``path`` and a JSON summary to ``path + '.json'``."""
    _canonical.save_chain(path, "mps", state.gammas, state.lambdas, policy)


def load_mps(path: str | Path) -> CanonicalMps:
    gammas, lambdas = _canonical.load_chain(path, "mps")
    return CanonicalMps(tuple(gammas), tuple(lambdas))
