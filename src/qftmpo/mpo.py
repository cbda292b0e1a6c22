"""Matrix product operators on qubit chains, stored in canonical form.

Storage convention: per-site tensors with legs (left bond, output physical,
input physical, right bond) plus one non-negative vector per bond, all
read-only arrays the constructor copies. The bond vectors are kept
unnormalized: across every bond their squared sum equals the squared
Frobenius norm of the encoded operator, i.e. 2^n for an untruncated
n-qubit unitary, which caps n at MAX_OPERATOR_QUBITS. Dividing the squared
bond entries by 2^n gives the probability weights of the operator-Schmidt
decomposition across that bond.

Internally an operator chain is just a state chain with physical dimension
4 (output and input legs fused, output slower), so all canonical-form
machinery is shared with `CanonicalMps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _canonical
from .errors import DimensionMismatchError, NonAdjacentGateError
from .mps import CanonicalMps
from .tensor import DenseTensor, TruncationPolicy, check_dense_size, check_unitary, frozen_array

DENSE_OPERATOR_LIMIT = 12  # qubits; override with QFTMPO_DENSE_LIMIT
MAX_OPERATOR_QUBITS = 1023  # the squared norm 2^n of a unitary is still a finite double


def check_width(n: int) -> None:
    """Refuse an operator width outside 1..MAX_OPERATOR_QUBITS."""
    if not 1 <= n <= MAX_OPERATOR_QUBITS:
        raise ValueError(f"operator chains need 1 <= n <= {MAX_OPERATOR_QUBITS} "
                         f"(2^n must be a finite double), got {n}")


def _fused(site: np.ndarray) -> np.ndarray:
    """(l, 2, 2, r) -> (l, 4, r) with output leg slower."""
    shp = site.shape
    return site.reshape(shp[0], 4, shp[3])


def _unfused(site: np.ndarray) -> np.ndarray:
    shp = site.shape
    return site.reshape(shp[0], 2, 2, shp[2])


def pair_operator(gate: np.ndarray, side: str) -> np.ndarray:
    """Lift a two-qubit gate to the fused (output, input) legs of two sites.

    side="output" multiplies the gate onto the output legs only;
    side="both" also conjugates the input legs with the same gate, which is
    how bookkeeping swaps track the input ordering alongside the output.
    Returns legs (new1, new2, old1, old2) over the fused dimension 4.
    """
    g4 = gate.reshape(2, 2, 2, 2)
    if side == "output":
        eye = np.eye(2, dtype=np.complex128)
        p = np.einsum("aceg,bf,dh->abcdefgh", g4, eye, eye)
    elif side == "both":
        c4 = gate.conj().reshape(2, 2, 2, 2)
        p = np.einsum("aceg,bdfh->abcdefgh", g4, c4)
    else:
        raise ValueError(f"side must be 'output' or 'both', got {side!r}")
    return np.ascontiguousarray(p.reshape(4, 4, 4, 4))


def _single_site_apply(site: np.ndarray, gate: np.ndarray, side: str) -> np.ndarray:
    """One-qubit gate on a site tensor; exact, no bond is touched."""
    out = np.einsum("xi,lijr->lxjr", gate, site)
    if side == "both":
        out = np.einsum("yj,lijr->liyr", gate.conj(), out)
    elif side != "output":
        raise ValueError(f"side must be 'output' or 'both', got {side!r}")
    return out


def _absorb_pair(sites: list, gammas: list, j: int, pair_op: np.ndarray,
                 policy: TruncationPolicy, sketch=None) -> float:
    """In-place two-site absorption on raw arrays; returns discarded weight.

    ``pair_op`` is a `pair_operator` result or its (16, 16) matrix, which
    may be a product of several lifted gates. ``sketch`` (a
    `_canonical.SplitSketch`) lets the split be sketched; without it the
    split is exact."""
    n = len(sites)
    ones = np.ones(1)
    lam_l = gammas[j - 1] if j > 0 else ones
    lam_m = gammas[j]
    lam_r = gammas[j + 1] if j + 1 < n - 1 else ones
    g1, lam_new, g2, weight = _canonical.two_site_update(
        lam_l, _fused(sites[j]), lam_m, _fused(sites[j + 1]), lam_r,
        pair_op, policy, normalize=False, sketch=sketch,
    )
    sites[j] = _unfused(g1)
    sites[j + 1] = _unfused(g2)
    gammas[j] = lam_new
    return weight


@dataclass(frozen=True, eq=False)
class CanonicalMpo:
    """An operator chain in canonical form with norm-carrying bond vectors."""

    site_tensors: tuple[np.ndarray, ...]
    gamma_vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        sites = tuple(map(frozen_array, self.site_tensors))
        gammas = _canonical.check_structure(sites, self.gamma_vectors, (2, 2))
        object.__setattr__(self, "site_tensors", sites)
        object.__setattr__(self, "gamma_vectors", gammas)

    # ---------------------------------------------------------------- #
    # structure
    # ---------------------------------------------------------------- #

    @property
    def n_qubits(self) -> int:
        return len(self.site_tensors)

    @property
    def bond_ranks(self) -> tuple[int, ...]:
        return tuple(len(gam) for gam in self.gamma_vectors)

    @property
    def max_bond_rank(self) -> int:
        return max(self.bond_ranks, default=1)

    def frobenius_norm(self) -> float:
        """Hilbert-Schmidt norm of the encoded operator."""
        if self.gamma_vectors:
            return float(np.linalg.norm(self.gamma_vectors[0]))
        return float(np.linalg.norm(self.site_tensors[0]))

    def bond_probability_distribution(self, bond: int) -> np.ndarray:
        """Operator-Schmidt weights p_i = gamma_i^2 / 2^n across ``bond``."""
        if not 0 <= bond < len(self.gamma_vectors):
            raise ValueError(f"bond {bond} out of range for {self.n_qubits} qubits")
        gam = self.gamma_vectors[bond]
        return (gam / math.sqrt(float(2**self.n_qubits))) ** 2

    def schmidt_strength(self) -> float:
        """Max over bonds of the entropy -sum p_i log2 p_i of the
        operator-Schmidt weights. Zero for a single site."""
        best = 0.0
        for bond in range(len(self.gamma_vectors)):
            p = self.bond_probability_distribution(bond)
            p = p[p > 0]
            best = max(best, float(-np.sum(p * np.log2(p))))
        return best

    def hartley_strength(self) -> float:
        """log2 of the largest bond rank, after dropping bond entries below
        the double-precision noise floor."""
        best = 1
        for gam in self.gamma_vectors:
            best = max(best, int(np.count_nonzero(gam >= _canonical.NOISE_FLOOR * gam[0])))
        return float(math.log2(best))

    def middle_tensor(self) -> np.ndarray:
        """Site tensor at position n // 2."""
        return self.site_tensors[self.n_qubits // 2]

    def _fused_sites(self) -> list[np.ndarray]:
        return [_fused(t) for t in self.site_tensors]

    def canonical_defect(self) -> float:
        """Largest violation of the canonical conditions, bond-weighted
        (see `_canonical.canonical_defect`). The norm-carrying convention
        leaves the left condition meaningful on sites 0..n-2 and the right
        condition on sites 1..n-1."""
        return _canonical.canonical_defect(
            self._fused_sites(), self.gamma_vectors, normalize=False
        )

    def validate(self, tol_norm: float = 1e-9, tol_iso: float = 1e-8) -> None:
        """Check cross-bond norm consistency and isometry conditions."""
        _canonical.validate(
            self._fused_sites(), self.gamma_vectors, tol_norm, tol_iso, normalize=False
        )

    # ---------------------------------------------------------------- #
    # operations
    # ---------------------------------------------------------------- #

    def absorb_gate(self, site: int, gate, policy: TruncationPolicy,
                    side: str = "output") -> "CanonicalMpo":
        """Multiply a 1- or 2-qubit gate onto the operator at ``site``.

        side="output" forms gate @ O; side="both" forms gate @ O @ gate^dag,
        the bookkeeping mode used for reordering swaps. Two-qubit gates act
        on (site, site+1); route long-range gates with explicit swaps.
        """
        mat = np.asarray(gate, dtype=np.complex128)
        n = self.n_qubits
        if mat.shape == (2, 2):
            if not 0 <= site < n:
                raise ValueError(f"site {site} out of range for {n} qubits")
            check_unitary(mat, 2)
            sites = list(self.site_tensors)
            sites[site] = _single_site_apply(sites[site], mat, side)
            return CanonicalMpo(tuple(sites), self.gamma_vectors)
        if mat.shape == (4, 4):
            if not 0 <= site < n - 1:
                raise NonAdjacentGateError(
                    f"two-qubit gate needs sites ({site}, {site + 1}) inside 0..{n - 1}"
                )
            check_unitary(mat, 4)
            sites = list(self.site_tensors)
            gammas = list(self.gamma_vectors)
            _absorb_pair(sites, gammas, site, pair_operator(mat, side), policy)
            return CanonicalMpo(tuple(sites), tuple(gammas))
        raise DimensionMismatchError(f"gate must be 2x2 or 4x4, got shape {mat.shape}")

    def apply_to_mps(self, state: CanonicalMps, policy: TruncationPolicy) -> CanonicalMps:
        """Apply the operator to a state and recanonicalize.

        The state and operator sites go to `_canonical.canonicalize_train`
        as factor pairs, each with its bond vector folded in; the sweep
        contracts them on the fly, so the product chain, whose bond ranks
        are the products of the factors' ranks, is never formed. The sweep
        restores canonical form and truncates per ``policy``; the result
        is renormalized to unit norm.
        """
        if self.n_qubits != state.n_qubits:
            raise DimensionMismatchError(
                f"operator on {self.n_qubits} qubits cannot act on "
                f"{state.n_qubits}-qubit state"
            )
        states = _canonical.train_from_vidal(state.gammas, state.lambdas)
        ops = _canonical.train_from_vidal(self.site_tensors, self.gamma_vectors)
        new_g, new_l, _ = _canonical.canonicalize_train(
            list(zip(states, ops)), policy, normalize=True
        )
        return CanonicalMps(tuple(new_g), tuple(new_l))

    def recanonicalize(self, policy: TruncationPolicy) -> "CanonicalMpo":
        """Full left-to-right then right-to-left sweep with truncation.

        With a rank cap that cuts bonds, the result meets only the right
        canonical conditions: its left conditions are off at the cut bonds
        (`canonical_defect` 9.5e-3 for the 20-qubit transform at
        ``max_rank=2``, 9.4e-9 at 5; `validate` rejects all four caps
        2..5), and `absorb_gate` or `_canonical.two_site_update`, which
        assume both conditions, must not be used on it. What reads the chain as a raw
        train, bond vectors folded into the left sites (`hs_inner`,
        `apply_to_mps`), is unaffected. Recanonicalizing the capped result
        again without a cap restores both conditions.
        """
        train = _canonical.train_from_vidal(self._fused_sites(), self.gamma_vectors)
        new_t, new_g, _ = _canonical.canonicalize_train(train, policy, normalize=False)
        return CanonicalMpo(tuple(_unfused(t) for t in new_t), tuple(new_g))

    def to_dense(self) -> DenseTensor:
        """Dense matrix of the operator (guarded by the dense-size limit)."""
        n = self.n_qubits
        check_dense_size(n, DENSE_OPERATOR_LIMIT, "dense operator matrix")
        vec = _canonical.vector_from_vidal(self._fused_sites(), self.gamma_vectors)
        arr = vec.reshape((2,) * (2 * n))  # (i_0, j_0, i_1, j_1, ...)
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        mat = np.transpose(arr, perm).reshape(2**n, 2**n)
        return DenseTensor(mat)


def identity_mpo(n: int) -> CanonicalMpo:
    """Identity operator; rank 1 on every bond with the full Frobenius norm
    (2^(n/2)) carried by each bond vector."""
    check_width(n)
    eye = np.eye(2, dtype=np.complex128).reshape(1, 2, 2, 1)
    if n == 1:
        return CanonicalMpo((eye,), ())
    root_d = math.sqrt(float(2**n))
    boundary = eye / math.sqrt(2.0)
    interior = eye / (math.sqrt(2.0) * root_d)
    sites = [boundary] + [interior] * (n - 2) + [boundary]
    gammas = [np.array([root_d])] * (n - 1)
    return CanonicalMpo(tuple(sites), tuple(gammas))


def from_dense_operator(mat, policy: TruncationPolicy = TruncationPolicy()) -> CanonicalMpo:
    """Canonical operator chain of a dense matrix (for cross-checks and
    small reference operators)."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"need a square matrix, got shape {arr.shape}")
    n = int(math.log2(arr.shape[0]))
    if 2**n != arr.shape[0]:
        raise DimensionMismatchError(f"matrix dimension {arr.shape[0]} is not a power of two")
    check_dense_size(n, DENSE_OPERATOR_LIMIT, "dense operator matrix")
    split = arr.reshape((2,) * (2 * n))  # (i_0..i_{n-1}, j_0..j_{n-1})
    perm = [ax for k in range(n) for ax in (k, n + k)]
    vec = np.transpose(split, perm).reshape(-1)
    gammas, bond_vectors, _ = _canonical.vidal_from_vector(
        vec, n, 4, policy, normalize=False
    )
    return CanonicalMpo(tuple(_unfused(g) for g in gammas), tuple(bond_vectors))


def hs_inner(a: CanonicalMpo, b: CanonicalMpo) -> complex:
    """Normalized Hilbert-Schmidt inner product tr(A^dag B) / 2^n.

    Conjugate-linear in the first argument. Contracted bond by bond through
    transfer matrices; nothing dense is formed, so this works at any width.
    Equals 1 for A == B unitary.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"operand widths differ: {a.n_qubits} vs {b.n_qubits}"
        )
    ta = _canonical.train_from_vidal(a._fused_sites(), a.gamma_vectors)
    tb = _canonical.train_from_vidal(b._fused_sites(), b.gamma_vectors)
    env = np.ones((1, 1), dtype=np.complex128)
    for site_a, site_b in zip(ta, tb):
        chi_a, p, r_a = site_a.shape
        chi_b, _, r_b = site_b.shape
        env = env.T @ site_a.conj().reshape(chi_a, p * r_a)  # (chi_b, p r_a)
        env = env.reshape(chi_b * p, r_a).T @ site_b.reshape(chi_b * p, r_b)  # (r_a, r_b)
    return complex(env[0, 0]) / float(2**a.n_qubits)


# ---------------------------------------------------------------- #
# serialization: binary container + JSON sidecar
# ---------------------------------------------------------------- #

def save_mpo(op: CanonicalMpo, path: str | Path, policy: TruncationPolicy | None = None,
             circuit_fingerprint: str | None = None) -> None:
    """Write the chain to ``path`` and a JSON summary to ``path + '.json'``."""
    _canonical.save_chain(
        path, "mpo", op.site_tensors, op.gamma_vectors, policy,
        circuit_fingerprint=circuit_fingerprint,
        bond_spectra=[[float(v) for v in gam] for gam in op.gamma_vectors],
    )


def load_mpo(path: str | Path) -> CanonicalMpo:
    sites, gammas = _canonical.load_chain(path, "mpo")
    return CanonicalMpo(tuple(sites), tuple(gammas))
