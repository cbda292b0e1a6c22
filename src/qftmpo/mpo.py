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
from .errors import DimensionMismatchError
from .mps import CanonicalMps
from .tensor import NOISE_FLOOR, TruncationPolicy, check_dense_size, frozen_array

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

    def validate(self) -> None:
        """Check cross-bond norm consistency (to 1e-9) and isometry
        conditions (to 1e-8)."""
        _canonical.validate(self._fused_sites(), self.gamma_vectors, 1e-9, 1e-8, normalize=False)

    # ---------------------------------------------------------------- #
    # operations
    # ---------------------------------------------------------------- #

    def apply_to_mps(self, state: CanonicalMps, policy: TruncationPolicy) -> CanonicalMps:
        """Apply the operator to a state and recanonicalize.

        The state and operator sites go to `_canonical.canonicalize_train`,
        each with its bond vector folded in. A state whose bonds all have
        dimension 1 (a product state, such as a basis state) has each of
        its site vectors contracted into the operator site once, and the
        sweep runs on that plain (chi_O, 2, chi_O) train. Any other state
        goes as factor pairs, which the sweep contracts on the fly, so the
        product chain, whose bond ranks are the products of the factors'
        ranks, is never formed. Where the product bonds are much wider
        than the output rank, the left pass sketches them down to a range
        basis, and the right pass truncates that compressed train, not the
        product; if any sketch saturates, the sweep is the exact one. The
        sweep restores canonical form and truncates per ``policy``; the
        result is renormalized to unit norm.
        """
        if self.n_qubits != state.n_qubits:
            raise DimensionMismatchError(
                f"operator on {self.n_qubits} qubits cannot act on "
                f"{state.n_qubits}-qubit state"
            )
        states = _canonical.train_from_vidal(state.gammas, state.lambdas)
        ops = _canonical.train_from_vidal(self.site_tensors, self.gamma_vectors)
        if max(state.bond_ranks, default=1) == 1:
            train = [op.transpose(0, 1, 3, 2) @ s[0, :, 0] for s, op in zip(states, ops)]
        else:
            train = list(zip(states, ops))
        new_g, new_l, _ = _canonical.canonicalize_train(train, policy, normalize=True)
        return CanonicalMps(tuple(new_g), tuple(new_l))

    def recanonicalize(self, policy: TruncationPolicy) -> "CanonicalMpo":
        """Full left-to-right then right-to-left sweep with truncation.

        With a rank cap that cuts bonds, the result meets only the right
        canonical conditions: its left conditions are off at the cut bonds
        (`canonical_defect` 9.5e-3 for the 20-qubit transform at
        ``max_rank=2``, 9.4e-9 at 5; `validate` rejects all four caps
        2..5), and Hastings' inverse-free `_canonical.two_site_update`,
        which assumes both conditions, must not be run on it. What reads the
        chain only as a raw train, bond vectors folded into the left sites
        (`hs_inner`, `apply_to_mps`), is unaffected. Recanonicalizing the
        capped result again without a cap restores both conditions.
        """
        train = _canonical.train_from_vidal(self._fused_sites(), self.gamma_vectors)
        return _sweep(train, policy)[0]

    def to_dense(self) -> np.ndarray:
        """Read-only dense matrix of the operator (guarded by the dense-size limit)."""
        n = self.n_qubits
        check_dense_size(n, DENSE_OPERATOR_LIMIT, "dense operator matrix")
        vec = _canonical.vector_from_vidal(self._fused_sites(), self.gamma_vectors)
        arr = vec.reshape((2,) * (2 * n))  # (i_0, j_0, i_1, j_1, ...)
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        mat = np.transpose(arr, perm).reshape(2**n, 2**n)
        return frozen_array(mat)


def _sweep(train, policy: TruncationPolicy) -> tuple[CanonicalMpo, float]:
    """Canonical operator chain of a fused raw train, in the norm-carrying
    convention, and the discarded weight of the sweep."""
    new_t, new_g, weight = _canonical.canonicalize_train(train, policy, normalize=False)
    return CanonicalMpo(tuple(_unfused(t) for t in new_t), tuple(new_g)), weight


# ---------------------------------------------------------------- #
# the Fourier transform from its bulk tensor
# ---------------------------------------------------------------- #

def _chebyshev_bound(k: int) -> float:
    """Bound on the K-node Chebyshev interpolation error of e^{i w s},
    |w| <= pi, over s in [0, 1] (see `fourier_mpo`)."""
    return 2.0 * math.sqrt(2.0) * (math.pi / 4.0) ** k / math.factorial(k)


# the fewest nodes whose bound is within the noise floor the sweeps cut at
FOURIER_NODES = next(k for k in range(1, 64) if _chebyshev_bound(k) <= NOISE_FLOOR)


def _lagrange(s: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Lagrange basis P_m(s) of ``nodes``: one row per point, one column per
    node. Products, not the barycentric quotient, so s may be a node."""
    off = ~np.eye(len(nodes), dtype=bool)
    num = np.prod(np.where(off, np.subtract.outer(s, nodes)[:, None, :], 1.0), axis=-1)
    den = np.prod(np.where(off, np.subtract.outer(nodes, nodes), 1.0), axis=-1)
    return num / den


def _fourier_site(left: np.ndarray, nodes: np.ndarray | None) -> np.ndarray:
    """Fused site e^{i pi [(t + x)(y + 1/2) - t]} P_m((t + x)/2) / sqrt(2)
    over the left bond's points t, output bit y, input bit x and right node
    m; without ``nodes`` (the last site) the right bond has dimension 1,
    P_m = 1 and no e^{i pi u} is carried, so the phase is
    e^{i pi [(t + x) y - t]}. The first site is the row t = 0."""
    u = left[:, None] + np.arange(2.0)  # (t, x): twice the next cut's u
    y = np.arange(2.0)[:, None] + (0.0 if nodes is None else 0.5)
    site = np.exp(1j * math.pi * (u[:, None, :] * y - left[:, None, None]))  # (t, y, x)
    site = site[..., None] / math.sqrt(2.0)
    if nodes is not None:
        site = site * _lagrange((u / 2).ravel(), nodes).reshape(len(left), 1, 2, -1)
    return site.reshape(len(left), 4, -1)


def fourier_mpo(n: int, policy: TruncationPolicy) -> CanonicalMpo:
    """The n-qubit Fourier transform as `compile_to_mpo(
    nearest_neighbor_qft_circuit(n), policy)` returns it (bit-reversed
    input, norm-carrying bond vectors, the same bond ranks), built from its
    bulk tensor in O(n) instead of from O(n^2) gates.

    Site j holds output bit y_j and input bit x_j, site 0 the most
    significant. Entry (y, x) is 2^{-n/2} exp(2 pi i sum_{k <= j} y_j x_k
    2^{k-j-1}), and across the cut after site c the two halves couple
    through exp(2 pi i u v), with u = sum_{k <= c} x_k 2^{k-c-1} and
    v = sum_{j > c} y_j 2^{c-j}, both in [0, 1). Write the coupling as
    e^{i pi u} exp(2 pi i u (v - 1/2)). The left sites carry e^{i pi u}
    exactly, and the right block, a function of u through
    exp(2 pi i u (v - 1/2)) times factors free of u, is interpolated in u
    at the K Chebyshev nodes t_m = (1 - cos((2m + 1) pi / 2K)) / 2 of
    [0, 1], with Lagrange basis P_m. From one cut to the next u -> u' =
    (u + x_{c+1}) / 2, and a site multiplies by e^{i pi (u' - t)}, t the
    node of its left cut. That gives the same tensor at every bulk site and
    every n,

        T[m', y, x, m] = e^{i pi [(t_{m'} + x)(y + 1/2) - t_{m'}]}
                         P_m((t_{m'} + x) / 2) / sqrt(2),

    the interpolative construction of Chen & Lindsey (2024) on the centred
    coupling. The first site is the row t = 0, e^{i pi x (y + 1/2)}
    P_m(x / 2) / sqrt(2), and the last site, which interpolates nothing, is
    e^{i pi [(t_{m'} + x) y - t_{m'}]} / sqrt(2). One
    `_canonical.canonicalize_train` sweep (a left QR pass, then a right
    pass that truncates each bond under ``policy``) gives the canonical
    chain. The raw train is left-orthogonalized before any bond is cut, so
    the squared Frobenius distance between the train and the result is at
    most the discarded weight of that sweep.

    K: the error of the K-node Chebyshev interpolant of g(s) = e^{i w s}
    on [0, 1] is at most max|g^(K)| / K! * max_s |prod_m (s - t_m)|, that
    is |w|^K / K! * 2 * 4^{-K} for each of the real and imaginary parts.
    With w = 2 pi (v - 1/2), |w| <= pi, so |g - p| <= 2 sqrt(2) (pi / 4)^K
    / K!, which is 5.7e-14 at K = 15 and 2.8e-15 at K = 16 (the uncentred
    coupling, |w| <= 2 pi, needs K = 20). FOURIER_NODES is the smallest K
    with the bound at most NOISE_FLOOR: 16. The bound holds per cut; the
    worst of 200 sampled entries (times 2^{n/2}) is 4.1e-13 off the closed
    form at n = 1023.
    """
    return _fourier_sweep(n, policy)[0]


def _fourier_sweep(n: int, policy: TruncationPolicy) -> tuple[CanonicalMpo, float]:
    """`fourier_mpo` and the discarded weight of its sweep."""
    check_width(n)
    if n == 1:
        return _sweep([_fourier_site(np.zeros(1), None)], policy)
    k = np.arange(FOURIER_NODES)
    nodes = (1.0 - np.cos((2 * k + 1) * math.pi / (2 * FOURIER_NODES))) / 2.0
    bulk = _fourier_site(nodes, nodes)
    train = [_fourier_site(np.zeros(1), nodes)] + [bulk] * (n - 2)
    return _sweep(train + [_fourier_site(nodes, None)], policy)


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


def from_dense_operator(mat) -> CanonicalMpo:
    """Canonical operator chain of a dense matrix (for cross-checks and
    small reference operators), by the QR cascade and sweep of
    `_canonical.train_from_vector`; only noise-floor singular values are
    dropped."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"need a square matrix, got shape {arr.shape}")
    n = int(math.log2(arr.shape[0])) if arr.shape[0] else 0
    if 2**n != arr.shape[0]:
        raise DimensionMismatchError(f"matrix dimension {arr.shape[0]} is not a power of two")
    check_dense_size(n, DENSE_OPERATOR_LIMIT, "dense operator matrix")
    split = arr.reshape((2,) * (2 * n))  # (i_0..i_{n-1}, j_0..j_{n-1})
    perm = [ax for k in range(n) for ax in (k, n + k)]
    vec = np.transpose(split, perm).reshape(-1)
    return _sweep(_canonical.train_from_vector(vec, n, 4), TruncationPolicy())[0]


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
             circuit_fingerprint: str | None = None, construction: dict | None = None) -> None:
    """Write the chain to ``path`` and a JSON summary to ``path + '.json'``;
    ``construction`` says how the chain was made (see `qftmpo build`)."""
    _canonical.save_chain(
        path, "mpo", op.site_tensors, op.gamma_vectors, policy,
        circuit_fingerprint=circuit_fingerprint,
        construction=construction,
        bond_spectra=[[float(v) for v in gam] for gam in op.gamma_vectors],
    )


def load_mpo(path: str | Path) -> CanonicalMpo:
    sites, gammas = _canonical.load_chain(path, "mpo")
    return CanonicalMpo(tuple(sites), tuple(gammas))
