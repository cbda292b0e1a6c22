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

Two kinds of cascade also have direct trains, built in O(n) sites and
brought to canonical form by one `_sweep` instead of compiled from O(n^2)
gates: the Fourier transform and every cascade of the base-B rotation law
from their bulk tensor (`fourier_mpo`), and every cascade whose angle
depends on the rotation order alone (the bandwidth-b approximate
transform, the power-law and per-order perturbed laws) from a phase carry
of at most b - 1 input bits left of a junction site and b - 1 output bits
right of it (`aqft_mpo`); `circuits.cascade_operator` decides which
construction a cascade takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _canonical
from .errors import DimensionMismatchError
from .mps import CanonicalMps
from .tensor import (
    NOISE_FLOOR,
    TruncationPolicy,
    _svd_matrix,
    check_dense_size,
    frozen_array,
    retained_count,
)

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
        """Read-only dense matrix of the operator (guarded by the dense-size limit).

        Each half of the chain is contracted with its output and input legs
        kept apart, the halves are joined by one matmul, and one permuted
        copy puts the outputs before the inputs."""
        n = self.n_qubits
        check_dense_size(n, DENSE_OPERATOR_LIMIT, "dense operator matrix")
        train = _canonical.train_from_vidal(self.site_tensors, self.gamma_vectors)
        cut = (n + 1) // 2
        left = _contract(np.ones((1, 1, 1, 1)), train[:cut])
        bond = left.shape[3]
        right = _contract(np.eye(bond).reshape(bond, 1, 1, bond), train[cut:])
        dim_l, dim_r = left.shape[1], right.shape[1]
        joined = left.reshape(dim_l * dim_l, bond) @ right.reshape(bond, dim_r * dim_r)
        mat = frozen_array(joined.reshape(dim_l, dim_l, dim_r, dim_r).transpose(0, 2, 1, 3))
        return mat.reshape(2**n, 2**n)


def _contract(block: np.ndarray, sites) -> np.ndarray:
    """``block`` (l, outputs, inputs, r) with the (r, 2, 2, r') ``sites``
    contracted on in order, outputs and inputs kept apart."""
    for site in sites:
        l, o, i, r = block.shape
        grown = (block.reshape(-1, r) @ site.reshape(r, -1)).reshape(l, o, i, 2, 2, -1)
        block = grown.transpose(0, 1, 3, 2, 4, 5).reshape(l, 2 * o, 2 * i, -1)
    return block


def _sweep(train, policy: TruncationPolicy) -> tuple[CanonicalMpo, float]:
    """Canonical operator chain of a fused raw train, in the norm-carrying
    convention, and the discarded weight of the sweep."""
    new_t, new_g, weight = _canonical.canonicalize_train(train, policy, normalize=False)
    return CanonicalMpo(tuple(_unfused(t) for t in new_t), tuple(new_g)), weight


# ---------------------------------------------------------------- #
# the Fourier transform and its base-B kin from the bulk tensor
# ---------------------------------------------------------------- #

def _chebyshev_bound(k: int, base: int = 2) -> float:
    """Bound on the K-node Chebyshev interpolation error of e^{i w s},
    |w| <= pi / (base - 1)^2, over s in [0, 1] (see `fourier_mpo`)."""
    return 2.0 * math.sqrt(2.0) * (math.pi / (4.0 * (base - 1) ** 2)) ** k / math.factorial(k)


def _node_count(base: int) -> int:
    """The fewest nodes whose bound is within the noise floor the sweeps cut at."""
    return next(k for k in range(1, 64) if _chebyshev_bound(k, base) <= NOISE_FLOOR)


FOURIER_NODES = _node_count(2)


def _lagrange(s: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Lagrange basis P_m(s) of ``nodes``: one row per point, one column per
    node. Products, not the barycentric quotient, so s may be a node."""
    off = ~np.eye(len(nodes), dtype=bool)
    num = np.prod(np.where(off, np.subtract.outer(s, nodes)[:, None, :], 1.0), axis=-1)
    den = np.prod(np.where(off, np.subtract.outer(nodes, nodes), 1.0), axis=-1)
    return num / den


def _fourier_site(left: np.ndarray, nodes: np.ndarray | None, base: int = 2) -> np.ndarray:
    """Fused site e^{i pi [a (2y/B + 1/(B(B-1))) + x y (1 - 2/B) - t/(B-1)]}
    P_m(a/B) / sqrt(2), a = t + x, over the left bond's points t, output
    bit y, input bit x and right node m, for the base B = ``base``; without
    ``nodes`` (the last site) the right bond has dimension 1, P_m = 1 and
    no e^{i pi a / (B(B-1))} is carried. The first site is the row t = 0.
    At B = 2 the phase is e^{i pi [(t + x)(y + 1/2) - t]}."""
    a = left[:, None] + np.arange(2.0)  # (t, x): B times the next cut's u
    y = np.arange(2.0)[:, None] * (2.0 / base) + (
        0.0 if nodes is None else 1.0 / (base * (base - 1)))
    # the Hadamard's e^{i pi x y} past the rotation law's 2 pi x y / B; zero at B = 2
    own = np.outer(np.arange(2.0), np.arange(2.0)) * (1.0 - 2.0 / base)  # (y, x)
    phase = a[:, None, :] * y - left[:, None, None] / (base - 1) + own
    site = np.exp(1j * math.pi * phase)[..., None] / math.sqrt(2.0)  # (t, y, x, m)
    if nodes is not None:
        site = site * _lagrange((a / base).ravel(), nodes).reshape(len(left), 1, 2, -1)
    return site.reshape(len(left), 4, -1)


def fourier_mpo(n: int, policy: TruncationPolicy, base: int = 2) -> CanonicalMpo:
    """The n-qubit Fourier transform as `compile_to_mpo(
    nearest_neighbor_qft_circuit(n), policy)` returns it (bit-reversed
    input, norm-carrying bond vectors, the same bond ranks), built from its
    bulk tensor in O(n) instead of from O(n^2) gates; with ``base`` B, the
    same for the cascade whose controlled phase of order k turns by
    2 pi / B^k (`generalized_circuit(n, RotationScheme("base-n", base=B))`).

    Site j holds output bit y_j and input bit x_j, site 0 the most
    significant. Entry (y, x) is 2^{-n/2} exp(i sum_j y_j (pi x_j +
    2 pi sum_{k < j} x_k B^{k-j-1})), and across the cut after site c the
    two halves couple through exp(2 pi i u v), with u = sum_{k <= c} x_k
    B^{k-c-1} and v = sum_{j > c} y_j B^{c-j}, both in [0, 1/(B-1)). Write
    the coupling as e^{i pi u/(B-1)} exp(2 pi i u (v - 1/(2(B-1)))). The
    left sites carry e^{i pi u/(B-1)} exactly, and the right block, a
    function of u through exp(2 pi i u (v - 1/(2(B-1)))) times factors free
    of u, is interpolated in u at the K Chebyshev nodes t_m = (1 -
    cos((2m + 1) pi / 2K)) / (2(B-1)) of [0, 1/(B-1)], with Lagrange basis
    P_m. From one cut to the next u -> u' = (u + x_{c+1}) / B; the site
    couples its output bit to the left cut through e^{2 pi i t y / B},
    takes its own input bit through the Hadamard's e^{i pi x y}, and
    multiplies by e^{i pi (u' - t)/(B-1)}, t the node of its left cut. That
    gives the same tensor at every bulk site and every n; at B = 2,

        T[m', y, x, m] = e^{i pi [(t_{m'} + x)(y + 1/2) - t_{m'}]}
                         P_m((t_{m'} + x) / 2) / sqrt(2),

    the interpolative construction of Chen & Lindsey (2024) on the centred
    coupling (`_fourier_site` has the phase at any B). The first site is
    the row t = 0, and the last site, which interpolates nothing, carries
    no e^{i pi u'/(B-1)}. One `_canonical.canonicalize_train` sweep (a left
    QR pass, then a right pass that truncates each bond under ``policy``)
    gives the canonical chain. The raw train is left-orthogonalized before
    any bond is cut, so the squared Frobenius distance between the train
    and the result is at most the discarded weight of that sweep.

    K: the error of the K-node Chebyshev interpolant of g(s) = e^{i w s}
    on [0, 1] is at most max|g^(K)| / K! * max_s |prod_m (s - t_m)|, that
    is |w|^K / K! * 2 * 4^{-K} for each of the real and imaginary parts.
    In s = (B-1) u, w = 2 pi (v - 1/(2(B-1))) / (B-1), so |w| <= pi /
    (B-1)^2 and |g - p| <= 2 sqrt(2) (pi / (4 (B-1)^2))^K / K!. At B = 2
    that is 5.7e-14 at K = 15 and 2.8e-15 at K = 16 (the uncentred
    coupling, |w| <= 2 pi, needs K = 20). K is the smallest count with the
    bound at most NOISE_FLOOR: FOURIER_NODES = 16 at B = 2, 11 at B = 3, 8
    at B = 5. The bound holds per cut; the worst of 200 sampled entries
    (times 2^{n/2}) of the transform is 4.1e-13 off the closed form at
    n = 1023.
    """
    return _fourier_sweep(n, policy, base)[0]


def _fourier_sweep(n: int, policy: TruncationPolicy,
                   base: int = 2) -> tuple[CanonicalMpo, float]:
    """`fourier_mpo` and the discarded weight of its sweep."""
    check_width(n)
    if base < 2:
        raise ValueError(f"the rotation base must be an integer >= 2, got {base}")
    if n == 1:
        return _sweep([_fourier_site(np.zeros(1), None, base)], policy)
    count = _node_count(base)
    k = np.arange(count)
    nodes = (1.0 - np.cos((2 * k + 1) * math.pi / (2 * count))) / (2.0 * (base - 1))
    bulk = _fourier_site(nodes, nodes, base)
    train = [_fourier_site(np.zeros(1), nodes, base)] + [bulk] * (n - 2)
    return _sweep(train + [_fourier_site(nodes, None, base)], policy)


# ---------------------------------------------------------------- #
# per-order cascades from their phase carry
# ---------------------------------------------------------------- #

def check_bandwidth(n: int, bandwidth: int) -> None:
    """Refuse an approximate-transform bandwidth outside 1..n."""
    if not 1 <= bandwidth <= n:
        raise ValueError(f"bandwidth must lie in [1, {n}], got {bandwidth}")


def _coupling(m_left: int, m_right: int, turns) -> np.ndarray:
    """exp(i sum_{a, a'} l_a r_{a'} turns[a + a']) over the indices l of
    ``m_left`` bits l_a and r of ``m_right`` bits r_{a'}, bit 0 least
    significant; a sum a + a' past the last turn adds no term."""
    padded = np.append(turns, np.zeros(m_left + m_right))
    theta = padded[np.add.outer(np.arange(m_left), np.arange(m_right))]
    bits_l = (np.arange(2**m_left)[:, None] >> np.arange(m_left)) & 1
    bits_r = (np.arange(2**m_right)[:, None] >> np.arange(m_right)) & 1
    return np.exp(1j * (bits_l @ theta @ bits_r.T))


def _carry_site(carried: int, kept: int, turns) -> np.ndarray:
    """Unfused (c, y, x, c') site left of the junction whose left bond
    carries the ``carried`` latest input bits before its own (the latest
    least significant) and whose right bond keeps the ``kept`` latest, its
    own included: the delta of that carry update times exp(i y_j sum_a
    x_{j-a} turns[a]) / sqrt(2)."""
    carry = np.arange(2**carried)
    bit = np.arange(2)
    grown = (carry[:, None] << 1) | bit  # (c, x): x_j as bit 0
    phase = _coupling(carried + 1, 1, turns)[grown].transpose(0, 2, 1)  # (c, y, x)
    nxt = grown & (2**kept - 1)
    site = np.zeros((len(carry), 2, 2, 2**kept), dtype=np.complex128)
    site[carry[:, None, None], bit[:, None], bit, nxt[:, None, :]] = phase / math.sqrt(2.0)
    return site


def _junction_site(m_left: int, m_right: int, turns) -> np.ndarray:
    """Unfused (l, y, x, r) site s between the input carry on its left (the
    ``m_left`` latest input bits x_{s-1}, x_{s-2}, ...) and the output carry
    on its right (the ``m_right`` next output bits y_{s+1}, y_{s+2}, ...):
    every term that couples y_s or a later output bit to x_s or an earlier
    input bit, densely, divided by sqrt(2)."""
    joined = _coupling(m_left + 1, m_right + 1, turns)  # bit 0 of each side: x_s, y_s
    return joined.reshape(2**m_left, 2, 2**m_right, 2).transpose(0, 3, 1, 2) / math.sqrt(2.0)


def _carry_train(n: int, turns) -> list[np.ndarray]:
    """Fused raw train of the cascade with per-order ``turns``: carry sites
    left of the junction at n // 2, and right of it the carry site of the
    mirrored position with y and x swapped and its bonds reversed."""
    span, s = len(turns) - 1, n // 2
    made: dict = {}

    def carry(j):
        shape = (min(span, j), min(span, j + 1))
        if shape not in made:
            made[shape] = _carry_site(*shape, turns)
        return made[shape]

    sites = ([carry(j) for j in range(s)]
             + [_junction_site(min(span, s), min(span, n - 1 - s), turns)]
             + [carry(n - 1 - j).transpose(3, 2, 1, 0) for j in range(s + 1, n)])
    return [_fused(site) for site in sites]


def _carry_rank(n: int, turns, policy: TruncationPolicy, cut: int | None = None) -> int:
    """Bond rank under ``policy`` of the cascade with per-order ``turns``
    across the cut after site ``cut`` - 1 (default n // 2) from its coupling
    matrix (`aqft_mpo`), without the train; transposed, the SVD is faster."""
    span, cut = len(turns) - 1, n // 2 if cut is None else cut
    coupling = _coupling(min(span, n - cut), min(span, cut), turns[1:])
    return retained_count(_svd_matrix(coupling, compute_uv=False), policy)


def aqft_mpo(n: int, bandwidth: int, policy: TruncationPolicy) -> CanonicalMpo:
    """The bandwidth-b approximate transform as `compile_to_mpo(
    aqft_circuit(n, b), policy)` returns it (bit-reversed input,
    norm-carrying bond vectors), from a phase-carry train in O(n) instead
    of from O(n^2) gates.

    The train covers every nearest-neighbour cascade whose angle depends
    on the rotation order alone, with the turns theta(1) = pi (the
    Hadamard's), theta(2), ..., theta(b): entry (y, x) is 2^{-n/2} exp(i
    sum_{0 <= j-k < b} y_j x_k theta(j-k+1)); here theta(k) = 2 pi / 2^k.
    Left of the junction site s = n // 2, bond j carries the last min(b -
    1, j + 1) input bits, and site j is the delta of that carry update
    times exp(i y_j sum_{0 <= j-k < b} x_k theta(j-k+1)) / sqrt(2). Right
    of it the roles swap: bond j - 1 carries the next min(b - 1, n - j)
    output bits leftward, and site j, the carry site of position n-1-j
    with y and x swapped and its bonds reversed, holds the terms of x_j
    with y_j and the later output bits. The junction holds the terms that
    cross it, densely. Bond c is 2^{min(b-1, c+1, n-c-1)} wide, so the
    widest, after site s - 1, is W = 2^{min(b-1, n // 2)}. One
    `_canonical.canonicalize_train` sweep cuts the bonds under ``policy``.

    Across a cut the operator couples its left input bits to its right
    output bits only through the 2^{mL} x 2^{mR} matrix exp(i L Theta
    R^T) over the crossing bit windows, so its Schmidt values are those
    of that matrix times one constant: `_carry_rank` reads a bond's rank
    from it alone.
    """
    check_width(n)
    check_bandwidth(n, bandwidth)
    turns = [math.pi] + [2.0 * math.pi / 2.0**k for k in range(2, bandwidth + 1)]
    return _carry_sweep(n, turns, policy)[0]


def _carry_sweep(n: int, turns, policy: TruncationPolicy) -> tuple[CanonicalMpo, float]:
    """The cascade with per-order ``turns`` (see `aqft_mpo`) and the
    discarded weight of its sweep."""
    check_width(n)
    return _sweep(_carry_train(n, turns), policy)


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
