import cmath
import math

import numpy as np
import pytest

from qftmpo._canonical import NOISE_FLOOR, _split_bond, train_from_vidal
from qftmpo.errors import NumericalError
from qftmpo.mpo import identity_mpo
from qftmpo.tensor import TruncationPolicy


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def exact_policy():
    return TruncationPolicy(rel_cutoff=1e-14)


def random_state(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def per_gate_reference(circuit, policy):
    """Compile gate by gate through `CanonicalMpo.absorb_gate`, one SVD per
    two-site gate: an independent path to check the compiler against."""
    op = identity_mpo(circuit.n_qubits)
    for gate in circuit.gates:
        op = op.absorb_gate(gate.sites[0], gate.dense_matrix(), policy, side=gate.side)
    return op.recanonicalize(policy)


def reference_canonicalize_train(tensors, policy, *, normalize, floor=NOISE_FLOOR):
    """Bring a raw train into canonical form.

    Left-to-right QR sweep makes every site left-isometric, pushing the
    norm to the last site; the right-to-left SVD sweep then truncates each
    bond and collects its Schmidt vector. With ``normalize`` the bond
    vectors are rescaled to unit 2-norm and the encoded vector to norm 1.

    Returns (gammas, bond_vectors, discarded_weight).
    """
    n = len(tensors)
    work = [np.asarray(t, dtype=np.complex128) for t in tensors]
    if n == 1:
        g = work[0]
        if normalize:
            norm = np.linalg.norm(g)
            if norm == 0.0:
                raise NumericalError("chain encodes the zero vector")
            g = g / norm
        return [g], [], 0.0

    for j in range(n - 1):  # left-to-right: orthonormalize columns
        chi_l, d, chi_r = work[j].shape
        q, rmat = np.linalg.qr(work[j].reshape(chi_l * d, chi_r))
        work[j] = q.reshape(chi_l, d, -1)
        work[j + 1] = np.tensordot(rmat, work[j + 1], axes=(1, 0))

    bond_vectors = [None] * (n - 1)
    discarded = 0.0
    for j in range(n - 1, 0, -1):  # right-to-left: truncate bonds
        chi_l, d, chi_r = work[j].shape
        u, s, vh, dropped = _split_bond(work[j].reshape(chi_l, d * chi_r), policy, floor)
        discarded += dropped
        bond_vectors[j - 1] = s
        work[j] = vh.reshape(-1, d, chi_r)
        work[j - 1] = np.tensordot(work[j - 1], u * s, axes=(2, 0))

    # work[0] now carries the full norm; work[1:] are right-isometric with
    # bond_vectors holding the raw Schmidt coefficients.
    stored = bond_vectors
    if normalize:
        norm = float(np.linalg.norm(bond_vectors[0]))
        work[0] = work[0] / norm
        stored = [lam / np.linalg.norm(lam) for lam in bond_vectors]

    gammas = [None] * n
    gammas[0] = work[0] / stored[0][None, None, :]
    for j in range(1, n - 1):
        gammas[j] = work[j] / stored[j][None, None, :]
    gammas[n - 1] = work[n - 1]
    return gammas, stored, discarded


def reference_apply(op, state, policy):
    """Operator on state as the reference sweep sees it: the product chain
    formed site by site (bond (a, c) with the state index slower), then
    `reference_canonicalize_train`. Returns its (gammas, bond vectors,
    discarded weight)."""
    sites = []
    for g, o in zip(state.gammas, op.site_tensors):
        t = np.tensordot(g, o, axes=(1, 2)).transpose(0, 2, 3, 1, 4)  # a c x b e
        a, c, x, b, e = t.shape
        sites.append(t.reshape(a * c, x, b * e))
    bonds = [np.kron(s, o) for s, o in zip(state.lambdas, op.gamma_vectors)]
    return reference_canonicalize_train(train_from_vidal(sites, bonds), policy, normalize=True)


def fourier_entry(y, x, n):
    """exp(2 pi i y rev(x) / 2^n), the closed form of entry (y, x) of the
    compiled nearest-neighbour transform (which takes its input
    bit-reversed) times 2^(n/2). y rev(x) is reduced mod 2^n in integers
    and divided as integers, so no product is ever rounded to a float and
    any n works."""
    size = 1 << n
    rev = int(format(x, f"0{n}b")[::-1], 2)
    return cmath.exp(2j * math.pi * (((y * rev) % size) / size))


def operator_entry(op, y, x):
    """<y|O|x> * 2^(n/2) of a `CanonicalMpo`, one site at a time (site 0
    holds the most significant bit); the scale, one sqrt(2) per site,
    keeps the partial products O(1)."""
    n = op.n_qubits
    v = np.ones(1, dtype=np.complex128)
    for j, site in enumerate(op.site_tensors):
        shift = n - 1 - j
        v = (v @ site[:, (y >> shift) & 1, (x >> shift) & 1, :]) * math.sqrt(2.0)
        if j < n - 1:
            v = v * op.gamma_vectors[j]
    return complex(v[0])
