import numpy as np
import pytest

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
