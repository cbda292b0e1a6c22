import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qftmpo
from qftmpo._canonical import _split_bond, canonicalize_train, train_from_vidal, two_site_update
from qftmpo.circuits import CircuitSpec, GateSpec, compile_to_mpo
from qftmpo.errors import NumericalError
from qftmpo.mpo import _lagrange, _sweep, identity_mpo
from qftmpo.tensor import TruncationPolicy


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def exact_policy():
    return TruncationPolicy(rel_cutoff=1e-14)


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(qftmpo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def random_state(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gate_mpo(n, *gates):
    """The operator of ``gates``, (sites, matrix) or (sites, matrix, side)
    tuples applied in order to n qubits, compiled exactly."""
    specs = tuple(GateSpec("generic", g[0], matrix=g[1],
                           side=g[2] if len(g) > 2 else "output") for g in gates)
    return compile_to_mpo(CircuitSpec(n, specs), TruncationPolicy(1e-14))


def gate_to_dict(g):
    """One gate's entry in a circuit document, built from the gate object."""
    entry = {"kind": g.kind, "sites": list(g.sites), "side": g.side}
    if g.angle is not None:
        entry["angle"] = g.angle
    if g.matrix is not None:
        entry["matrix"] = [[[v.real, v.imag] for v in row] for row in g.matrix]
    return entry


def circuit_from_document(text):
    """The circuit a `circuit_to_json` document describes, one gate object
    per entry: the document, and so the fingerprint, determines the
    circuit."""
    doc = json.loads(text)
    gates = tuple(GateSpec(
        e["kind"], tuple(e["sites"]), e.get("angle"),
        [[complex(re, im) for re, im in row] for row in e["matrix"]] if "matrix" in e else None,
        e["side"]) for e in doc["gates"])
    return CircuitSpec(doc["n_qubits"], gates, doc["family"], doc["params"])


def einsum_pair_operator(gate, side):
    """A two-qubit gate on the fused (output, input) legs of two sites, by
    one einsum: legs (new1, new2, old1, old2) over the fused dimension 4.
    side "output" acts on the output legs only; side "both" also
    conjugates the input legs with the gate."""
    g4 = gate.reshape(2, 2, 2, 2)
    if side == "output":
        eye = np.eye(2, dtype=np.complex128)
        p = np.einsum("aceg,bf,dh->abcdefgh", g4, eye, eye)
    else:
        p = np.einsum("aceg,bdfh->abcdefgh", g4, gate.conj().reshape(2, 2, 2, 2))
    return np.ascontiguousarray(p.reshape(4, 4, 4, 4))


def per_gate_reference(circuit, policy):
    """Compile gate by gate on the unfused (l, 2, 2, r) raw train, one
    einsum per one-site gate and one exact SVD per two-site gate, lifted by
    `einsum_pair_operator` (no fused steps, no cached Kronecker lifts): an
    independent path to check the compiler against."""
    start = identity_mpo(circuit.n_qubits)
    sites = train_from_vidal(start.site_tensors, start.gamma_vectors)
    bonds = [np.ones(1)] + list(start.gamma_vectors)  # bonds[j]: left of site j
    for gate in circuit.gates:
        j = gate.sites[0]
        g = gate.dense_matrix()
        if len(gate.sites) == 1:
            sites[j] = np.einsum("xi,lijr->lxjr", g, sites[j])
            if gate.side == "both":
                sites[j] = np.einsum("yj,lijr->liyr", g.conj(), sites[j])
            continue
        left, right = (sites[k].reshape(sites[k].shape[0], 4, -1) for k in (j, j + 1))
        left, bonds[j + 1], right, _ = two_site_update(
            bonds[j], left, right, einsum_pair_operator(g, gate.side), policy)
        sites[j] = left.reshape(left.shape[0], 2, 2, -1)
        sites[j + 1] = right.reshape(right.shape[0], 2, 2, -1)
    return _sweep([t.reshape(t.shape[0], 4, -1) for t in sites], policy)[0]


def reference_canonicalize_train(tensors, policy, *, normalize):
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
        u, s, vh, dropped = _split_bond(work[j].reshape(chi_l, d * chi_r), policy)
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


def reference_fourier_train(n):
    """Raw fused train of the n-qubit transform interpolated on the
    uncentred coupling exp(2 pi i u v): sites e^{i pi (t + x) y}
    P_m((t + x)/2) / sqrt(2) on 20 Chebyshev nodes, the node count the
    interpolation bound needs at frequencies up to 2 pi. A second route to
    `fourier_mpo`'s operator; sweep it with `mpo._sweep`."""
    k = np.arange(20)
    nodes = (1 - np.cos((2 * k + 1) * np.pi / 40)) / 2

    def site(left, last=False):
        u = left[:, None] + np.arange(2.0)  # (t, x)
        t = np.exp(1j * np.pi * u[:, None, :] * np.arange(2.0)[:, None])[..., None]
        if not last:
            t = t * _lagrange((u / 2).ravel(), nodes).reshape(len(left), 1, 2, -1)
        return (t / math.sqrt(2.0)).reshape(len(left), 4, -1)

    if n == 1:
        return [site(np.zeros(1), last=True)]
    return [site(np.zeros(1))] + [site(nodes)] * (n - 2) + [site(nodes, last=True)]


def fourier_entry(y, x, n):
    """exp(2 pi i y rev(x) / 2^n), the closed form of entry (y, x) of the
    compiled nearest-neighbour transform (which takes its input
    bit-reversed) times 2^(n/2). y rev(x) is reduced mod 2^n in integers
    and divided as integers, so no product is ever rounded to a float and
    any n works."""
    size = 1 << n
    rev = int(format(x, f"0{n}b")[::-1], 2)
    return cmath.exp(2j * math.pi * (((y * rev) % size) / size))


def cascade_entry(y, x, n, turns):
    """exp(2 pi i sum_{k <= j} y_j x_k turns(j, k)), the closed form of
    entry (y, x) times 2^(n/2) of an operator whose output bit y_j picks up
    the phase turns(j, k) (a Fraction of a turn) from each input bit x_k;
    site 0 holds the most significant bit of y and of x. The sum is reduced
    mod 1 in exact fractions, so any n works."""
    ybits = [(y >> (n - 1 - j)) & 1 for j in range(n)]
    xbits = [(x >> (n - 1 - k)) & 1 for k in range(n)]
    total = sum((turns(j, k) for j in range(n) if ybits[j] for k in range(j + 1) if xbits[k]),
                Fraction(0))
    return cmath.exp(2j * math.pi * float(total % 1))


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


def difference_norm(a, b):
    """||A - B||_F of two operator chains: the bond norm of one untruncated
    sweep over their difference train, the raw trains as a direct sum with
    B negated. Linear in the error, so it resolves differences near 1e-15
    of ||B||, which 1 - |<A, B>| / (||A|| ||B||) does not."""
    ta = train_from_vidal([t.reshape(t.shape[0], 4, -1) for t in a.site_tensors], a.gamma_vectors)
    tb = train_from_vidal([t.reshape(t.shape[0], 4, -1) for t in b.site_tensors], b.gamma_vectors)
    if len(ta) == 1:
        return float(np.linalg.norm(ta[0] - tb[0]))
    sites = [np.concatenate([ta[0], -tb[0]], axis=2)]
    for x, y in zip(ta[1:-1], tb[1:-1]):
        site = np.zeros((x.shape[0] + y.shape[0], 4, x.shape[2] + y.shape[2]), dtype=complex)
        site[:x.shape[0], :, :x.shape[2]] = x
        site[x.shape[0]:, :, x.shape[2]:] = y
        sites.append(site)
    sites.append(np.concatenate([ta[-1], tb[-1]], axis=0))
    _, bonds, _ = canonicalize_train(sites, TruncationPolicy(), normalize=False)
    return float(np.linalg.norm(bonds[0]))
