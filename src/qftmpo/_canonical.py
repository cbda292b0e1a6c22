"""Canonical-form sweeps shared by state (d=2) and operator (d=4) chains.

A "train" here is a list of rank-3 arrays with legs (left bond, physical,
right bond); the matrix-chain product over the bond legs reproduces the
encoded vector. A train handed to `canonicalize_train` may instead hold
(state, operator) factor pairs, one per site, standing for the operator
applied to the state. Canonical form splits a train into isometric site
tensors (gammas) plus one non-negative vector per bond whose entries are
the Schmidt coefficients of the encoded vector across that bond. For a
normalized chain each bond vector has unit 2-norm; otherwise every bond
vector carries the full 2-norm of the vector, which is the convention used
for operator chains. A dense vector is first split into an exact raw
train by a QR cascade (`train_from_vector`). The conversion to gammas at
the end of `canonicalize_train` is the one place that divides by a
Schmidt value.

Singular values below `tensor.NOISE_FLOOR` relative to the bond maximum
are pure double-precision noise and are always dropped, independent of
the caller's truncation policy (`tensor.retained_count` applies it).

Applying an operator multiplies the bond dimensions of state and operator,
while the output often needs far fewer Schmidt vectors. Where a product
bond is much wider than that, the left-to-right pass of
`canonicalize_train` replaces the exact triangular factor by the range
found with a seeded Gaussian sketch of the right block (a randomized range
finder, Halko, Martinsson & Tropp 2011), and checks the sketch's tail.
The sweep makes one decision: if every sketch held, the left pass hands
over a compressed plain train of the range bases Q_j of every bond (a
reduced QR supplies Q_j on the bonds too narrow to sketch), so the right
pass never contracts the state and operator factors again over the
product bond; if any sketch may have missed part of the range, the whole
sweep is the exact one. Plain trains are never sketched. One
right-to-left pass truncates a plain, pair or compressed train alike. For
a plain train whose vector is unchanged by reversing the chain (with its
physical index permuted), that pass may stop at the centre bond and take
the left half as the reflection of the right half (``mirror``).

The chain invariants (structure, bond norms, canonical defect) and the
binary container live here once for both chain kinds; the ``normalize``
flag that picks the norm convention of a sweep picks the same convention
for the checks.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import DimensionMismatchError, NumericalError
from .tensor import (
    NOISE_FLOOR,
    TruncationPolicy,
    _read_exact,
    _svd_matrix,
    read_tensor_from,
    retained_count,
    write_tensor_to,
)

# a left-sweep bond is sketched only where it is this many times wider
# than the sketch, and the sketch counts as unsaturated when its smallest
# singular value is at most SKETCH_TAIL of its largest
SKETCH_SLACK = 1.5
SKETCH_TAIL = 1e-15
SKETCH_SEED = 20140603
MIRROR_TOL = 1e-12  # of lambda_max^2, the gauge check of a mirrored sweep


def _cut_bond(mat, policy):
    """SVD a bond matrix and truncate. Returns (u, kept s, vh, dropped s)."""
    u, s, vh = _svd_matrix(mat)
    k = retained_count(s, policy)
    if k == 0 or s[0] == 0.0:
        raise NumericalError("bond spectrum vanished; chain encodes the zero vector")
    return u[:, :k], s[:k], vh[:k], s[k:]


def _split_bond(mat, policy):
    """SVD a bond matrix and truncate. Returns (u, kept s, vh, dropped weight)."""
    u, s, vh, dropped = _cut_bond(mat, policy)
    return u, s, vh, float(np.sum(dropped**2))


def _sketch_holds(r) -> bool:
    """The range test of a sketch M Omega = Q R of a matrix M, given R.

    A smallest singular value of R at most SKETCH_TAIL of the largest means
    the sketch had a column to spare, so its range holds the range of M to
    that tail. Otherwise the sketch saturated and may have missed part of
    it. For a square triangular R every |R_kk| lies between the smallest
    and the largest singular value, so a diagonal that spans the tail
    already decides the test; only a sketch it leaves undecided pays an SVD.
    """
    diag = np.abs(np.diagonal(r))
    if r.shape[0] == r.shape[1] and diag.min() <= SKETCH_TAIL * diag.max():
        return True
    sv = np.linalg.svd(r, compute_uv=False)
    return sv[-1] <= SKETCH_TAIL * sv[0]


def _left_multiply(rmat, site):
    """``rmat`` (k, chi_l) times a train site over its left bond, as a
    (k * d, chi_r) matrix.

    A site is a (chi_l, d, chi_r) array, or a (state, operator) pair of
    factors (a, p, b) and (c, x, p, e) standing for the product site
    sum_p state[a, p, b] * operator[c, x, p, e] on bonds (a, c) and (b, e),
    first index slower. The product site is never formed: ``rmat`` goes
    into the state factor first, then the operator factor.
    """
    if isinstance(site, tuple):
        state, op = site
        a, p, b = state.shape
        c, x, _, e = op.shape
        r = rmat.reshape(-1, a, c).transpose(0, 2, 1).reshape(-1, a)  # (k c, a)
        t = (r @ state.reshape(a, p * b)).reshape(-1, c, p, b)
        k = t.shape[0]
        t = t.transpose(0, 3, 1, 2).reshape(k * b, c * p)
        t = t @ op.transpose(0, 2, 1, 3).reshape(c * p, x * e)  # (k b, x e)
        return t.reshape(k, b, x, e).transpose(0, 2, 1, 3).reshape(k * x, b * e)
    chi_l, d, chi_r = site.shape
    return (rmat @ site.reshape(chi_l, d * chi_r)).reshape(-1, chi_r)


def _right_multiply(site, carry):
    """A train site (see `_left_multiply`) times ``carry`` (chi_r, k) over
    its right bond, as a (chi_l, d * k) matrix."""
    if isinstance(site, tuple):
        state, op = site
        a, p, b = state.shape
        c, x, _, e = op.shape
        t = state.reshape(a * p, b) @ carry.reshape(b, -1)  # (a p, e k)
        k = t.shape[1] // e
        t = t.reshape(a, p, e, k).transpose(0, 3, 1, 2).reshape(a * k, p * e)
        t = t @ op.reshape(c * x, p * e).T  # (a k, c x)
        return t.reshape(a, k, c, x).transpose(0, 2, 3, 1).reshape(a * c, x * k)
    chi_l, d, chi_r = site.shape
    return (site.reshape(chi_l * d, chi_r) @ carry).reshape(chi_l, -1)


def _sketched_left_pass(sites):
    """The left pass by a randomized range finder: the compressed train,
    or None where the exact pass runs instead.

    Only trains of factor pairs are sketched, and only where some left
    factor of the exact pass, whose row counts bound those of a sketched
    pass, would have more than SKETCH_SLACK times the sketch width; bond
    ``first`` is the first such one. The width is twice the widest state
    bond plus a margin of 16: the transform's output rank stayed below
    twice the input rank on the inputs measured (58 for rank-31 periodic
    states). A rank cap does not narrow it, because the left pass must hold
    the untruncated range; truncation happens only in the right pass.

    E_j, a (chi_j, width) sketch of the block right of bond j >= ``first``,
    is (site_{j+1} * E_{j+1}) Omega_j, with complex Gaussian Omega_j drawn
    from a generator seeded here, so a sweep is reproducible and the global
    random state is left alone. Each E_j is scaled to unit Frobenius norm;
    the range tests depend only on its column space. A bond too narrow to
    sketch keeps the Q of a reduced QR. The first range test
    (`_sketch_holds`) runs at bond ``first``, and the first that fails
    returns None.

    The compressed train is plain: site j < n-1 is the range basis Q_j of
    bond j reshaped to (k_{j-1}, d, k_j), so every site but the last is
    left-isometric, and the last site is F_{n-2} * site_{n-1}. To the
    sketch's tail it encodes the vector of the factor pairs.
    """
    if not isinstance(sites[0], tuple):
        return None
    width = 2 * max(state.shape[2] for state, _ in sites) + 16
    rows = 1
    for first, (state, op) in enumerate(sites[:-1]):
        rows = min(rows * op.shape[1], state.shape[2] * op.shape[3])
        if rows > SKETCH_SLACK * width:
            break
    else:
        return None
    rng = np.random.default_rng(SKETCH_SEED)
    sketches = [None] * (len(sites) - 1)
    e = ones = np.ones((1, 1), dtype=np.complex128)
    for j in range(len(sites) - 1, first, -1):
        t = _right_multiply(sites[j], e)  # (chi_{j-1}, d * k)
        e = t @ rng.standard_normal((t.shape[1], 2 * width)).view(np.complex128)
        e /= np.linalg.norm(e) or 1.0
        sketches[j - 1] = e
    d = sites[0][1].shape[1]
    train, factor = [], ones
    for site, sketch in zip(sites, sketches):
        m = _left_multiply(factor, site)
        if sketch is not None and min(m.shape) > SKETCH_SLACK * width:
            q, r = np.linalg.qr(m @ sketch)
            if not _sketch_holds(r):
                return None
            factor = q.conj().T @ m
        else:
            q, factor = np.linalg.qr(m)
        train.append(q.reshape(-1, d, q.shape[1]))
    return train + [(factor @ _right_multiply(sites[-1], ones)).reshape(-1, d, 1)]


def _reflected(site, mirror):
    """A (l, d, r) site of the reversed chain: its bonds swapped and its
    physical index permuted by ``mirror``."""
    return site[:, mirror, :].transpose(2, 1, 0)


def _mirror_gauge(raw, work, bond_vectors, carry, mirror):
    """The unitary D that joins the reflected left half of a chain to its
    right half at bond h - 1, h = len(``raw``), or None where the
    reflection does not reproduce the left half.

    The reflections A of the right-isometric sites ``work[n-1]`` ..
    ``work[n-h]`` are left-isometric. Their overlap with the raw left sites
    times the right pass's ``carry`` is G = A^dag Q U S, Q U S the left
    block with its Schmidt values. G = D Lambda, Lambda the vector bond
    h - 1 takes from bond n - 1 - h, if G^dag G = Lambda^2 to MIRROR_TOL
    of lambda_max^2 (weighted by Lambda: G / Lambda is far from unitary on
    columns at the noise floor); D is the unitary polar factor of G.
    """
    lam = bond_vectors[len(work) - 1 - len(raw)]
    if len(lam) != len(bond_vectors[len(raw) - 1]):
        return None
    overlap = np.ones((1, 1), dtype=np.complex128)
    for j, site in enumerate(raw):
        left = _reflected(work[len(work) - 1 - j], mirror)
        overlap = left.reshape(-1, left.shape[2]).conj().T @ _left_multiply(overlap, site)
    g = overlap @ carry
    if not _weighted_deviation(g.conj().T @ g, lam) <= MIRROR_TOL:
        return None
    u, _, vh = _svd_matrix(g)
    return u @ vh


def canonicalize_train(tensors, policy, *, normalize, mirror=None):
    """Bring a raw train into canonical form.

    ``tensors`` holds (left, d, right) sites, or (state, operator) factor
    pairs whose product sites are contracted on the fly and never formed
    (see `_left_multiply`); this is how an operator is applied to a state.

    The left-to-right sweep keeps a small factor F_j per bond: the left
    block up to bond j equals Q_j F_j on every vector the sites to its
    right can produce, with Q_j an isometry. In the exact sweep F_j is the
    triangular QR factor of M = F_{j-1} * site_j. For factor pairs whose
    product bonds are much wider than the output rank, a randomized range
    finder (`_sketched_left_pass`) keeps the Q_j instead, as the sites of
    a compressed plain train whose left blocks are isometric, so that
    train needs no factor. If any of its sketches saturates, the whole
    sweep is the exact one, from the first bond, bit for bit. Plain trains
    are never sketched.

    One right-to-left sweep serves every train. It carries a matrix C
    instead of the left blocks: with X = site_j * C, the SVD of
    F_{j-1} X = U S Vh (of X itself where there is no factor) truncates
    bond j-1 and gives the right-isometric site Vh. The next carry is
    X Vh^dag, because F_{j-1} X Vh^dag = U S, or U S where there is no
    factor. The singular values are the Schmidt coefficients across each
    bond, as if every left block had been made isometric. With
    ``normalize`` the bond vectors are rescaled to unit 2-norm and the
    encoded vector to norm 1.

    ``mirror``, for a plain train whose vector is unchanged by reversing
    the chain and reading each physical index p as ``mirror[p]``, stops
    the right pass after site h = n // 2: canonical form is unique up to a
    unitary on each bond, so sites 0 .. h-1 are the reflections of sites
    n-1 .. n-h, bond j takes the vector and the cut weight of bond n-2-j,
    and `_mirror_gauge` joins the halves. Unless the policy's cutoff is at
    most NOISE_FLOOR, every cut so far dropped only values below
    NOISE_FLOOR of its bond maximum, and the gauge check holds, the pass
    runs on to bond 0, bit for bit the sweep without ``mirror``.

    Returns (gammas, bond_vectors, discarded_weight).
    """
    n = len(tensors)
    sites = [
        t if isinstance(t, tuple) else np.asarray(t, dtype=np.complex128) for t in tensors
    ]
    ones = np.ones((1, 1), dtype=np.complex128)
    factors = [None] * (n - 1)  # None: the left block is isometric already
    train = _sketched_left_pass(sites)
    if train is None:  # the exact left pass: triangular factors only
        train, factor = sites, ones
        for j, site in enumerate(sites[:-1]):
            factor = factors[j] = np.linalg.qr(_left_multiply(factor, site), mode="r")

    work = [None] * n
    bond_vectors = [None] * (n - 1)
    cuts = [0.0] * (n - 1)
    half = n // 2
    reflect = mirror is not None and policy.rel_cutoff <= NOISE_FLOOR
    gauge = None
    carry = ones
    for j in range(n - 1, 0, -1):  # right-to-left: truncate bonds
        x = _right_multiply(train[j], carry)
        factor = factors[j - 1]
        u, s, vh, dropped = _cut_bond(x if factor is None else factor @ x, policy)
        cuts[j - 1] = float(np.sum(dropped**2))
        reflect = reflect and not np.any(dropped >= NOISE_FLOOR * s[0])
        bond_vectors[j - 1] = s
        work[j] = vh.reshape(len(s), -1, carry.shape[1])
        carry = u * s if factor is None else x @ vh.conj().T
        if reflect and j == half:
            gauge = _mirror_gauge(train[:half], work, bond_vectors, carry, mirror)
            if gauge is not None:
                for b in range(half):
                    bond_vectors[b], cuts[b] = bond_vectors[n - 2 - b], cuts[n - 2 - b]
                break
    else:
        work[0] = _right_multiply(train[0], carry).reshape(1, -1, carry.shape[1])
    discarded = sum(cuts[::-1], 0.0)

    # unless the left half is a reflection, work[0] now carries the full
    # norm; every other work[j] is right-isometric, with bond_vectors
    # holding the raw Schmidt coefficients.
    norm = float(np.linalg.norm(bond_vectors[0] if bond_vectors else work[0]))
    if norm == 0.0:
        raise NumericalError("chain encodes the zero vector")
    stored = bond_vectors
    if normalize:
        if work[0] is not None:
            work[0] = work[0] / norm
        stored = [lam / np.linalg.norm(lam) for lam in bond_vectors]
    gammas = [None if w is None else w / lam for w, lam in zip(work, stored)] + [work[-1]]
    if gauge is not None:
        for j in range(half):
            gammas[j] = _reflected(gammas[n - 1 - j], mirror)
        gammas[half - 1] = gammas[half - 1] @ gauge
    return gammas, stored, discarded


def train_from_vector(vec, n_sites, phys_dim):
    """Exact raw train of a dense vector over ``n_sites`` sites of dimension
    ``phys_dim``, by a left-to-right QR cascade; `canonicalize_train` gives
    its canonical form."""
    if n_sites < 1:
        raise DimensionMismatchError(
            f"dense input of length {np.size(vec)} spans no qubit; at least one qubit is needed"
        )
    rem = np.asarray(vec, dtype=np.complex128).reshape(1, -1)
    train = []
    for _ in range(n_sites - 1):
        q, rem = np.linalg.qr(rem.reshape(rem.shape[0] * phys_dim, -1))
        train.append(q.reshape(-1, phys_dim, q.shape[1]))
    return train + [rem.reshape(-1, phys_dim, 1)]


def train_from_vidal(gammas, bond_vectors):
    """Raw train equivalent to canonical data: fold each bond vector into
    the site on its left. The last site is taken as is."""
    n = len(gammas)
    out = []
    for j in range(n - 1):
        out.append(np.asarray(gammas[j]) * np.asarray(bond_vectors[j])[None, None, :])
    out.append(np.asarray(gammas[n - 1]))
    return out


def vector_from_vidal(gammas, bond_vectors):
    """Contract a canonical chain back into a dense vector (exponential)."""
    n = len(gammas)
    acc = np.asarray(gammas[0])[0]  # (d, chi)
    for j in range(1, n):
        acc = acc * np.asarray(bond_vectors[j - 1])[None, :]
        acc = np.tensordot(acc, np.asarray(gammas[j]), axes=(1, 0))  # (D, d, chi)
        acc = acc.reshape(acc.shape[0] * acc.shape[1], acc.shape[2])
    return acc[:, 0]


def bonds_around(bond_vectors, first, last):
    """The bond vectors left of site ``first`` and right of site ``last`` of
    a chain with ``bond_vectors``; ``np.ones(1)`` stands in at a chain end."""
    ones = np.ones(1)
    left = bond_vectors[first - 1] if first > 0 else ones
    right = bond_vectors[last] if last < len(bond_vectors) else ones
    return left, right


def two_site_update(lam_left, b_left, b_right, pair_op, policy):
    """Apply a two-site operator to a raw train and restore the shared
    bond by one SVD, dividing by no bond vector (Hastings, arXiv:0903.3253).

    ``b_left`` and ``b_right`` are right-canonical sites with the bond
    vector on their right folded in; ``lam_left`` is the bond vector left
    of ``b_left``. ``pair_op`` has legs (new1, new2, old1, old2) over the
    physical dimension d, as a (d, d, d, d) array or its (d*d, d*d)
    matrix. With theta = pair_op (b_left b_right) and lam_left theta =
    U S Vh, the new bond vector is S, unnormalized as the norm-carrying
    convention of operator chains keeps it, b_right' = Vh and b_left' =
    theta Vh^dag, which is lam_left^-1 U S.

    Returns (b_left', bond', b_right', discarded_weight).
    """
    a, d, _ = b_left.shape
    c = b_right.shape[2]
    theta = b_left.reshape(a * d, -1) @ b_right.reshape(-1, d * c)  # (a p, q c)
    theta = np.matmul(pair_op.reshape(d * d, d * d), theta.reshape(a, d * d, c))  # a xy c
    theta = theta.reshape(a * d, d * c)
    _, s, vh, discarded = _split_bond(np.repeat(lam_left, d)[:, None] * theta, policy)
    return (theta @ vh.conj().T).reshape(a, d, -1), s, vh.reshape(-1, d, c), discarded


# ---------------------------------------------------------------- #
# chain invariants
# ---------------------------------------------------------------- #

def check_structure(sites, bond_vectors, phys_shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Check the shape invariants of a chain; returns its bond vectors as
    read-only float arrays.

    Each site has legs (left bond, *phys_shape, right bond); both boundary
    bonds have dimension 1, and bond j, between sites j and j+1, carries a
    finite, positive, non-increasing vector of matching length (a NaN or
    inf entry raises NumericalError, as `tensor.frozen_array` does for sites).
    """
    n = len(sites)
    if n == 0:
        raise ValueError("need at least one site")
    bonds = []
    for j, lam in enumerate(bond_vectors):
        arr = np.array(lam, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise DimensionMismatchError(f"bond {j} vector has shape {arr.shape}, want (r,)")
        arr.setflags(write=False)
        bonds.append(arr)
    if len(bonds) != n - 1:
        raise DimensionMismatchError(f"{n} sites require {n - 1} bond vectors, got {len(bonds)}")
    left = 1
    for j, g in enumerate(sites):
        if g.ndim != len(phys_shape) + 2 or g.shape[1:-1] != phys_shape:
            want = ", ".join(str(d) for d in ("l", *phys_shape, "r"))
            raise DimensionMismatchError(f"site {j} has shape {g.shape}, want ({want})")
        if g.shape[0] != left:
            raise DimensionMismatchError(
                f"site {j} left bond {g.shape[0]} != previous right bond {left}"
            )
        if j < n - 1 and g.shape[-1] != len(bonds[j]):
            raise DimensionMismatchError(
                f"site {j} right bond {g.shape[-1]} != bond vector length {len(bonds[j])}"
            )
        left = g.shape[-1]
    if left != 1:
        raise DimensionMismatchError("right boundary bond must have dimension 1")
    if not _bonds_ordered(bonds):
        for j, lam in enumerate(bonds):  # name the first failing bond
            if not np.isfinite(lam).all():
                raise NumericalError(f"bond {j} vector has non-finite entries")
            if len(lam) == 0 or np.any(lam <= 0) or np.any(np.diff(lam) > 0):
                raise ValueError(f"bond {j} vector must be positive and non-increasing")
    return tuple(bonds)


def _bonds_ordered(bonds) -> bool:
    """Whether every bond vector is non-empty, finite, positive and
    non-increasing, checked in one pass over their concatenation."""
    if not bonds:
        return True
    lengths = [len(lam) for lam in bonds]
    if 0 in lengths:
        return False
    flat = np.concatenate(bonds)
    rises = flat[1:] > flat[:-1]
    rises[np.cumsum(lengths[:-1], dtype=np.intp) - 1] = False  # steps across bonds
    return bool(np.isfinite(flat).all() and (flat > 0).all() and not rises.any())


def _weighted_deviation(gram, lam):
    return float(np.max(np.abs(gram - np.diag(lam**2))) / float(np.max(lam) ** 2))


def canonical_defect(sites, bond_vectors, *, normalize) -> float:
    """Largest violation of the canonical conditions, bond-weighted.

    ``sites`` are (left, d, right) arrays. With W = lambda_l * Gamma *
    lambda_r, the left condition is W^dag W = diag(lambda_r^2) and the
    right condition W W^dag = diag(lambda_l^2). Folding both bond vectors
    in keeps the measure stable when a spectrum spans many decades (bare
    Gamma conditions degrade as lambda_max/lambda_min); deviations are
    relative to the largest squared weight. A normalized chain is checked
    on every site; the norm-carrying convention (``normalize`` false)
    leaves the left condition meaningful on sites 0..n-2 and the right
    one on sites 1..n-1.
    """
    n = len(sites)
    deviations = [0.0]
    for j, g in enumerate(sites):
        lam_l, lam_r = bonds_around(bond_vectors, j, j)
        w = g * lam_l[:, None, None] * lam_r[None, None, :]
        if normalize or j < n - 1:
            left = np.tensordot(w.conj(), w, axes=((0, 1), (0, 1)))
            deviations.append(_weighted_deviation(left, lam_r))
        if normalize or j > 0:
            right = np.tensordot(w, w.conj(), axes=((1, 2), (1, 2)))
            deviations.append(_weighted_deviation(right, lam_l))
    return float(np.max(deviations))  # unlike max(), np.max keeps a NaN defect


def validate(sites, bond_vectors, tol_norm, tol_iso, *, normalize) -> None:
    """Raise NumericalError unless the bond norms agree and the canonical
    defect is within ``tol_iso``.

    Every bond's squared weight must equal 1 for a normalized chain, or
    bond 0's otherwise, within ``tol_norm`` times max(that weight, 1).
    """
    if bond_vectors:
        ref = 1.0 if normalize else float(np.sum(bond_vectors[0] ** 2))
        for j, lam in enumerate(bond_vectors):
            total = float(np.sum(lam**2))
            if not abs(total - ref) <= tol_norm * max(ref, 1.0):  # a NaN fails too
                raise NumericalError(f"bond {j} squared weight {total} differs from {ref}")
    defect = canonical_defect(sites, bond_vectors, normalize=normalize)
    if not defect <= tol_iso:
        raise NumericalError(f"canonical defect {defect:.2e} exceeds {tol_iso:.0e}")


# ---------------------------------------------------------------- #
# binary container + JSON sidecar
# ---------------------------------------------------------------- #
# layout: magic | u32 version | u32 site count n | n site tensor records |
# n-1 bond vector records stored as complex (see tensor.write_tensor_to),
# all little-endian.

CONTAINER_VERSION = 1
CONTAINER_MAGIC = {"mps": b"MPSC", "mpo": b"MPOC"}


def save_chain(path, kind: str, sites, bond_vectors, policy: TruncationPolicy | None,
               **sidecar) -> None:
    """Write a ``kind`` ("mps" or "mpo") container to ``path`` and a JSON
    summary, extended by ``sidecar``, to ``path + '.json'``. The summary
    names the package and numpy versions that wrote it."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(struct.pack("<4sII", CONTAINER_MAGIC[kind], CONTAINER_VERSION, len(sites)))
        for t in sites:
            write_tensor_to(f, t)
        for lam in bond_vectors:
            write_tensor_to(f, lam)
    summary = {
        "format": f"qftmpo-{kind}/1",
        "n_qubits": len(sites),
        "bond_ranks": [len(lam) for lam in bond_vectors],
        "policy": None if policy is None else {
            "rel_cutoff": policy.rel_cutoff, "max_rank": policy.max_rank,
        },
        "package_version": __version__,
        "numpy_version": np.__version__,
        **sidecar,
    }
    Path(str(path) + ".json").write_text(json.dumps(summary, indent=2) + "\n")


def load_chain(path, kind: str):
    """Read a container written by `save_chain`; returns (site tensors,
    bond vectors) as read-only arrays. A truncated file, a header declaring
    more or less data than the file holds, a NaN or inf entry or a bond
    record with a nonzero imaginary part fails with a ValueError."""
    magic = CONTAINER_MAGIC[kind]
    data = Path(path).read_bytes()
    f = io.BytesIO(data)
    found = f.read(4)
    if found != magic:
        raise ValueError(f"bad container magic {found!r}, expected {magic!r}")
    version, n = struct.unpack("<II", _read_exact(f, 8, "container header"))
    if version != CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {version}")
    sites = [read_tensor_from(f) for _ in range(n)]
    bonds = []
    for j in range(n - 1):
        bond = read_tensor_from(f)
        if np.any(bond.imag):
            raise ValueError(f"bond {j} of the container has a nonzero imaginary part")
        bonds.append(bond.real)
    extra = len(data) - f.tell()
    if extra:
        raise ValueError(f"{extra} bytes after the last record of the container")
    return sites, bonds
