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
for operator chains.

Singular values below NOISE_FLOOR relative to the bond maximum are pure
double-precision noise and are always dropped, independent of the caller's
truncation policy.

Applying an operator multiplies the bond dimensions of state and operator,
while the output often needs far fewer Schmidt vectors. Where a product
bond is much wider than that, the left-to-right pass of
`canonicalize_train` replaces the exact triangular factor by the range
found with a seeded Gaussian sketch of the right block (a randomized range
finder, Halko, Martinsson & Tropp 2011), and checks the sketch's tail: a
sketch that may have missed part of the range falls back to the exact
factor. Plain trains are never sketched, and their sweeps are exact.

A compile's two-site updates use the same range finder: the two-site
block of a low-rank bond is much wider than its rank, so `two_site_update`
can split the sketched block Q^dag theta in place of theta when the caller
hands it a `SplitSketch`. The same tail test guards it, and the first
saturated sketch switches sketching off for the rest of that compile.
Callers that pass no sketch get the exact split.

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

from .errors import DimensionMismatchError, NumericalError
from .tensor import (
    TruncationPolicy,
    _read_exact,
    _svd_matrix,
    read_tensor_from,
    retained_count,
    write_tensor_to,
)

NOISE_FLOOR = 1e-14
# a left-sweep bond is sketched only where it is this many times wider
# than the sketch, and the sketch counts as unsaturated when its smallest
# singular value is at most SKETCH_TAIL of its largest
SKETCH_SLACK = 1.5
SKETCH_TAIL = 1e-15
SKETCH_SEED = 20140603
# a sketched two-site split has this many columns more than the bond's
# rank before the update
SPLIT_SKETCH_MARGIN = 6


def _split_bond(mat, policy, floor):
    """SVD a bond matrix and truncate. Returns (u, kept s, vh, dropped weight)."""
    return _truncate(*_svd_matrix(mat), policy, floor)


def _truncate(u, s, vh, policy, floor):
    """Keep the leading singular triplets of an SVD under ``policy``."""
    k = retained_count(s, policy, extra_cutoff=floor)
    if k == 0 or s[0] == 0.0:
        raise NumericalError("bond spectrum vanished; chain encodes the zero vector")
    discarded = float(np.sum(s[k:] ** 2))
    return u[:, :k], s[:k], vh[:k], discarded


def _sketch_holds(sv) -> bool:
    """The range test of a sketch M Omega = Q R of a matrix M.

    ``sv`` are the descending singular values of R, or of Q^dag M, whose
    i-th value is at least R's divided by ||Omega||. A smallest value at
    most SKETCH_TAIL of the largest means the sketch had a column to spare,
    so its range holds the range of M to that tail. Otherwise the sketch
    saturated and may have missed part of it.
    """
    return sv[-1] <= SKETCH_TAIL * sv[0]


class SplitSketch:
    """Sketch state for the two-site updates of one compile: Gaussian test
    matrices, drawn once per shape from a generator seeded with SKETCH_SEED
    (so a compile is reproducible and the global random state is left
    alone), and an off switch that the first saturated sketch throws."""

    def __init__(self):
        self.on = True
        self._rng = np.random.default_rng(SKETCH_SEED)
        self._tests = {}

    def test_matrix(self, rows: int, width: int) -> np.ndarray:
        """Complex Gaussian (rows, width) test matrix."""
        omega = self._tests.get((rows, width))
        if omega is None:
            omega = self._rng.standard_normal((rows, 2 * width)).view(np.complex128)
            self._tests[rows, width] = omega
        return omega


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


def _sketch_plan(sites, policy):
    """(sketch width, first bond wide enough to sketch) for a train of
    factor pairs, or None where nothing is sketched: for plain trains, and
    where no left factor of the exact pass, whose row counts bound those of
    a sketched pass, would have more than SKETCH_SLACK times the width.

    The width is twice the widest state bond plus a margin of 16, capped
    at the policy's rank cap plus 16: the transform's output rank stayed
    below twice the input rank on the inputs measured (58 for rank-31
    periodic states). It decides only the speed; a bond whose sketch
    saturates is factored exactly.
    """
    if not isinstance(sites[0], tuple):
        return None
    width = 2 * max(state.shape[2] for state, _ in sites) + 16
    if policy.max_rank is not None:
        width = min(width, policy.max_rank + 16)
    rows = 1
    for j, (state, op) in enumerate(sites[:-1]):
        rows = min(rows * op.shape[1], state.shape[2] * op.shape[3])
        if rows > SKETCH_SLACK * width:
            return width, j
    return None


def _right_sketches(sites, width, first):
    """Sketch E_j, a (chi_j, width) matrix, of the block right of each bond
    j >= ``first`` (None for the bonds before it): E_j = (site_{j+1} *
    E_{j+1}) Omega_j, with complex Gaussian Omega_j drawn from a generator
    seeded here, so a sweep is reproducible and the global random state is
    left alone. Each E_j is scaled to unit Frobenius norm; the range tests
    depend only on its column space."""
    rng = np.random.default_rng(SKETCH_SEED)
    sketches = [None] * (len(sites) - 1)
    e = np.ones((1, 1), dtype=np.complex128)
    for j in range(len(sites) - 1, first, -1):
        t = _right_multiply(sites[j], e)  # (chi_{j-1}, d * k)
        e = t @ rng.standard_normal((t.shape[1], 2 * width)).view(np.complex128)
        e /= np.linalg.norm(e) or 1.0
        sketches[j - 1] = e
    return sketches


def canonicalize_train(tensors, policy, *, normalize, floor=NOISE_FLOOR):
    """Bring a raw train into canonical form.

    ``tensors`` holds (left, d, right) sites, or (state, operator) factor
    pairs whose product sites are contracted on the fly and never formed
    (see `_left_multiply`); this is how an operator is applied to a state.

    The left-to-right sweep keeps only a small factor F_j per bond, never
    the isometry Q_j that would complete it: the left block up to bond j
    equals Q_j F_j on every vector the sites to its right can produce.
    Usually F_j is the triangular QR factor of F_{j-1} * site_j. For
    factor pairs whose product bonds are much wider than the output rank,
    a randomized range finder shrinks it instead (`_right_sketches`): with
    M = F_{j-1} * site_j and E_j a Gaussian sketch of the block right of
    bond j, Q R = qr(M E_j); if R's smallest singular value is at most
    SKETCH_TAIL of its largest, the range of M E_j holds that of M times
    the right block to that tail, and F_j = Q^dag M has as many rows as
    E_j has columns, in place of chi_j. A saturated sketch falls back to
    the triangular factor and ends sketching for the sweep. Plain trains
    are never sketched.

    The right-to-left sweep carries a matrix C instead of the Q factors:
    with X = site_j * C, the SVD of F_{j-1} X = U S Vh truncates bond j-1
    and gives the right-isometric site Vh; the next carry is X Vh^dag,
    because F_{j-1} X Vh^dag = U S. The singular values are the Schmidt
    coefficients across each bond, as if every left block had been made
    isometric. With ``normalize`` the bond vectors are rescaled to unit
    2-norm and the encoded vector to norm 1.

    Returns (gammas, bond_vectors, discarded_weight).
    """
    n = len(tensors)
    sites = [
        t if isinstance(t, tuple) else np.asarray(t, dtype=np.complex128) for t in tensors
    ]
    ones = np.ones((1, 1), dtype=np.complex128)
    if n == 1:
        g = _right_multiply(sites[0], ones).reshape(1, -1, 1)
        if normalize:
            norm = np.linalg.norm(g)
            if norm == 0.0:
                raise NumericalError("chain encodes the zero vector")
            g = g / norm
        return [g], [], 0.0

    plan = _sketch_plan(sites, policy)
    sketches = _right_sketches(sites, *plan) if plan else [None] * (n - 1)
    factors = []
    factor = ones
    for j in range(n - 1):  # left-to-right: small factors only
        m = _left_multiply(factor, sites[j])
        factor = None
        if sketches[j] is not None and min(m.shape) > SKETCH_SLACK * sketches[j].shape[1]:
            q, r = np.linalg.qr(m @ sketches[j])
            if _sketch_holds(np.linalg.svd(r, compute_uv=False)):
                factor = q.conj().T @ m
            else:  # bond ranks change slowly: the next sketches would saturate too
                sketches = [None] * (n - 1)
        if factor is None:
            factor = np.linalg.qr(m, mode="r")
        factors.append(factor)

    work = [None] * n
    bond_vectors = [None] * (n - 1)
    discarded = 0.0
    carry = ones
    for j in range(n - 1, 0, -1):  # right-to-left: truncate bonds
        x = _right_multiply(sites[j], carry)
        u, s, vh, dropped = _split_bond(factors[j - 1] @ x, policy, floor)
        discarded += dropped
        bond_vectors[j - 1] = s
        work[j] = vh.reshape(len(s), -1, carry.shape[1])
        carry = x @ vh.conj().T
    work[0] = _right_multiply(sites[0], carry).reshape(1, -1, carry.shape[1])

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


def vidal_from_vector(vec, n_sites, phys_dim, policy, *, normalize, floor=NOISE_FLOOR):
    """Canonical form of a dense vector over ``n_sites`` sites.

    A straight left-to-right SVD cascade: at each bond the left block is
    already an isometry, so the singular values are the exact Schmidt
    coefficients of the remaining vector.
    """
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if len(vec) != phys_dim**n_sites:
        raise ValueError(
            f"vector of length {len(vec)} does not factor into {n_sites} sites of dim {phys_dim}"
        )
    if n_sites == 1:
        g = vec.reshape(1, phys_dim, 1)
        if normalize:
            norm = np.linalg.norm(g)
            if norm == 0.0:
                raise NumericalError("zero vector")
            g = g / norm
        return [g], [], 0.0

    gammas = []
    bond_vectors = []
    discarded = 0.0
    rem = vec.reshape(1, -1)
    prev = np.ones(1)
    for _ in range(n_sites - 1):
        chi = rem.shape[0]
        u, s, vh, dropped = _split_bond(rem.reshape(chi * phys_dim, -1), policy, floor)
        discarded += dropped
        lam = s / np.linalg.norm(s) if normalize else s
        gammas.append(u.reshape(chi, phys_dim, -1) / prev[:, None, None])
        bond_vectors.append(lam)
        rem = lam[:, None] * vh
        prev = lam
    gammas.append((rem / prev[:, None]).reshape(-1, phys_dim, 1))
    return gammas, bond_vectors, discarded


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


def two_site_update(lam_left, g_left, lam_mid, g_right, lam_right, pair_op, policy,
                    *, normalize, floor=NOISE_FLOOR, sketch: SplitSketch | None = None):
    """Apply a two-site operator and restore the shared bond by one SVD.

    ``pair_op`` has legs (new1, new2, old1, old2) over the train's physical
    dimension d, as a (d, d, d, d) array or its (d*d, d*d) matrix.
    Neighbouring bond vectors are folded in before the SVD, so the new bond
    vector holds the updated Schmidt coefficients directly.

    With a ``sketch`` that is on, a two-site block theta wider than
    SKETCH_SLACK times the sketch width s (the middle bond's rank plus
    SPLIT_SKETCH_MARGIN, capped at the policy's rank cap plus the margin)
    is split through a randomized range finder: Q = qr(theta Omega) with a
    Gaussian (d c, s) test matrix Omega, the SVD of the (s, d c) matrix
    Q^dag theta = U S Vh, and Q U in place of theta's left singular
    vectors. The range test reads S itself (`_sketch_holds`), so a
    sketched step costs one QR and one small SVD. A saturated sketch falls
    back to the exact split and switches the sketch off. The discarded
    weight of a sketched step does not count the weight outside the
    sketch, which the test puts near (SKETCH_TAIL * s_max)^2.

    Returns (g_left', bond', g_right', discarded_weight).
    """
    a, d, _ = g_left.shape
    c = g_right.shape[2]
    theta = g_left * lam_left[:, None, None]
    theta = theta * lam_mid[None, None, :]
    right = g_right * lam_right[None, None, :]
    theta = theta.reshape(a * d, -1) @ right.reshape(-1, d * c)  # (a p, q c)
    theta = np.matmul(pair_op.reshape(d * d, d * d), theta.reshape(a, d * d, c))  # a xy c
    theta = theta.reshape(a * d, d * c)
    split = None
    if sketch is not None and sketch.on:
        width = len(lam_mid) + SPLIT_SKETCH_MARGIN
        if policy.max_rank is not None:
            width = min(width, policy.max_rank + SPLIT_SKETCH_MARGIN)
        if min(theta.shape) > SKETCH_SLACK * width:
            q, _ = np.linalg.qr(theta @ sketch.test_matrix(d * c, width))
            u, s, vh = _svd_matrix(q.conj().T @ theta)
            if _sketch_holds(s):
                u, s, vh, discarded = _truncate(u, s, vh, policy, floor)
                split = q @ u, s, vh, discarded
            else:
                sketch.on = False
    u, s, vh, discarded = split or _split_bond(theta, policy, floor)
    lam_new = s / np.linalg.norm(s) if normalize else s
    g_left_new = u.reshape(a, d, -1) / lam_left[:, None, None]
    g_right_new = vh.reshape(-1, d, c) / lam_right[None, None, :]
    return g_left_new, lam_new, g_right_new, discarded


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
    ones = np.ones(1)
    for j, g in enumerate(sites):
        lam_l = bond_vectors[j - 1] if j > 0 else ones
        lam_r = bond_vectors[j] if j < n - 1 else ones
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
    summary, extended by ``sidecar``, to ``path + '.json'``."""
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
        **sidecar,
    }
    Path(str(path) + ".json").write_text(json.dumps(summary, indent=2) + "\n")


def load_chain(path, kind: str):
    """Read a container written by `save_chain`; returns (site tensors,
    bond vectors) as read-only arrays. A truncated file, a header declaring
    more data than the file holds or a NaN or inf entry fails with a
    ValueError."""
    magic = CONTAINER_MAGIC[kind]
    f = io.BytesIO(Path(path).read_bytes())
    found = f.read(4)
    if found != magic:
        raise ValueError(f"bad container magic {found!r}, expected {magic!r}")
    version, n = struct.unpack("<II", _read_exact(f, 8, "container header"))
    if version != CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {version}")
    sites = [read_tensor_from(f) for _ in range(n)]
    bonds = [read_tensor_from(f).real for _ in range(n - 1)]
    return sites, bonds
