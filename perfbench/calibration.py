"""A fixed calibration probe that gauges the host's current speed.

On a virtual machine that shares its host, the speed of one vCPU swings by
up to a factor of two over tens of seconds (the same n=48 compile took
1.4 s to 2.9 s within five minutes, with CPU time tracking wall time, so
the cause is contention on the host, not steal). The benchmark therefore
runs this probe between operations and scales each operation's time by
``NOMINAL_S / probe time``: seconds on a host that runs the probe in
``NOMINAL_S``.

The probe does not use the package, so a change to the package cannot move
it. Its mix follows the package's hot paths: two-site updates along a
rank-16 operator chain (small einsum and tensordot calls, 64x64 complex
SVDs: the compile's inner step), a 96x96 SVD and QR (the larger kernels
of the apply sweeps and studies), and plain interpreter work on tuples and
dicts. A mix that resembles the workloads tracks their speed: over 40 s
windows it cut the spread of a compile's median time from 12% to 5%.
"""

from __future__ import annotations

import time

import numpy as np

# Bound here, at import: a traced pass rebinds numpy.linalg.svd, and the
# probe must neither be counted nor pay the tracer's cost.
_svd = np.linalg.svd
_qr = np.linalg.qr
_einsum = np.einsum

NOMINAL_S = 0.04

_rng = np.random.default_rng(20140603)


def _random_unitary(dim: int) -> np.ndarray:
    z = _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_SITES = 10
_DIM = 4  # an operator chain's site dimension: two qubit legs fused
_RANK = 16
_PAIR = _random_unitary(_DIM * _DIM).reshape(_DIM, _DIM, _DIM, _DIM)
_WIDE = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))


def _sweep() -> float:
    """Two-site updates along a chain in Vidal form, truncated at rank 16:
    the compile's inner step at the shapes it reaches (64x64 SVDs)."""
    gammas = [np.ones((1, _DIM, 1), dtype=complex) for _ in range(_SITES)]
    bonds = [np.ones(1) for _ in range(_SITES + 1)]
    discarded = 0.0
    for _ in range(4):
        for i in range(_SITES - 1):
            left, right = gammas[i], gammas[i + 1]
            a, c = left.shape[0], right.shape[2]
            theta = left * bonds[i][:, None, None] * bonds[i + 1][None, None, :]
            theta = np.tensordot(theta, right * bonds[i + 2][None, None, :], axes=(2, 0))
            theta = _einsum("xypq,apqc->axyc", _PAIR, theta, optimize=True)
            u, s, vh = _svd(theta.reshape(a * _DIM, _DIM * c), full_matrices=False)
            keep = min(_RANK, int(np.count_nonzero(s > 1e-14 * s[0])))
            discarded += float(np.sum(s[keep:] ** 2))
            s = s[:keep] / np.linalg.norm(s[:keep])
            gammas[i] = u[:, :keep].reshape(a, _DIM, keep) / bonds[i][:, None, None]
            gammas[i + 1] = vh[:keep].reshape(keep, _DIM, c) / bonds[i + 2][None, None, :]
            bonds[i + 1] = s
    return discarded


def _work() -> float:
    total = _sweep()
    for _ in range(2):
        total += float(_svd(_WIDE, compute_uv=True)[1][0])
        total += float(np.abs(_qr(_WIDE)[1][0, 0]))
    table = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return total + len(table)


def probe_seconds() -> float:
    """Wall-clock seconds of one run of the fixed probe work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def warm_up() -> None:
    for _ in range(5):
        _work()
