"""Palindromic trains and their centre-out sweep
(`_canonical.canonicalize_palindrome`), which QRs the left half alone and
reflects the right half it sweeps, against the full sweep of the assembled
train (`_canonical.palindrome`), past the dense caps: the bulk tensor of
the transform and its base-B kin, and phase-carry trains. Where a cut may
drop more than noise (a binding cap, a cutoff above the noise floor) the
sweep is the full one, bit for bit."""

import numpy as np
import pytest

from conftest import difference_norm
from qftmpo import _canonical, circuits, mpo
from qftmpo.circuits import RotationScheme, _turns, compile_trace, nearest_neighbor_qft_circuit
from qftmpo.mpo import MIRROR, _sweep
from qftmpo.tensor import TruncationPolicy

EXACT = TruncationPolicy(1e-14)


def swept(monkeypatch, build, *args):
    """The chain and weight ``build`` returns, and the (half, centre) it
    handed to `mpo._palindrome_sweep`."""
    trains = []
    real = mpo._palindrome_sweep

    def spy(half, centre, policy):
        trains.append((half, centre))
        return real(half, centre, policy)

    monkeypatch.setattr(mpo, "_palindrome_sweep", spy)
    op, weight = build(*args)
    (train,) = trains
    return op, weight, train


def assert_palindrome(half, centre):
    # site n-1-j is site j reflected, to the last bit, but for the site an
    # even train absorbs its centre matrix into; the centre is symmetric
    train = _canonical.palindrome(half, centre, MIRROR)
    n = len(train)
    assert n // 2 == len(half)
    assert all(a is b for a, b in zip(train, half))
    for j, site in enumerate(half[:n // 2 - (centre.ndim == 2)]):
        assert np.array_equal(train[n - 1 - j], _canonical._reflected(site, MIRROR))
    if centre.ndim == 2:
        assert np.array_equal(centre, centre.T)
    else:
        assert np.array_equal(centre, _canonical._reflected(centre, MIRROR))


def assert_matches_full_sweep(op, half, centre, policy):
    full, _ = _sweep(_canonical.palindrome(half, centre, MIRROR), policy)
    assert op.bond_ranks == full.bond_ranks
    for lam, ref in zip(op.gamma_vectors, full.gamma_vectors):
        assert np.max(np.abs(lam - ref)) <= 1e-12 * ref[0]
    # ||O||: the norm any bond vector carries, or the one site's
    norm = np.linalg.norm(full.gamma_vectors[0] if op.n_qubits > 1 else full.site_tensors[0])
    assert difference_norm(op, full) <= 1e-12 * norm
    op.validate()
    # the signature of the reflection: bond j holds bond n-2-j's very vector
    bonds = op.gamma_vectors
    assert all(np.array_equal(a, b) for a, b in zip(bonds, bonds[::-1]))


def assert_bitwise_equal(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a.site_tensors, b.site_tensors))
    assert all(np.array_equal(x, y) for x, y in zip(a.gamma_vectors, b.gamma_vectors))


def carry_turns(law, bandwidth):
    return _turns(RotationScheme.parse(law), bandwidth)


@pytest.mark.parametrize("base", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 33, 64, 255, 1023])
def test_bulk_tensor(monkeypatch, n, base):
    op, _, (half, centre) = swept(monkeypatch, mpo._fourier_sweep, n, EXACT, base)
    assert_palindrome(half, centre)
    assert_matches_full_sweep(op, half, centre, EXACT)


@pytest.mark.parametrize("law,bandwidth,n", [
    *(("standard", 5, n) for n in (12, 13, 17, 18, 20, 24)),
    *(("standard", 9, n) for n in (12, 13, 18, 24)),
    # at n = 18 the widest bond is 512, the widest train a cascade takes
    *(("power-law:2", n, n) for n in (12, 13, 18)),
])
def test_carry_train(monkeypatch, law, bandwidth, n):
    op, _, (half, centre) = swept(
        monkeypatch, mpo._carry_sweep, n, carry_turns(law, bandwidth), EXACT)
    assert_palindrome(half, centre)
    assert_matches_full_sweep(op, half, centre, EXACT)


def test_qr_pass_covers_the_left_half(monkeypatch):
    # n // 2 QRs instead of n - 1, and n // 2 SVDs, one of them the
    # centre's; an even chain's join may take one polar factor more
    qrs, svds = [], []
    real_qr, real_svd = np.linalg.qr, _canonical._svd_matrix
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: qrs.append(1) or real_qr(*args, **kw))
    monkeypatch.setattr(_canonical, "_svd_matrix",
                        lambda *args, **kw: svds.append(1) or real_svd(*args, **kw))
    for n in (32, 33):
        qrs.clear()
        svds.clear()
        mpo.fourier_mpo(n, EXACT)
        assert len(qrs) == n // 2
        assert n // 2 <= len(svds) <= n // 2 + (n % 2 == 0)


@pytest.mark.parametrize("policy", [TruncationPolicy(1e-14, 4), TruncationPolicy(1e-10)],
                         ids=["capped", "cutoff"])
@pytest.mark.parametrize("build", [
    lambda policy: mpo._fourier_sweep(32, policy),
    lambda policy: mpo._fourier_sweep(33, policy, 3),
    lambda policy: mpo._carry_sweep(17, carry_turns("standard", 6), policy),
    lambda policy: mpo._carry_sweep(14, carry_turns("power-law:2", 14), policy),
], ids=["bulk", "bulk-base3", "carry", "carry-power-law"])
def test_truncating_policies_take_the_full_sweep(monkeypatch, build, policy):
    op, weight, (half, centre) = swept(monkeypatch, build, policy)
    full, full_weight = _sweep(_canonical.palindrome(half, centre, MIRROR), policy)
    assert_bitwise_equal(op, full)
    assert weight == full_weight


def test_binding_cap_takes_the_full_sweep(monkeypatch):
    # a cap of 8 binds on the first 13 of the 16 cuts of the outward pass;
    # the sweep gives way at the first, the centre's, told by its singular
    # values alone, and keeps the 16 QR factors of the half, the assembled
    # train's first: 16 + 15 QRs and 1 + 31 SVDs, not a whole outward pass
    # and a new sweep (16 + 31 each)
    qrs, svds = [], []
    real_qr, real_svd = np.linalg.qr, _canonical._svd_matrix
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: qrs.append(1) or real_qr(*args, **kw))
    monkeypatch.setattr(_canonical, "_svd_matrix",
                        lambda *args, **kw: svds.append(1) or real_svd(*args, **kw))
    op, weight, (half, centre) = swept(monkeypatch, mpo._fourier_sweep, 32,
                                      TruncationPolicy(1e-14, 8))
    assert (len(qrs), len(svds)) == (31, 32)
    uncapped = mpo.fourier_mpo(32, EXACT).bond_ranks
    assert [rank > 8 for rank in uncapped[15:]] == [True] * 13 + [False] * 3
    full, full_weight = _sweep(_canonical.palindrome(half, centre, MIRROR),
                               TruncationPolicy(1e-14, 8))
    assert_bitwise_equal(op, full)
    assert weight == full_weight
    assert max(op.bond_ranks) == 8


@pytest.mark.parametrize("n", [32, 33])
def test_reflected_bonds_count_their_source_cut(monkeypatch, n):
    # the outward pass cuts bonds n//2 - 1 + n % 2 .. n-2; every bond's
    # weight is that of the cut its vector came from, the reflected ones
    # included, and an even chain's centre counts once
    cuts = []
    real = _canonical._cut_bond

    def spy(mat, policy):
        result = real(mat, policy)
        cuts.append(float(np.sum(result[3] ** 2)))
        return result

    monkeypatch.setattr(_canonical, "_cut_bond", spy)
    _, weight = mpo._fourier_sweep(n, EXACT)
    assert len(cuts) == n // 2
    by_bond = dict(zip(range(n - 1 - len(cuts), n - 1), cuts))
    per_bond = [by_bond[max(b, n - 2 - b)] for b in range(n - 1)]
    assert weight == pytest.approx(sum(per_bond), rel=1e-12, abs=0.0)
    assert weight > 0.0


def test_gate_compile_counts_its_final_sweep(monkeypatch):
    # the steps' cut plus the final sweep's; on the transform the final
    # sweep finds the steps' ranks and cuts nothing, so a stand-in reports
    # a weight of its own
    steps = []
    real_update, real_sweep = circuits.two_site_update, circuits._sweep
    monkeypatch.setattr(circuits, "two_site_update",
                        lambda *args: steps.append(real_update(*args)) or steps[-1])
    monkeypatch.setattr(circuits, "_sweep",
                        lambda train, policy: (real_sweep(train, policy)[0], 0.25))
    trace = compile_trace(nearest_neighbor_qft_circuit(10), TruncationPolicy(1e-14, 4))
    weight = 0.0
    for step in steps:
        weight += step[3]
    assert weight > 1e-6
    assert trace.discarded_weight == weight + 0.25
