"""The mirrored sweep of `_canonical.canonicalize_train`, which reflects the
right half of a chain whose operator is unchanged by site reversal with
output and input legs swapped, against the full sweep of the same train,
past the dense caps: the bulk tensor of the transform and its base-3 kin,
and phase-carry trains. Where the reflection may not hold (a binding cap,
a cutoff above the noise floor, an asymmetric train) the sweep is the full
one, bit for bit."""

import numpy as np
import pytest

from conftest import difference_norm
from qftmpo import _canonical, circuits, mpo
from qftmpo.circuits import RotationScheme, _turns, compile_trace, nearest_neighbor_qft_circuit
from qftmpo.mpo import _sweep
from qftmpo.tensor import TruncationPolicy

EXACT = TruncationPolicy(1e-14)


def swept(monkeypatch, build, *args):
    """The chain ``build`` returns and the raw train it handed to
    `mpo._sweep`, which must ask for the mirrored sweep."""
    trains = []
    real = mpo._sweep

    def spy(train, policy, *, mirrored=False):
        assert mirrored
        trains.append(train)
        return real(train, policy, mirrored=mirrored)

    monkeypatch.setattr(mpo, "_sweep", spy)
    op, weight = build(*args)
    (train,) = trains
    return op, weight, train


def assert_matches_full_sweep(op, train, policy):
    full, _ = _sweep(train, policy)
    assert op.bond_ranks == full.bond_ranks
    for lam, ref in zip(op.gamma_vectors, full.gamma_vectors):
        assert np.max(np.abs(lam - ref)) <= 1e-12 * ref[0]
    assert difference_norm(op, full) <= 1e-12 * float(np.linalg.norm(full.gamma_vectors[0]))
    op.validate()
    # the signature of the reflection: bond j holds bond n-2-j's very vector
    bonds = op.gamma_vectors
    assert all(np.array_equal(a, b) for a, b in zip(bonds, bonds[::-1]))


def assert_bitwise_equal(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a.site_tensors, b.site_tensors))
    assert all(np.array_equal(x, y) for x, y in zip(a.gamma_vectors, b.gamma_vectors))


def carry_turns(law, bandwidth):
    return _turns(RotationScheme.parse(law), bandwidth)


@pytest.mark.parametrize("base", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 5, 32, 33, 64, 255, 1023])
def test_bulk_tensor(monkeypatch, n, base):
    op, _, train = swept(monkeypatch, mpo._fourier_sweep, n, EXACT, base)
    assert_matches_full_sweep(op, train, EXACT)


@pytest.mark.parametrize("law,bandwidth,n", [
    *(("standard", 5, n) for n in (12, 13, 17, 20, 24)),
    *(("standard", 9, n) for n in (12, 13, 24)),
    # at n = 18 the widest bond is 512, the widest train a cascade takes
    *(("power-law:2", n, n) for n in (12, 13, 18)),
])
def test_carry_train(monkeypatch, law, bandwidth, n):
    op, _, train = swept(monkeypatch, mpo._carry_sweep, n, carry_turns(law, bandwidth), EXACT)
    assert_matches_full_sweep(op, train, EXACT)


def test_right_pass_stops_at_the_centre(monkeypatch):
    # ceil(n/2) bond SVDs instead of n - 1, and one polar factor
    shapes = []
    real = _canonical._svd_matrix

    def spy(mat, compute_uv=True):
        shapes.append(mat.shape)
        return real(mat, compute_uv)

    monkeypatch.setattr(_canonical, "_svd_matrix", spy)
    for n in (32, 33):
        shapes.clear()
        op = mpo.fourier_mpo(n, EXACT)
        assert len(shapes) == (n + 1) // 2 + 1
        assert shapes[-1] == (op.bond_ranks[n // 2 - 1],) * 2


@pytest.mark.parametrize("policy", [TruncationPolicy(1e-14, 4), TruncationPolicy(1e-10)],
                         ids=["capped", "cutoff"])
@pytest.mark.parametrize("build", [
    lambda policy: mpo._fourier_sweep(32, policy),
    lambda policy: mpo._fourier_sweep(33, policy, 3),
    lambda policy: mpo._carry_sweep(17, carry_turns("standard", 6), policy),
    lambda policy: mpo._carry_sweep(14, carry_turns("power-law:2", 14), policy),
], ids=["bulk", "bulk-base3", "carry", "carry-power-law"])
def test_truncating_policies_take_the_full_sweep(monkeypatch, build, policy):
    op, weight, train = swept(monkeypatch, build, policy)
    full, full_weight = _sweep(train, policy)
    assert_bitwise_equal(op, full)
    assert weight == full_weight


@pytest.mark.parametrize("site", [3, 9])
def test_asymmetric_train_takes_the_full_sweep(monkeypatch, site):
    # one perturbed site, left or right of the centre, breaks the symmetry:
    # the gauge check runs and refuses, and the sweep runs on to bond 0
    train = list(mpo._carry_train(12, carry_turns("standard", 5)))
    train[site] = train[site] * np.array([1.0, 1.0, 1.0, 1.1])[None, :, None]
    gauges = []
    real = _canonical._mirror_gauge
    monkeypatch.setattr(_canonical, "_mirror_gauge",
                        lambda *args: gauges.append(real(*args)) or gauges[-1])
    op, weight = _sweep(train, EXACT, mirrored=True)
    assert gauges == [None]
    full, full_weight = _sweep(train, EXACT)
    assert_bitwise_equal(op, full)
    assert weight == full_weight


@pytest.mark.parametrize("n", [32, 33])
def test_reflected_bonds_count_their_source_cut(monkeypatch, n):
    # the half pass cuts bonds n-2 .. n//2 - 1; every bond's weight is that
    # of the cut its vector came from, the reflected ones included
    cuts = []
    real = _canonical._cut_bond

    def spy(mat, policy):
        result = real(mat, policy)
        cuts.append(float(np.sum(result[3] ** 2)))
        return result

    monkeypatch.setattr(_canonical, "_cut_bond", spy)
    _, weight = mpo._fourier_sweep(n, EXACT)
    assert len(cuts) == (n + 1) // 2
    by_bond = dict(zip(range(n - 2, -1, -1), cuts))
    per_bond = [by_bond[max(b, n - 2 - b)] for b in range(n - 1)]
    assert weight == pytest.approx(sum(per_bond), rel=1e-12)
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
