"""The sketched left pass of `_canonical.canonicalize_train`: where it
runs, that it is reproducible, and that it keeps the output exact both
where the sketch holds the output's range and where it saturates."""

import numpy as np
import pytest

from conftest import reference_apply
from qftmpo import _canonical
from qftmpo.circuits import compile_to_mpo, nearest_neighbor_qft_circuit
from qftmpo.mps import CanonicalMps
from qftmpo.tensor import TruncationPolicy
from test_sweep import assert_same_bonds, peak_probability, train_overlap

EXACT = TruncationPolicy(1e-14)


@pytest.fixture(scope="module")
def op20():
    return compile_to_mpo(nearest_neighbor_qft_circuit(20), TruncationPolicy(1e-14, 16))


@pytest.fixture(scope="module")
def op64():
    return compile_to_mpo(nearest_neighbor_qft_circuit(64), TruncationPolicy(1e-14, 16))


def qr_calls(monkeypatch):
    """Record (input shape, mode) of every `np.linalg.qr` call from now on."""
    calls = []
    real_qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        calls.append((a.shape, mode))
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return calls


def periodic_input(n, period):
    return CanonicalMps.from_periodic_state(n, period).reverse_qubits()


def test_periodic_apply_is_sketched(op20, monkeypatch):
    state = periodic_input(20, 31)
    width = 2 * max(state.bond_ranks) + 16
    calls = qr_calls(monkeypatch)
    out = op20.apply_to_mps(state, EXACT)
    assert any(mode == "reduced" for _, mode in calls)  # sketched bonds
    # the exact sweep factors 806 x 403 products here
    assert max(shape[0] for shape, _ in calls) <= 2 * width
    assert max(out.bond_ranks) == 58


def test_sketched_apply_is_reproducible(op20):
    state = periodic_input(20, 29)
    before = np.random.get_state()[1].copy()
    first = op20.apply_to_mps(state, EXACT)
    second = op20.apply_to_mps(state, EXACT)
    assert np.array_equal(np.random.get_state()[1], before)
    assert all(np.array_equal(a, b) for a, b in zip(first.gammas, second.gammas))
    assert all(np.array_equal(a, b) for a, b in zip(first.lambdas, second.lambdas))


@pytest.mark.parametrize("period", [29, 31])
def test_peaks_at_n64(op64, period):
    n = op64.n_qubits
    out = op64.apply_to_mps(periodic_input(n, period), EXACT)
    assert out.canonical_defect() <= 1e-12
    for i in range(period):
        q, rem = divmod(i * 2**n, period)  # peak nearest i 2^n / period
        y = q + (1 if 2 * rem > period else 0)
        got = abs(out.amplitude(format(y, f"0{n}b"))) ** 2
        assert abs(got - peak_probability(n, period, y)) <= 1e-12


@pytest.mark.parametrize(
    "reverse,policy",
    [(False, EXACT), (True, TruncationPolicy(1e-14, 12))],
    ids=["natural-uncapped", "reversed-capped"],
)
def test_saturated_sketch_falls_back_to_exact(op20, monkeypatch, reverse, policy):
    # natural input order gives output bonds of several hundred, and a cap
    # of 12 gives a sketch of 28 columns for an output rank of 58: both
    # saturate the sketch at its first try, and the sweep is then the
    # exact one, bit for bit
    state = CanonicalMps.from_periodic_state(20, 31)
    if reverse:
        state = state.reverse_qubits()
    calls = qr_calls(monkeypatch)
    out = op20.apply_to_mps(state, policy)
    assert [mode for _, mode in calls].count("reduced") == 1
    monkeypatch.setattr(_canonical, "_sketch_plan", lambda sites, policy: None)
    exact = op20.apply_to_mps(state, policy)
    assert all(np.array_equal(a, b) for a, b in zip(out.gammas, exact.gammas))
    assert all(np.array_equal(a, b) for a, b in zip(out.lambdas, exact.lambdas))
    if policy is EXACT:
        ref_g, ref_l, _ = reference_apply(op20, state, policy)
        got_g = list(out.gammas)
        assert abs(1 - train_overlap(got_g, out.lambdas, ref_g, ref_l)) <= 1e-12
        assert_same_bonds(out.lambdas, ref_l)
