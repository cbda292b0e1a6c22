"""The triangular-factor sweep of `_canonical.canonicalize_train` against
the QR-based sweep it replaced (`conftest.reference_canonicalize_train`),
through all three callers: `apply_to_mps`, `recanonicalize` and
`from_periodic_state`."""

import math

import numpy as np
import pytest

from conftest import reference_apply, reference_canonicalize_train
from qftmpo import _canonical
from qftmpo.circuits import compile_to_mpo, nearest_neighbor_qft_circuit
from qftmpo.mpo import hs_inner, identity_mpo
from qftmpo.mps import CanonicalMps
from qftmpo.oracle import periodic_peak_locations
from qftmpo.tensor import TruncationPolicy

EXACT = TruncationPolicy(1e-14)
PERIODS = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.fixture(scope="module")
def op20():
    return compile_to_mpo(nearest_neighbor_qft_circuit(20), TruncationPolicy(1e-14, 16))


@pytest.fixture(scope="module")
def op48():
    return compile_to_mpo(nearest_neighbor_qft_circuit(48), TruncationPolicy(1e-14, 16))


def train_overlap(a_sites, a_bonds, b_sites, b_bonds) -> complex:
    """<a|b> of two chains given as canonical (gammas, bond vectors)."""
    env = np.ones((1, 1), dtype=np.complex128)
    for sa, sb in zip(_canonical.train_from_vidal(a_sites, a_bonds),
                      _canonical.train_from_vidal(b_sites, b_bonds)):
        env = np.tensordot(env, sa.conj(), axes=(0, 0))
        env = np.tensordot(env, sb, axes=((0, 1), (0, 1)))
    return complex(env[0, 0])


def assert_same_bonds(got, want):
    """Bond vectors agree on their common prefix to 1e-12 of the bond
    maximum; a rank may differ only by values at the noise floor."""
    assert len(got) == len(want)
    for lam, ref in zip(got, want):
        k = min(len(lam), len(ref))
        scale = ref[0]
        assert np.max(np.abs(lam[:k] - ref[:k])) <= 1e-12 * scale
        extra = lam[k:] if len(lam) > k else ref[k:]
        assert np.all(extra < 2e-14 * scale)


def peak_probability(n, period, y):
    """|<y|F|periodic>|^2 in closed form: a geometric series over the
    count = ceil(2^n / period) support points, with the phase y * period
    reduced modulo 2^n in integers so no cancellation occurs."""
    size = 2**n
    count = (size - 1) // period + 1
    ph = (y * period) % size
    if ph == 0:
        return count / size

    def sin_pi(a):
        return math.sin(math.pi * min(a, size - a) / size)

    return (sin_pi((count * ph) % size) / sin_pi(ph)) ** 2 / (count * size)


def seeded_bits(n, count, seed=20261018):
    rng = np.random.default_rng(seed)
    return [tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(count)]


class TestApplyMatchesReference:
    @pytest.mark.parametrize(
        "state",
        [("r", r) for r in PERIODS] + [("bits", b) for b in seeded_bits(20, 8)],
        ids=[f"r{r}" for r in PERIODS] + [f"bits{i}" for i in range(8)],
    )
    @pytest.mark.parametrize("reverse", [True, False], ids=["reversed", "natural"])
    def test_n20(self, op20, state, reverse):
        # reversed input is the transform's convention; natural input
        # gives output bonds of several hundred to truncate
        kind, value = state
        if kind == "r":
            st = CanonicalMps.from_periodic_state(20, value)
        else:
            st = CanonicalMps.from_basis_state(20, value)
        if reverse:
            st = st.reverse_qubits()
        out = op20.apply_to_mps(st, EXACT)
        ref_g, ref_l, _ = reference_apply(op20, st, EXACT)
        got_g = list(out.gammas)
        assert abs(1 - train_overlap(got_g, out.lambdas, ref_g, ref_l)) <= 1e-12
        assert_same_bonds(out.lambdas, ref_l)
        assert out.canonical_defect() <= 1e-12

    @pytest.mark.parametrize("period", [3, 7, 31])
    def test_peaks_past_dense_caps(self, op48, period):
        n = op48.n_qubits
        out = op48.apply_to_mps(CanonicalMps.from_periodic_state(n, period).reverse_qubits(),
                              EXACT)
        assert out.canonical_defect() <= 1e-12
        for y in periodic_peak_locations(n, period):
            bits = format(int(y), f"0{n}b")
            got = abs(out.amplitude(bits)) ** 2
            assert abs(got - peak_probability(n, period, int(y))) <= 1e-12

    def test_single_site(self):
        op = identity_mpo(1)
        st = CanonicalMps.from_basis_state(1, "1")
        out = op.apply_to_mps(st, EXACT)
        assert np.allclose(out.to_dense(), [0, 1], atol=1e-15)


class TestRecanonicalizeMatchesReference:
    @pytest.mark.parametrize("n", [20, 30])
    def test_untruncated(self, n):
        op = compile_to_mpo(nearest_neighbor_qft_circuit(n), EXACT)
        again = op.recanonicalize(EXACT)
        assert again.bond_ranks == op.bond_ranks
        assert_same_bonds(again.gamma_vectors, op.gamma_vectors)
        assert abs(1 - hs_inner(op, again)) <= 1e-12
        assert again.canonical_defect() <= 1e-12

    @pytest.mark.parametrize("n", [20, 30])
    def test_rank_caps(self, n):
        op = compile_to_mpo(nearest_neighbor_qft_circuit(n), EXACT)
        train = _canonical.train_from_vidal(op._fused_sites(), op.gamma_vectors)
        for cap in range(2, 11):
            policy = TruncationPolicy(1e-14, cap)
            got_g, got_l, got_w = _canonical.canonicalize_train(train, policy, normalize=False)
            ref_g, ref_l, ref_w = reference_canonicalize_train(train, policy, normalize=False)
            assert [len(lam) for lam in got_l] == [len(lam) for lam in ref_l]
            assert got_w == pytest.approx(ref_w, rel=1e-9, abs=1e-12)
            assert_same_bonds(got_l, ref_l)
            assert abs(1 - train_overlap(got_g, got_l, ref_g, ref_l)
                       / train_overlap(ref_g, ref_l, ref_g, ref_l)) <= 1e-12
            trunc = op.recanonicalize(policy)
            assert trunc.bond_ranks == tuple(len(lam) for lam in ref_l)
            # one truncating sweep leaves the left conditions off at cut
            # bonds, by the same amount in both sweeps
            ref_defect = _canonical.canonical_defect(ref_g, ref_l, normalize=False)
            assert abs(trunc.canonical_defect() - ref_defect) <= 1e-12
            assert abs(hs_inner(trunc, trunc) - float(np.sum(ref_l[0] ** 2)) / 2**n) <= 1e-12


class TestPeriodicStateMatchesReference:
    @pytest.mark.parametrize("n,period,offset", [(6, 5, 2), (12, 7, 3), (20, 31, 0), (24, 12, 5)])
    def test_against_reference_sweep(self, monkeypatch, n, period, offset):
        got = CanonicalMps.from_periodic_state(n, period, offset)
        monkeypatch.setattr(_canonical, "canonicalize_train", reference_canonicalize_train)
        ref = CanonicalMps.from_periodic_state(n, period, offset)
        assert got.bond_ranks == ref.bond_ranks
        assert_same_bonds(got.lambdas, ref.lambdas)
        overlap = train_overlap(list(got.gammas), got.lambdas,
                                list(ref.gammas), ref.lambdas)
        assert abs(1 - overlap) <= 1e-12
        assert got.canonical_defect() <= 1e-12
