import math

import numpy as np
import pytest

from qftmpo.errors import DimensionMismatchError, NonAdjacentGateError, NumericalError
from qftmpo.mps import CanonicalMps, load_mps, save_mps
from qftmpo.oracle import periodic_support_count
from qftmpo.tensor import TruncationPolicy

from conftest import random_state, random_unitary

EXACT = TruncationPolicy(1e-14)


def dense_periodic(n, r, k0=0):
    vec = np.zeros(2**n, dtype=complex)
    vec[k0::r] = 1.0
    return vec / np.linalg.norm(vec)


class TestConstruction:
    @pytest.mark.parametrize("bits", [(0,), (1,), (0, 1, 1), (1, 0, 1, 0)])
    def test_basis_state(self, bits):
        st = CanonicalMps.from_basis_state(len(bits), bits)
        st.validate()
        vec = np.array(st.to_dense().data)
        index = int("".join(str(b) for b in bits), 2)
        want = np.zeros(2 ** len(bits))
        want[index] = 1.0
        assert np.allclose(vec, want, atol=1e-14)
        assert st.bond_ranks == (1,) * (len(bits) - 1)

    def test_basis_state_bad_bits(self):
        with pytest.raises(ValueError):
            CanonicalMps.from_basis_state(2, (0, 2))
        with pytest.raises(ValueError):
            CanonicalMps.from_basis_state(3, (0, 1))

    @pytest.mark.parametrize("n,r,k0", [
        (3, 1, 0), (4, 2, 0), (4, 2, 1), (4, 3, 0), (5, 5, 2),
        (6, 7, 3), (6, 12, 5), (1, 1, 0),
    ])
    def test_periodic_state_matches_dense(self, n, r, k0):
        st = CanonicalMps.from_periodic_state(n, r, k0)
        st.validate()
        assert np.allclose(np.array(st.to_dense().data), dense_periodic(n, r, k0), atol=1e-12)

    def test_periodic_bond_rank_bounded_by_period(self):
        st = CanonicalMps.from_periodic_state(10, 6, 1)
        assert max(st.bond_ranks) <= 6

    def test_periodic_norm_uses_support_count(self):
        n, r, k0 = 5, 3, 2
        st = CanonicalMps.from_periodic_state(n, r, k0)
        amp = st.amplitude(tuple(int(b) for b in format(k0, f"0{n}b")))
        assert abs(amp) ** 2 == pytest.approx(1 / periodic_support_count(n, r, k0), rel=1e-12)

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            CanonicalMps.from_periodic_state(4, 0)
        with pytest.raises(ValueError):
            CanonicalMps.from_periodic_state(4, 16)
        with pytest.raises(ValueError):
            CanonicalMps.from_periodic_state(4, 3, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_from_dense_roundtrip(self, rng, n):
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec, EXACT)
        st.validate()
        assert np.allclose(np.array(st.to_dense().data), vec, atol=1e-12)

    def test_from_dense_rejects_unnormalized(self, rng):
        with pytest.raises(ValueError):
            CanonicalMps.from_dense(np.ones(4), EXACT)

    def test_from_dense_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CanonicalMps.from_dense(np.ones(6) / math.sqrt(6), EXACT)


class TestStructure:
    def test_lambda_normalization(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 4), EXACT)
        for lam in st.lambdas:
            assert np.sum(lam**2) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(lam) <= 1e-15)
            assert np.all(lam > 0)

    def test_bond_spectrum_copies(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 3), EXACT)
        lam = st.bond_spectrum(0)
        lam[0] = -1.0
        assert st.lambdas[0][0] > 0

    def test_structural_validation(self):
        from qftmpo.tensor import DenseTensor

        good = CanonicalMps.from_basis_state(2, (0, 0))
        with pytest.raises(DimensionMismatchError):
            CanonicalMps(gammas=good.gammas, lambdas=(np.array([0.5, 0.5]),))

    def test_canonical_defect_small(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 6), EXACT)
        assert st.canonical_defect() < 1e-12

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_bond_vectors_are_schmidt_coefficients(self, rng, cut):
        n = 4
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec, EXACT)
        want = np.linalg.svd(vec.reshape(2**cut, 2 ** (n - cut)), compute_uv=False)
        got = st.bond_spectrum(cut - 1)
        assert np.allclose(got, want[: len(got)], atol=1e-12)

    def test_validate_flags_broken_state(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 3), EXACT)
        bad_gammas = list(st.gammas)
        bad_gammas[1] = st.gammas[1] * 2.0
        bad = CanonicalMps(gammas=tuple(bad_gammas), lambdas=st.lambdas)
        with pytest.raises(NumericalError):
            bad.validate()


class TestReverseQubits:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_dense_reversal(self, rng, n):
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec, EXACT)
        rev = st.reverse_qubits()
        rev.validate()
        want = vec.reshape((2,) * n).transpose(*reversed(range(n))).reshape(-1)
        assert np.allclose(np.array(rev.to_dense().data), want, atol=1e-12)

    def test_involution(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 4), EXACT)
        back = st.reverse_qubits().reverse_qubits()
        assert np.allclose(np.array(back.to_dense().data),
                           np.array(st.to_dense().data), atol=1e-13)


class TestAmplitude:
    def test_matches_dense(self, rng):
        n = 5
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec, EXACT)
        for index in (0, 3, 17, 31):
            bits = tuple(int(b) for b in format(index, f"0{n}b"))
            assert st.amplitude(bits) == pytest.approx(vec[index], abs=1e-12)

    def test_first_bit_is_most_significant(self):
        st = CanonicalMps.from_basis_state(3, (1, 0, 0))
        assert abs(st.amplitude((1, 0, 0))) == pytest.approx(1.0, abs=1e-14)
        vec = np.array(st.to_dense().data)
        assert abs(vec[4]) == pytest.approx(1.0, abs=1e-14)

    def test_bad_bits(self, rng):
        st = CanonicalMps.from_basis_state(3, (0, 0, 0))
        with pytest.raises(ValueError):
            st.amplitude((0, 0))


class TestGateApplication:
    @pytest.mark.parametrize("site", [0, 1, 2])
    def test_matches_dense_unitary(self, rng, site):
        n = 4
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec, EXACT)
        gate = random_unitary(rng, 4)
        out = st.apply_two_qubit_gate(site, gate, EXACT)
        out.validate()
        big = np.kron(np.kron(np.eye(2**site), gate), np.eye(2 ** (n - site - 2)))
        assert np.allclose(np.array(out.to_dense().data), big @ vec, atol=1e-12)

    def test_norm_preserved_under_truncation(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 6), EXACT)
        gate = random_unitary(rng, 4)
        out = st.apply_two_qubit_gate(2, gate, TruncationPolicy(0.0, 2))
        total = sum(abs(out.amplitude(tuple(int(b) for b in format(i, "06b")))) ** 2
                    for i in range(64))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_return_weight(self, rng):
        st = CanonicalMps.from_dense(random_state(rng, 4), EXACT)
        gate = random_unitary(rng, 4)
        out, weight = st.apply_two_qubit_gate(1, gate, EXACT, return_weight=True)
        assert weight < 1e-20
        out2, weight2 = st.apply_two_qubit_gate(1, gate, TruncationPolicy(0.0, 1),
                                                return_weight=True)
        assert weight2 > 1e-6

    def test_site_out_of_range(self, rng):
        st = CanonicalMps.from_basis_state(3, (0, 0, 0))
        with pytest.raises(NonAdjacentGateError):
            st.apply_two_qubit_gate(2, np.eye(4), EXACT)

    def test_rejects_non_unitary(self, rng):
        st = CanonicalMps.from_basis_state(3, (0, 0, 0))
        with pytest.raises(ValueError):
            st.apply_two_qubit_gate(0, np.ones((4, 4)), EXACT)


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        st = CanonicalMps.from_dense(random_state(rng, 5), EXACT)
        path = tmp_path / "state.mps"
        save_mps(st, path, policy=EXACT)
        back = load_mps(path)
        back.validate()
        assert back.bond_ranks == st.bond_ranks
        assert np.allclose(np.array(back.to_dense().data),
                           np.array(st.to_dense().data), atol=1e-14)

    def test_sidecar_metadata(self, tmp_path):
        import json

        st = CanonicalMps.from_periodic_state(4, 3)
        path = tmp_path / "p.mps"
        save_mps(st, path, policy=TruncationPolicy(1e-10, 7))
        meta = json.loads((tmp_path / "p.mps.json").read_text())
        assert meta["n_qubits"] == 4
        assert meta["bond_ranks"] == list(st.bond_ranks)
        assert meta["policy"]["rel_cutoff"] == 1e-10
        assert meta["policy"]["max_rank"] == 7

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mps"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError):
            load_mps(path)
