"""Self-checks of the dense reference implementations.

These run before anything trusts the oracle: unitarity and group structure
of the transform matrix, agreement between the two independent
periodic-state references (direct summation vs FFT), and hand-derived
values for small cases.
"""

import math

import numpy as np
import pytest

from qftmpo.errors import ResourceLimitError
from qftmpo.mps import CanonicalMps
from qftmpo.oracle import (
    bit_reversal_permutation,
    dense_circuit_matrix,
    dense_evolve,
    dense_operator_schmidt,
    dense_qft_matrix,
    periodic_output_distribution,
    periodic_peak_locations,
    periodic_peak_probabilities,
    periodic_support_count,
)

from conftest import random_state


class TestBitReversal:
    def test_small_cases(self):
        assert list(bit_reversal_permutation(1)) == [0, 1]
        assert list(bit_reversal_permutation(2)) == [0, 2, 1, 3]
        assert list(bit_reversal_permutation(3)) == [0, 4, 2, 6, 1, 5, 3, 7]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_involution(self, n):
        rev = bit_reversal_permutation(n)
        assert np.array_equal(rev[rev], np.arange(2**n))


class TestDenseQftMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_unitary(self, n):
        f = dense_qft_matrix(n)
        assert np.allclose(f.conj().T @ f, np.eye(2**n), atol=1e-13)

    def test_one_qubit_is_hadamard(self):
        f = dense_qft_matrix(1)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(f, h, atol=1e-15)

    def test_two_qubit_entries(self):
        # F[j,k] = i^(j*k) / 2 for N = 4
        f = dense_qft_matrix(2)
        want = np.array([[1j ** (j * k % 4) for k in range(4)] for j in range(4)]) / 2
        assert np.allclose(f, want, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fourth_power_is_identity(self, n):
        f = dense_qft_matrix(n)
        assert np.allclose(np.linalg.matrix_power(f, 4), np.eye(2**n), atol=1e-12)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("QFTMPO_DENSE_LIMIT", "4")
        with pytest.raises(ResourceLimitError):
            dense_qft_matrix(5)

    def test_malformed_cap_same_error_everywhere(self, monkeypatch):
        monkeypatch.setenv("QFTMPO_DENSE_LIMIT", "abc")
        with pytest.raises(ValueError) as oracle_err:
            dense_qft_matrix(3)
        with pytest.raises(ValueError) as state_err:
            CanonicalMps.from_basis_state(3, "010").to_dense()
        assert "QFTMPO_DENSE_LIMIT must be an integer" in str(oracle_err.value)
        assert str(oracle_err.value) == str(state_err.value)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("QFTMPO_DENSE_LIMIT", "2")
        with pytest.raises(ResourceLimitError):
            dense_qft_matrix(3)
        monkeypatch.setenv("QFTMPO_DENSE_LIMIT", "15")
        assert dense_qft_matrix(3).shape == (8, 8)


class TestOperatorSchmidt:
    def test_identity_is_rank_one(self):
        s = dense_operator_schmidt(np.eye(8), cut=1)
        assert np.sum(s > 1e-12 * s[0]) == 1
        # total operator weight is the Frobenius norm of I_8
        assert s[0] == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_cnot_rank_two(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], float)
        s = dense_operator_schmidt(cnot, cut=1)
        assert np.sum(s > 1e-12 * s[0]) == 2

    def test_swap_rank_four(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], float)
        s = dense_operator_schmidt(swap, cut=1)
        assert np.sum(s > 1e-12 * s[0]) == 4

    def test_total_weight_is_frobenius(self, rng):
        mat = rng.normal(size=(16, 16))
        s = dense_operator_schmidt(mat, cut=2)
        assert np.sum(s**2) == pytest.approx(np.sum(mat**2), rel=1e-12)

    def test_bad_cut(self):
        with pytest.raises(ValueError):
            dense_operator_schmidt(np.eye(8), cut=3)

    def test_non_square(self):
        with pytest.raises(ValueError):
            dense_operator_schmidt(np.zeros((4, 8)), cut=1)


class TestDenseEvolution:
    def test_output_gates_multiply_in_order(self, rng):
        # two non-commuting gates fix the order convention
        from qftmpo.circuits import CircuitSpec, GateSpec

        cz = np.diag([1, 1, 1, -1]).astype(complex)
        circ = CircuitSpec(2, (
            GateSpec("h", (0,)),
            GateSpec("generic", (0, 1), matrix=cz),
        ))
        vec = random_state(rng, 2)
        got = dense_evolve(vec, circ)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        want = cz @ np.kron(h, np.eye(2)) @ vec
        assert np.allclose(got, want, atol=1e-14)

    def test_both_sides_gate_conjugates(self, rng):
        from qftmpo.circuits import CircuitSpec, GateSpec

        circ = CircuitSpec(2, (GateSpec("swap", (0, 1), side="both"),))
        mat = dense_circuit_matrix(circ)
        # S I S^dag = I: a lone conjugation is invisible
        assert np.allclose(mat, np.eye(4), atol=1e-15)

    def test_matrix_matches_vector_evolution(self, rng):
        from qftmpo.circuits import nearest_neighbor_qft_circuit

        circ = nearest_neighbor_qft_circuit(3)
        mat = dense_circuit_matrix(circ)
        vec = random_state(rng, 3)
        assert np.allclose(mat @ vec, dense_evolve(vec, circ), atol=1e-13)

    def test_textbook_cascade_gives_reversed_output(self):
        # the cascade without swaps produces the transform with
        # bit-reversed output ordering
        from qftmpo.circuits import qft_circuit

        for n in (2, 3, 4):
            mat = dense_circuit_matrix(qft_circuit(n))
            f = dense_qft_matrix(n)
            rev = bit_reversal_permutation(n)
            assert np.allclose(mat, f[rev, :], atol=1e-13), n

    def test_nn_circuit_gives_reversed_input(self):
        from qftmpo.circuits import nearest_neighbor_qft_circuit

        for n in (2, 3, 4, 5):
            mat = dense_circuit_matrix(nearest_neighbor_qft_circuit(n))
            want = dense_qft_matrix(n)[:, bit_reversal_permutation(n)]
            assert np.allclose(mat, want, atol=1e-13), n

    def test_rejects_wrong_length(self):
        from qftmpo.circuits import nearest_neighbor_qft_circuit

        with pytest.raises(ValueError):
            dense_evolve(np.ones(6), nearest_neighbor_qft_circuit(2))


class TestPeriodicReferences:
    def test_support_count(self):
        assert periodic_support_count(4, 3, 0) == 6   # 0,3,6,9,12,15
        assert periodic_support_count(4, 3, 1) == 5   # 1,4,7,10,13
        assert periodic_support_count(4, 16, 0) == 1
        assert periodic_support_count(3, 1, 0) == 8

    def test_peak_locations_exact_divisor(self):
        # r divides 2^L: peaks exactly at multiples of 2^L/r
        assert list(periodic_peak_locations(4, 4)) == [0, 4, 8, 12]

    def test_peak_locations_rounding(self):
        # L=4, r=3: i*16/3 = 0, 5.33, 10.67 -> 0, 5, 11
        assert list(periodic_peak_locations(4, 3)) == [0, 5, 11]
        # L=3, r=5: 0, 1.6, 3.2, 4.8, 6.4 -> 0, 2, 3, 5, 6
        assert list(periodic_peak_locations(3, 5)) == [0, 2, 3, 5, 6]

    def test_half_integer_rounds_down(self):
        # r = 2^(L+1): every odd i lands exactly halfway and must round down
        assert list(periodic_peak_locations(3, 16)) == [
            0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7,
        ]

    def test_divisor_case_probabilities_are_uniform(self):
        # when r | 2^L every peak carries exactly 1/r and nothing is lost
        probs = periodic_peak_probabilities(6, 8)
        assert len(probs) == 8
        for m, p in probs.items():
            assert m % 8 == 0
            assert p == pytest.approx(1 / 8, abs=1e-13)

    @pytest.mark.parametrize(
        "L,r,k0", [(6, 3, 0), (8, 5, 2), (10, 6, 1), (10, 7, 0), (16, 7, 3), (20, 31, 0)]
    )
    def test_direct_sum_matches_fft(self, L, r, k0):
        probs = periodic_peak_probabilities(L, r, k0)
        dist = periodic_output_distribution(L, r, k0)
        for m, p in probs.items():
            assert p == pytest.approx(dist[m], abs=1e-13)

    @pytest.mark.parametrize("L,r", [(8, 3), (8, 5), (10, 9)])
    def test_peaks_capture_most_probability(self, L, r):
        # coprime-ish periods still concentrate > 0.7 of the output there
        probs = periodic_peak_probabilities(L, r)
        assert 0.7 < sum(probs.values()) <= 1.0 + 1e-12

    def test_offset_shifts_phase_not_peaks(self):
        # offsets multiply amplitudes by unit phases, so peak probabilities
        # agree whenever the support count matches (k0 = 1..4 all give 51
        # points at L = 8, r = 5; k0 = 0 gives 52 and may differ)
        assert periodic_support_count(8, 5, 1) == periodic_support_count(8, 5, 3)
        base = periodic_peak_probabilities(8, 5, 1)
        moved = periodic_peak_probabilities(8, 5, 3)
        for m in base:
            assert base[m] == pytest.approx(moved[m], abs=1e-12)

    def test_matches_transformed_state(self, rng):
        # independent path: build the dense state, evolve by the dense
        # transform matrix, and read the peak probabilities
        L, r, k0 = 8, 6, 1
        count = periodic_support_count(L, r, k0)
        psi = np.zeros(2**L, dtype=complex)
        psi[k0::r] = 1 / math.sqrt(count)
        out = dense_qft_matrix(L) @ psi
        probs = periodic_peak_probabilities(L, r, k0)
        for m, p in probs.items():
            assert p == pytest.approx(abs(out[m]) ** 2, abs=1e-13)

    def test_closed_form_at_the_widest_chain(self):
        # n = 1023: 2^n is near the float range, where the naive
        # num^2 / (c 2^n den^2) overflows to a probability of 0
        probs = periodic_peak_probabilities(1023, 31)
        assert len(probs) == 31
        assert all(math.isfinite(p) and p > 0 for p in probs.values())
        assert probs[0] == pytest.approx(1 / 31, rel=1e-15)
        assert 0.7 < sum(probs.values()) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            periodic_peak_probabilities(4, 16)
        with pytest.raises(ValueError):
            periodic_peak_probabilities(0, 1)
        with pytest.raises(ValueError):
            periodic_support_count(4, 3, 5)
        with pytest.raises(ValueError):
            periodic_support_count(4, 0)
