import math

import numpy as np
import pytest

from qftmpo.errors import DimensionMismatchError, NonAdjacentGateError, NumericalError
from qftmpo.mpo import (
    MAX_OPERATOR_QUBITS,
    CanonicalMpo,
    from_dense_operator,
    hs_inner,
    identity_mpo,
    load_mpo,
    pair_operator,
    save_mpo,
)
from qftmpo.mps import CanonicalMps
from qftmpo.tensor import DenseTensor, TruncationPolicy

from conftest import random_state, random_unitary

EXACT = TruncationPolicy(1e-14)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


class TestIdentityMpo:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_dense_value(self, n):
        op = identity_mpo(n)
        op.validate()
        assert np.allclose(np.array(op.to_dense().data), np.eye(2**n), atol=1e-13)

    def test_worked_example_values(self):
        # hand-derived canonical data for the 3-site identity:
        # boundary tensors I/sqrt(2), interior I/(sqrt(2)*sqrt(8)),
        # every bond vector the single entry sqrt(8)
        op = identity_mpo(3)
        d = math.sqrt(8.0)
        for g in op.gamma_vectors:
            assert g.shape == (1,)
            assert g[0] == pytest.approx(d, rel=1e-14)
        eye = np.eye(2)
        assert np.allclose(op.site_tensors[0][0, :, :, 0], eye / math.sqrt(2), atol=1e-15)
        assert np.allclose(op.site_tensors[1][0, :, :, 0],
                           eye / (math.sqrt(2) * d), atol=1e-15)
        assert np.allclose(op.site_tensors[2][0, :, :, 0], eye / math.sqrt(2), atol=1e-15)

    def test_width_limit(self):
        # the squared norm 2^n of the widest chain is still a finite double
        assert math.isfinite(identity_mpo(MAX_OPERATOR_QUBITS).frobenius_norm() ** 2)
        with pytest.raises(ValueError, match=r"^operator chains need 1 <= n <= 1023 .* 1024$"):
            identity_mpo(MAX_OPERATOR_QUBITS + 1)

    def test_single_site(self):
        op = identity_mpo(1)
        assert op.frobenius_norm() == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_bond_weight_sums(self):
        # untruncated unitary: squared bond weights sum to 2^n on every bond
        op = identity_mpo(4)
        for g in op.gamma_vectors:
            assert np.sum(g**2) == pytest.approx(16.0, rel=1e-12)

    def test_validate_flags_bond_norm_mismatch(self):
        op = identity_mpo(3)
        bonds = (op.gamma_vectors[0], 2.0 * op.gamma_vectors[1])
        bad = CanonicalMpo(op.site_tensors, bonds)
        with pytest.raises(NumericalError, match="squared weight"):
            bad.validate()


class TestPairOperator:
    def test_output_side_identity_action(self, rng):
        gate = random_unitary(rng, 4)
        pair = pair_operator(gate, "output")
        assert pair.shape == (4, 4, 4, 4)
        # acting on vectorized identity pairs must reproduce the gate
        theta = np.zeros((1, 4, 4, 1), dtype=complex)
        theta[0, :, :, 0] = np.eye(4).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        out = np.einsum("xypq,apqc->axyc", pair, theta)[0, :, :, 0]
        got = out.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        assert np.allclose(got, gate, atol=1e-13)

    def test_both_sides_identity_invisible(self, rng):
        gate = random_unitary(rng, 4)
        pair = pair_operator(gate, "both")
        theta = np.zeros((1, 4, 4, 1), dtype=complex)
        theta[0, :, :, 0] = np.eye(4).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        out = np.einsum("xypq,apqc->axyc", pair, theta)[0, :, :, 0]
        got = out.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        assert np.allclose(got, np.eye(4), atol=1e-13)

    def test_bad_side(self, rng):
        with pytest.raises(ValueError):
            pair_operator(np.eye(4), "left")


class TestAbsorbGate:
    def test_single_qubit_output(self):
        op = identity_mpo(2).absorb_gate(0, HADAMARD, EXACT)
        op.validate()
        want = np.kron(HADAMARD, np.eye(2))
        assert np.allclose(np.array(op.to_dense().data), want, atol=1e-13)

    def test_single_qubit_both_sides(self):
        op = identity_mpo(2).absorb_gate(1, HADAMARD, EXACT, side="both")
        # H I H^dag = I
        assert np.allclose(np.array(op.to_dense().data), np.eye(4), atol=1e-13)

    def test_two_qubit_output(self, rng):
        gate = random_unitary(rng, 4)
        op = identity_mpo(3).absorb_gate(1, gate, EXACT)
        op.validate()
        want = np.kron(np.eye(2), gate)
        assert np.allclose(np.array(op.to_dense().data), want, atol=1e-12)

    def test_gate_composition_order(self, rng):
        a = random_unitary(rng, 4)
        b = random_unitary(rng, 4)
        op = identity_mpo(2).absorb_gate(0, a, EXACT).absorb_gate(0, b, EXACT)
        assert np.allclose(np.array(op.to_dense().data), b @ a, atol=1e-12)

    def test_both_sides_two_qubit(self, rng):
        gate = random_unitary(rng, 4)
        base = identity_mpo(2).absorb_gate(0, CNOT, EXACT)
        op = base.absorb_gate(0, gate, EXACT, side="both")
        want = gate @ CNOT @ gate.conj().T
        assert np.allclose(np.array(op.to_dense().data), want, atol=1e-12)

    def test_site_range(self):
        with pytest.raises(NonAdjacentGateError):
            identity_mpo(3).absorb_gate(2, CNOT, EXACT)


class TestEntanglementMeasures:
    def test_cnot_strength_is_one(self):
        op = identity_mpo(2).absorb_gate(0, CNOT, EXACT)
        assert op.schmidt_strength() == pytest.approx(1.0, abs=1e-10)

    def test_swap_strength_is_two(self):
        op = identity_mpo(2).absorb_gate(0, SWAP, EXACT)
        assert op.schmidt_strength() == pytest.approx(2.0, abs=1e-10)

    def test_identity_strength_is_zero(self):
        assert identity_mpo(4).schmidt_strength() == pytest.approx(0.0, abs=1e-12)

    def test_hartley_counts_ranks(self):
        op = identity_mpo(2).absorb_gate(0, SWAP, EXACT)
        assert op.hartley_strength() == pytest.approx(2.0, abs=1e-10)

    def test_bond_probabilities_normalized(self, rng):
        gate = random_unitary(rng, 4)
        op = identity_mpo(3).absorb_gate(0, gate, EXACT).absorb_gate(1, gate, EXACT)
        for bond in range(2):
            p = op.bond_probability_distribution(bond)
            assert np.sum(p) == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(p) <= 1e-15)


class TestDenseRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_from_dense_to_dense(self, rng, n):
        mat = random_unitary(rng, 2**n)
        op = from_dense_operator(mat, EXACT)
        op.validate()
        assert np.allclose(np.array(op.to_dense().data), mat, atol=1e-12)

    def test_from_dense_matches_gate_absorption(self, rng):
        gate = random_unitary(rng, 4)
        via_absorb = identity_mpo(2).absorb_gate(0, gate, EXACT)
        via_dense = from_dense_operator(gate, EXACT)
        assert np.allclose(np.array(via_absorb.to_dense().data),
                           np.array(via_dense.to_dense().data), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_dense_operator(np.zeros((4, 8)), EXACT)


class TestApplyToMps:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dense_matvec(self, rng, n):
        gate = random_unitary(rng, 4)
        op = identity_mpo(n).absorb_gate(0, gate, EXACT)
        if n > 2:
            op = op.absorb_gate(n - 2, gate, EXACT)
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec, EXACT)
        out = op.apply_to_mps(st, EXACT)
        out.validate()
        want = np.array(op.to_dense().data) @ vec
        want /= np.linalg.norm(want)
        assert np.allclose(np.array(out.to_dense().data), want, atol=1e-12)

    def test_size_mismatch(self, rng):
        op = identity_mpo(3)
        st = CanonicalMps.from_basis_state(2, (0, 0))
        with pytest.raises(DimensionMismatchError):
            op.apply_to_mps(st, EXACT)


class TestHsInner:
    def test_self_inner_is_one(self, rng):
        gate = random_unitary(rng, 4)
        op = identity_mpo(3).absorb_gate(1, gate, EXACT)
        assert hs_inner(op, op) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_trace(self, rng):
        a_gate = random_unitary(rng, 4)
        b_gate = random_unitary(rng, 4)
        a = identity_mpo(3).absorb_gate(0, a_gate, EXACT)
        b = identity_mpo(3).absorb_gate(1, b_gate, EXACT)
        want = np.trace(np.array(a.to_dense().data).conj().T
                        @ np.array(b.to_dense().data)) / 8
        assert hs_inner(a, b) == pytest.approx(want, abs=1e-12)

    def test_orthogonal_operators(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        a = identity_mpo(2)
        b = identity_mpo(2).absorb_gate(0, np.kron(x, np.eye(2)), EXACT)
        assert abs(hs_inner(a, b)) < 1e-12


class TestRecanonicalize:
    def test_rank_truncation(self, rng):
        # build a rank-4 operator, truncate to rank 2
        gate = random_unitary(rng, 4)
        op = identity_mpo(2).absorb_gate(0, gate, EXACT)
        trunc = op.recanonicalize(TruncationPolicy(0.0, 2))
        assert max(trunc.bond_ranks) <= 2
        # weight ordering means the kept part dominates
        overlap = hs_inner(trunc, op)
        assert overlap.real > 0.4

    def test_noop_preserves_operator(self, rng):
        gate = random_unitary(rng, 4)
        op = identity_mpo(3).absorb_gate(1, gate, EXACT)
        again = op.recanonicalize(EXACT)
        assert np.allclose(np.array(again.to_dense().data),
                           np.array(op.to_dense().data), atol=1e-12)


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        gate = random_unitary(rng, 4)
        op = identity_mpo(3).absorb_gate(0, gate, EXACT).absorb_gate(1, gate, EXACT)
        path = tmp_path / "op.mpo"
        save_mpo(op, path, policy=EXACT, circuit_fingerprint="abc123")
        back = load_mpo(path)
        back.validate()
        assert back.bond_ranks == op.bond_ranks
        assert np.allclose(np.array(back.to_dense().data),
                           np.array(op.to_dense().data), atol=1e-13)

    def test_sidecar(self, tmp_path):
        import json

        op = identity_mpo(2)
        path = tmp_path / "i.mpo"
        save_mpo(op, path, circuit_fingerprint="fp")
        meta = json.loads((tmp_path / "i.mpo.json").read_text())
        assert meta["n_qubits"] == 2
        assert meta["circuit_fingerprint"] == "fp"
        assert "bond_spectra" in meta
