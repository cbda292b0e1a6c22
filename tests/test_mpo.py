import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qftmpo import _canonical
from qftmpo.circuits import (
    CircuitSpec,
    GateSpec,
    RotationScheme,
    _AngleSource,
    _lift,
    _nn_cascade,
    aqft_circuit,
    compile_to_mpo,
    generalized_circuit,
    nearest_neighbor_qft_circuit,
)
from qftmpo.errors import DimensionMismatchError, NumericalError
from qftmpo.mpo import (
    FOURIER_NODES,
    MAX_OPERATOR_QUBITS,
    CanonicalMpo,
    _carry_rank,
    _carry_sweep,
    _carry_train,
    _chebyshev_bound,
    _fourier_site,
    _lagrange,
    _node_count,
    _sweep,
    aqft_mpo,
    fourier_mpo,
    from_dense_operator,
    hs_inner,
    identity_mpo,
    load_mpo,
    save_mpo,
)
from qftmpo.mps import CanonicalMps
from qftmpo.oracle import bit_reversal_permutation, dense_operator_schmidt, dense_qft_matrix
from qftmpo.tensor import NOISE_FLOOR, TruncationPolicy

from conftest import (
    cascade_entry,
    difference_norm,
    einsum_pair_operator,
    fourier_entry,
    gate_mpo,
    operator_entry,
    random_state,
    random_unitary,
    reference_fourier_train,
)

EXACT = TruncationPolicy(1e-14)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


class TestIdentityMpo:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_dense_value(self, n):
        op = identity_mpo(n)
        op.validate()
        assert np.allclose(op.to_dense(), np.eye(2**n), atol=1e-13)

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
        assert np.allclose(op.site_tensors[1][0, :, :, 0], eye / (math.sqrt(2) * d), atol=1e-15)
        assert np.allclose(op.site_tensors[2][0, :, :, 0], eye / math.sqrt(2), atol=1e-15)

    def test_width_limit(self):
        # the squared norm 2^n of the widest chain is still a finite double
        assert math.isfinite(np.sum(identity_mpo(MAX_OPERATOR_QUBITS).gamma_vectors[0] ** 2))
        with pytest.raises(ValueError, match=r"^operator chains need 1 <= n <= 1023 .* 1024$"):
            identity_mpo(MAX_OPERATOR_QUBITS + 1)

    def test_single_site(self):
        # no bond vector: the one site carries the Frobenius norm sqrt(2)
        op = identity_mpo(1)
        assert op.gamma_vectors == ()
        assert np.linalg.norm(op.site_tensors[0]) == pytest.approx(math.sqrt(2), rel=1e-14)

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
    """`circuits._lift` of one two-site gate, a Kronecker lift regrouped
    into fused legs, against the einsum lift of the test reference."""

    @staticmethod
    def identity_action(pair):
        # the lifted operator acting on the vectorized identity of a pair
        theta = np.eye(4).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)
        out = pair @ theta
        return out.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)

    @pytest.mark.parametrize("spec", [
        GateSpec("cphase", (0, 1), angle=0.3),
        GateSpec("swap", (0, 1), side="both"),
    ], ids=["output", "both"])
    def test_lift_matches_einsum_reference(self, spec):
        # the two pair lifts of the nearest-neighbour cascades
        pair = _lift((spec,), {})
        assert pair.shape == (16, 16)
        want = einsum_pair_operator(spec.dense_matrix(), spec.side).reshape(16, 16)
        assert np.array_equal(pair, want)

    @pytest.mark.parametrize("side", ["output", "both"])
    def test_generic_lift_matches_einsum_reference(self, rng, side):
        gate = random_unitary(rng, 4)
        pair = _lift((GateSpec("generic", (0, 1), matrix=gate, side=side),), {})
        want = einsum_pair_operator(gate, side).reshape(16, 16)
        # bit for bit on the output side; on both sides kron's complex
        # products g * conj(g') may round differently from einsum's
        tol = 0.0 if side == "output" else 4 * np.finfo(float).eps
        assert np.max(np.abs(pair - want)) <= tol

    def test_output_side_identity_action(self, rng):
        gate = random_unitary(rng, 4)
        pair = _lift((GateSpec("generic", (0, 1), matrix=gate),), {})
        assert np.allclose(self.identity_action(pair), gate, atol=1e-13)

    def test_both_sides_identity_invisible(self, rng):
        gate = random_unitary(rng, 4)
        pair = _lift((GateSpec("generic", (0, 1), matrix=gate, side="both"),), {})
        assert np.allclose(self.identity_action(pair), np.eye(4), atol=1e-13)


class TestAbsorbGate:
    """Gates absorbed by the compiler act on the operator as matrices do."""

    def test_single_qubit_output(self):
        op = gate_mpo(2, ((0,), HADAMARD))
        op.validate()
        want = np.kron(HADAMARD, np.eye(2))
        assert np.allclose(op.to_dense(), want, atol=1e-13)

    def test_single_qubit_both_sides(self):
        op = gate_mpo(2, ((1,), HADAMARD, "both"))
        # H I H^dag = I
        assert np.allclose(op.to_dense(), np.eye(4), atol=1e-13)

    def test_two_qubit_output(self, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(3, ((1, 2), gate))
        op.validate()
        want = np.kron(np.eye(2), gate)
        assert np.allclose(op.to_dense(), want, atol=1e-12)

    def test_gate_composition_order(self, rng):
        a = random_unitary(rng, 4)
        b = random_unitary(rng, 4)
        op = gate_mpo(2, ((0, 1), a), ((0, 1), b))
        assert np.allclose(op.to_dense(), b @ a, atol=1e-12)

    def test_both_sides_two_qubit(self, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(2, ((0, 1), CNOT), ((0, 1), gate, "both"))
        want = gate @ CNOT @ gate.conj().T
        assert np.allclose(op.to_dense(), want, atol=1e-12)


class TestEntanglementMeasures:
    def test_cnot_strength_is_one(self):
        op = gate_mpo(2, ((0, 1), CNOT))
        assert op.schmidt_strength() == pytest.approx(1.0, abs=1e-10)

    def test_swap_strength_is_two(self):
        op = gate_mpo(2, ((0, 1), SWAP))
        assert op.schmidt_strength() == pytest.approx(2.0, abs=1e-10)

    def test_identity_strength_is_zero(self):
        assert identity_mpo(4).schmidt_strength() == pytest.approx(0.0, abs=1e-12)

    def test_bond_probabilities_normalized(self, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(3, ((0, 1), gate), ((1, 2), gate))
        for bond in range(2):
            p = op.bond_probability_distribution(bond)
            assert np.sum(p) == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(p) <= 1e-15)


class TestDenseRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_from_dense_to_dense(self, rng, n):
        mat = random_unitary(rng, 2**n)
        op = from_dense_operator(mat)
        op.validate()
        assert np.allclose(op.to_dense(), mat, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_to_dense_matches_the_contracted_sites(self, rng, n):
        # site by site, outputs before inputs: an independent contraction
        op = from_dense_operator(random_unitary(rng, 2**n))
        acc = np.ones((1, 1, 1))  # (outputs, inputs, bond)
        for site in _canonical.train_from_vidal(op.site_tensors, op.gamma_vectors):
            grown = np.einsum("oil,lyxr->oyixr", acc, site)
            acc = grown.reshape(2 * acc.shape[0], 2 * acc.shape[1], -1)
        dense = op.to_dense()
        assert dense.shape == (2**n, 2**n) and not dense.flags.writeable
        assert np.max(np.abs(dense - acc.reshape(2**n, 2**n))) <= 1e-14

    def test_from_dense_matches_gate_absorption(self, rng):
        gate = random_unitary(rng, 4)
        via_absorb = gate_mpo(2, ((0, 1), gate))
        via_dense = from_dense_operator(gate)
        assert np.allclose(via_absorb.to_dense(), via_dense.to_dense(), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_dense_operator(np.zeros((4, 8)))

    def test_rejects_zero_qubits(self):
        with pytest.raises(DimensionMismatchError, match="at least one qubit"):
            from_dense_operator(np.ones((1, 1)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError, match="dimension 0 is not a power of two"):
            from_dense_operator(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_zero_operator(self, n):
        # the single-site sweep refuses a zero chain as the bond SVDs do
        with pytest.raises(NumericalError, match="zero vector"):
            from_dense_operator(np.zeros((2**n, 2**n)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bond_vectors_are_operator_schmidt_coefficients(self, rng, n):
        mat = random_unitary(rng, 2**n)
        op = from_dense_operator(mat)
        for cut in range(1, n):
            want = dense_operator_schmidt(mat, cut)
            got = op.gamma_vectors[cut - 1]
            assert len(got) == len(want)
            assert np.max(np.abs(got - want)) <= 1e-12 * want[0]


class TestApplyToMps:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dense_matvec(self, rng, n):
        gate = random_unitary(rng, 4)
        op = gate_mpo(n, ((0, 1), gate), *([((n - 2, n - 1), gate)] if n > 2 else []))
        vec = random_state(rng, n)
        st = CanonicalMps.from_dense(vec)
        out = op.apply_to_mps(st, EXACT)
        out.validate()
        want = op.to_dense() @ vec
        want /= np.linalg.norm(want)
        assert np.allclose(out.to_dense(), want, atol=1e-12)

    def test_product_state_matches_dense_matvec(self, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(4, ((0, 1), gate), ((1, 2), gate), ((2, 3), gate))
        vec = np.ones(1)
        for _ in range(4):
            vec = np.kron(vec, random_state(rng, 1))
        st = CanonicalMps.from_dense(vec)
        assert st.bond_ranks == (1, 1, 1)
        out = op.apply_to_mps(st, EXACT)
        out.validate()
        want = op.to_dense() @ vec
        want /= np.linalg.norm(want)
        assert np.allclose(out.to_dense(), want, atol=1e-12)

    def test_product_state_sweeps_plain_sites(self, monkeypatch):
        # a state whose bonds all have dimension 1 is contracted into the
        # operator sites before the sweep; any other state goes as
        # (state, operator) factor pairs
        op = compile_to_mpo(nearest_neighbor_qft_circuit(8), EXACT)
        periodic = CanonicalMps.from_periodic_state(8, 5).reverse_qubits()
        trains = []
        real = _canonical.canonicalize_train

        def spy(tensors, policy, *, normalize):
            trains.append(tensors)
            return real(tensors, policy, normalize=normalize)

        monkeypatch.setattr(_canonical, "canonicalize_train", spy)
        op.apply_to_mps(CanonicalMps.from_basis_state(8, "01101001"), EXACT)
        op.apply_to_mps(periodic, EXACT)
        plain, pairs = trains
        assert [t.shape for t in plain] == [
            (o.shape[0], 2, o.shape[3]) for o in op.site_tensors]
        assert all(isinstance(t, tuple) for t in pairs)

    def test_size_mismatch(self, rng):
        op = identity_mpo(3)
        st = CanonicalMps.from_basis_state(2, (0, 0))
        with pytest.raises(DimensionMismatchError):
            op.apply_to_mps(st, EXACT)


class TestHsInner:
    def test_self_inner_is_one(self, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(3, ((1, 2), gate))
        assert hs_inner(op, op) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_trace(self, rng):
        a_gate = random_unitary(rng, 4)
        b_gate = random_unitary(rng, 4)
        a = gate_mpo(3, ((0, 1), a_gate))
        b = gate_mpo(3, ((1, 2), b_gate))
        want = np.trace(a.to_dense().conj().T @ b.to_dense()) / 8
        assert hs_inner(a, b) == pytest.approx(want, abs=1e-12)

    def test_orthogonal_operators(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        a = identity_mpo(2)
        b = gate_mpo(2, ((0, 1), np.kron(x, np.eye(2))))
        assert abs(hs_inner(a, b)) < 1e-12


class TestRecanonicalize:
    def test_rank_truncation(self, rng):
        # build a rank-4 operator, truncate to rank 2
        gate = random_unitary(rng, 4)
        op = gate_mpo(2, ((0, 1), gate))
        trunc = op.recanonicalize(TruncationPolicy(0.0, 2))
        assert max(trunc.bond_ranks) <= 2
        # weight ordering means the kept part dominates
        overlap = hs_inner(trunc, op)
        assert overlap.real > 0.4

    def test_noop_preserves_operator(self, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(3, ((1, 2), gate))
        again = op.recanonicalize(EXACT)
        assert np.allclose(again.to_dense(), op.to_dense(), atol=1e-12)


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        gate = random_unitary(rng, 4)
        op = gate_mpo(3, ((0, 1), gate), ((1, 2), gate))
        path = tmp_path / "op.mpo"
        save_mpo(op, path, policy=EXACT, circuit_fingerprint="abc123")
        back = load_mpo(path)
        back.validate()
        assert back.bond_ranks == op.bond_ranks
        assert np.allclose(back.to_dense(), op.to_dense(), atol=1e-13)

    def test_sidecar(self, tmp_path):
        import json

        op = identity_mpo(2)
        path = tmp_path / "i.mpo"
        save_mpo(op, path, circuit_fingerprint="fp")
        meta = json.loads((tmp_path / "i.mpo.json").read_text())
        assert meta["n_qubits"] == 2
        assert meta["circuit_fingerprint"] == "fp"
        assert meta["construction"] is None  # only `qftmpo build` knows how the chain was made
        assert "bond_spectra" in meta

    def test_trailing_bytes_refused(self, tmp_path):
        path = tmp_path / "i.mpo"
        save_mpo(identity_mpo(3), path)
        path.write_bytes(path.read_bytes() + bytes(192))
        with pytest.raises(ValueError, match="^192 bytes after the last record"):
            load_mpo(path)


def fourier_dense(n):
    return dense_qft_matrix(n)[:, bit_reversal_permutation(n)]


class TestFourierMpo:
    """The transform built from its bulk tensor, against the gate compile
    and the closed form."""

    def test_nodes_from_the_interpolation_bound(self):
        assert _chebyshev_bound(FOURIER_NODES) <= NOISE_FLOOR < _chebyshev_bound(FOURIER_NODES - 1)
        assert FOURIER_NODES == 16
        k = np.arange(FOURIER_NODES)
        nodes = (1 - np.cos((2 * k + 1) * np.pi / (2 * FOURIER_NODES))) / 2
        assert _fourier_site(nodes, nodes).shape == (16, 4, 16)
        # the bound holds for the centred coupling exp(2 pi i s (v - 1/2)),
        # v over [0, 1): every frequency from -pi to pi. The bound is for
        # exact arithmetic; the rounding of the double-precision basis is
        # read off the constant 1, which the interpolant reproduces exactly
        s = np.linspace(0.0, 1.0, 2001)
        basis = _lagrange(s, nodes)
        rounding = np.abs(basis.sum(axis=1) - 1).max()
        w = 2 * np.pi * (np.arange(1024) / 1024 - 0.5)
        err = np.abs(basis @ np.exp(1j * np.outer(nodes, w)) - np.exp(1j * np.outer(s, w)))
        assert err.max() <= _chebyshev_bound(FOURIER_NODES) + rounding
        # base B: v over [0, 1/(B-1)), so in s = (B-1) u every frequency
        # from -pi/(B-1)^2 to pi/(B-1)^2
        for base, count in ((3, 11), (5, 8)):
            assert _node_count(base) == count
            assert _chebyshev_bound(count, base) <= NOISE_FLOOR < _chebyshev_bound(count - 1, base)
            k = np.arange(count)
            unit = (1 - np.cos((2 * k + 1) * np.pi / (2 * count))) / 2
            basis = _lagrange(s, unit)
            rounding = np.abs(basis.sum(axis=1) - 1).max()
            w = 2 * np.pi * (np.arange(1024) / 1024 - 0.5) / (base - 1) ** 2
            err = np.abs(basis @ np.exp(1j * np.outer(unit, w)) - np.exp(1j * np.outer(s, w)))
            assert err.max() <= _chebyshev_bound(count, base) + rounding

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dense_value(self, n):
        op = fourier_mpo(n, EXACT)
        op.validate()
        assert np.max(np.abs(op.to_dense() - fourier_dense(n))) <= 1e-13

    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(1e-14, 16),
                                        TruncationPolicy(1e-10), TruncationPolicy(1e-14, 4)])
    def test_ranks_match_gate_compile(self, policy):
        for n in (1, 2, 3, 5, 8, 13, 20, 30):
            want = compile_to_mpo(nearest_neighbor_qft_circuit(n), policy).bond_ranks
            assert fourier_mpo(n, policy).bond_ranks == want, n

    @pytest.mark.parametrize("n", [32, 64, pytest.param(128, marks=pytest.mark.slow)])
    def test_matches_gate_compile(self, n):
        op = fourier_mpo(n, EXACT)
        op.validate()
        ref = compile_to_mpo(nearest_neighbor_qft_circuit(n), EXACT)
        assert op.bond_ranks == ref.bond_ranks
        assert difference_norm(op, ref) <= 1e-10 * float(np.linalg.norm(ref.gamma_vectors[0]))

    def test_difference_norm_reads_the_frobenius_distance(self):
        n = 8
        full = fourier_mpo(n, EXACT)
        capped = full.recanonicalize(TruncationPolicy(1e-14, 3))
        want = np.linalg.norm(capped.to_dense() - full.to_dense())
        assert difference_norm(capped, full) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [128, 512, MAX_OPERATOR_QUBITS])
    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(1e-14, 16)])
    def test_matches_uncentred_train(self, n, policy):
        # past the dense caps: the 20-node train on the uncentred coupling
        op = fourier_mpo(n, policy)
        ref = _sweep(reference_fourier_train(n), policy)[0]
        assert op.bond_ranks == ref.bond_ranks
        assert difference_norm(op, ref) <= 1e-12 * float(np.linalg.norm(ref.gamma_vectors[0]))

    @pytest.mark.parametrize("n", [256, 512, MAX_OPERATOR_QUBITS])
    def test_closed_form_entries(self, n):
        op = fourier_mpo(n, TruncationPolicy(1e-14, 16))
        op.validate()
        assert op.max_bond_rank <= 13
        rng = random.Random(1000 + n)
        worst = 0.0
        for _ in range(200):
            y, x = rng.getrandbits(n), rng.getrandbits(n)
            worst = max(worst, abs(operator_entry(op, y, x) - fourier_entry(y, x, n)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [0, -1, MAX_OPERATOR_QUBITS + 1])
    def test_width_limit(self, n):
        with pytest.raises(ValueError, match="operator chains need"):
            fourier_mpo(n, EXACT)


def _base_circuit(n, base):
    return generalized_circuit(n, RotationScheme("base-n", base=base))


def _base_turns(base):
    """Turns of the base-B cascade: the Hadamard's 1/2 on a site's own
    bit, 1/B^{j-k+1} from an earlier one."""
    return lambda j, k: Fraction(1, 2) if k == j else Fraction(1, base ** (j - k + 1))


def _aqft_turns(bandwidth):
    return lambda j, k: Fraction(1, 2 ** (j - k + 1)) if j - k < bandwidth else Fraction(0)


TRAIN_POLICY = TruncationPolicy(1e-10)


def _assert_matches_compile(op, ref):
    assert op.bond_ranks == ref.bond_ranks
    assert difference_norm(op, ref) <= 1e-10 * float(np.linalg.norm(ref.gamma_vectors[0]))


def _worst_entry_error(op, turns, samples, seed):
    n = op.n_qubits
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        y, x = rng.getrandbits(n), rng.getrandbits(n)
        worst = max(worst, abs(operator_entry(op, y, x) - cascade_entry(y, x, n, turns)))
    return worst


class TestBaseTrain:
    """The base-B cascade from its bulk tensor (`fourier_mpo` with a base),
    against the gate compile and the closed form."""

    @pytest.mark.parametrize("base", [3, 5])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_dense_value(self, base, n):
        op = fourier_mpo(n, EXACT, base)
        op.validate()
        ref = compile_to_mpo(_base_circuit(n, base), EXACT).to_dense()
        assert np.max(np.abs(op.to_dense() - ref)) <= 1e-12

    @pytest.mark.parametrize("base", [3, 5])
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_gate_compile(self, base, n):
        op = fourier_mpo(n, TRAIN_POLICY, base)
        _assert_matches_compile(op, compile_to_mpo(_base_circuit(n, base), TRAIN_POLICY))

    @pytest.mark.parametrize("base", [3, 5])
    def test_closed_form_entries(self, base):
        op = fourier_mpo(64, EXACT, base)
        op.validate()
        assert _worst_entry_error(op, _base_turns(base), 100, 64 + base) <= 1e-12

    def test_base_two_is_the_transform(self):
        for policy in (EXACT, TruncationPolicy(1e-14, 4)):
            op, ref = fourier_mpo(20, policy, 2), fourier_mpo(20, policy)
            assert all(np.array_equal(a, b) for a, b in zip(op.site_tensors, ref.site_tensors))
            assert all(np.array_equal(a, b) for a, b in zip(op.gamma_vectors, ref.gamma_vectors))

    @pytest.mark.parametrize("base", [1, 0])
    def test_base_below_two(self, base):
        with pytest.raises(ValueError, match=f"rotation base must be an integer >= 2, got {base}"):
            fourier_mpo(4, EXACT, base)


class TestAqftTrain:
    """The approximate transform from its carry (`aqft_mpo`), against the
    gate compile and the closed form."""

    @pytest.mark.parametrize("bandwidth", range(1, 8))
    def test_dense_value(self, bandwidth):
        n = max(6, bandwidth)
        op = aqft_mpo(n, bandwidth, EXACT)
        op.validate()
        ref = compile_to_mpo(aqft_circuit(n, bandwidth), EXACT).to_dense()
        assert np.max(np.abs(op.to_dense() - ref)) <= 1e-12

    @pytest.mark.parametrize("bandwidth", range(1, 8))
    @pytest.mark.parametrize("n", [12, 20])
    def test_matches_gate_compile(self, n, bandwidth):
        op = aqft_mpo(n, bandwidth, TRAIN_POLICY)
        _assert_matches_compile(op, compile_to_mpo(aqft_circuit(n, bandwidth), TRAIN_POLICY))

    @pytest.mark.parametrize("bandwidth", [1, 5, 7])
    def test_closed_form_entries(self, bandwidth):
        # no gate compile at this width: b = 7 alone takes half a minute
        op = aqft_mpo(64, bandwidth, EXACT)
        op.validate()
        assert op.max_bond_rank <= 2 ** (bandwidth - 1)
        assert _worst_entry_error(op, _aqft_turns(bandwidth), 100, 640 + bandwidth) <= 1e-12

    def test_full_bandwidth_is_the_transform(self):
        op, ref = aqft_mpo(8, 8, EXACT), fourier_mpo(8, EXACT)
        assert op.bond_ranks == ref.bond_ranks
        assert difference_norm(op, ref) <= 1e-12 * float(np.linalg.norm(ref.gamma_vectors[0]))

    @pytest.mark.parametrize("n,bandwidth", [(8, 0), (8, 9), (1, 2)])
    def test_bandwidth_outside_the_register(self, n, bandwidth):
        with pytest.raises(ValueError, match=rf"bandwidth must lie in \[1, {n}\], got {bandwidth}"):
            aqft_mpo(n, bandwidth, EXACT)


PER_ORDER_LAWS = ["standard", "power-law:1", "power-law:2", "perturbed-exponent:0.1:7",
                  "perturbed-base:0.1:7"]


def _per_order_turns(law, bandwidth):
    """The turns theta(1) = pi, theta(2..b) of ``law`` as its circuit draws them."""
    source = _AngleSource(RotationScheme.parse(law), bandwidth)
    return [math.pi] + [source.angle(k) for k in range(2, bandwidth + 1)]


def _per_order_circuit(n, law, bandwidth):
    """The cascade of ``law`` keeping the controlled phases of order <= bandwidth."""
    source = _AngleSource(RotationScheme.parse(law), n)
    return CircuitSpec.from_stages(n, _nn_cascade(n, source, lambda k: k <= bandwidth),
                                   "custom", {})


class TestCarryTrain:
    """Every cascade with one angle per order from its phase-carry train
    (`_carry_sweep`), against the gate compile and its coupling matrix."""

    @pytest.mark.parametrize("law", PER_ORDER_LAWS)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_dense_value(self, law, n):
        for bandwidth in range(1, n + 1):
            op, _ = _carry_sweep(n, _per_order_turns(law, bandwidth), EXACT)
            ref = compile_to_mpo(_per_order_circuit(n, law, bandwidth), EXACT).to_dense()
            assert np.max(np.abs(op.to_dense() - ref)) <= 1e-12, bandwidth

    @pytest.mark.parametrize("n,law,bandwidth", [
        (12, "power-law:2", 12), (12, "perturbed-exponent:0.1:7", 12),
        (12, "perturbed-base:0.1:7", 12), (14, "power-law:2", 14),
        (14, "perturbed-base:0.1:7", 14), (14, "standard", 10), (20, "perturbed-exponent:0.1:7", 6),
        (20, "power-law:2", 6),
    ])
    def test_matches_gate_compile(self, n, law, bandwidth):
        # the train is cut once at 1e-10, the gate compile at each of its
        # O(n^2) steps: the two part by up to 2.2e-10 of the norm here
        op, _ = _carry_sweep(n, _per_order_turns(law, bandwidth), TRAIN_POLICY)
        ref = compile_to_mpo(_per_order_circuit(n, law, bandwidth), TRAIN_POLICY)
        assert op.bond_ranks == ref.bond_ranks
        assert difference_norm(op, ref) <= 1e-9 * float(np.linalg.norm(ref.gamma_vectors[0]))

    @pytest.mark.parametrize("n,law,bandwidth", [
        *((12, "standard", b) for b in range(2, 12)),
        (14, "power-law:2", 14), (14, "perturbed-exponent:0.1:7", 14), (20, "standard", 9),
    ])
    def test_coupling_rank_is_the_widest_bond(self, n, law, bandwidth):
        turns = _per_order_turns(law, bandwidth)
        op, _ = _carry_sweep(n, turns, TRAIN_POLICY)
        assert _carry_rank(n, turns, TRAIN_POLICY) == op.bond_ranks[n // 2 - 1]
        assert op.max_bond_rank == op.bond_ranks[n // 2 - 1]

    @pytest.mark.parametrize("n,law,bandwidth", [
        (18, "standard", 10), (16, "power-law:2", 16), (14, "perturbed-exponent:0.1:7", 14),
    ])
    def test_coupling_rank_is_every_bond(self, n, law, bandwidth):
        # what lets a ceiling be checked cut by cut, the narrowest first
        turns = _per_order_turns(law, bandwidth)
        op, _ = _carry_sweep(n, turns, TRAIN_POLICY)
        assert [_carry_rank(n, turns, TRAIN_POLICY, cut) for cut in range(1, n)] == list(
            op.bond_ranks)

    @pytest.mark.parametrize("n,bandwidth", [(1, 1), (2, 2), (7, 7), (8, 3), (9, 9), (64, 7)])
    def test_bond_widths(self, n, bandwidth):
        # carry sites left of the junction at n // 2, their mirrors right of it
        train = _carry_train(n, _per_order_turns("standard", bandwidth))
        assert [site.shape[2] for site in train[:-1]] == [
            2 ** min(bandwidth - 1, c + 1, n - c - 1) for c in range(n - 1)]
        assert train[0].shape[0] == train[-1].shape[2] == 1
