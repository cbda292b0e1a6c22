"""Contraction layouts and chain checks of the shared canonical core."""

import numpy as np
import pytest

from conftest import random_unitary
from qftmpo._canonical import (
    SPLIT_SKETCH_MARGIN,
    SplitSketch,
    _bonds_ordered,
    _left_multiply,
    _right_multiply,
    canonical_defect,
    check_structure,
    two_site_update,
    validate,
)
from qftmpo.circuits import compile_to_mpo, compile_trace, nearest_neighbor_qft_circuit
from qftmpo.errors import NumericalError
from qftmpo.mpo import load_mpo, save_mpo
from qftmpo.mps import CanonicalMps, load_mps, save_mps
from qftmpo.tensor import DenseTensor, TruncationPolicy
from test_sketch import qr_calls


def random_array(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# every bond dimension distinct: state bonds a -> b, operator bonds c -> e,
# carry width k; physical legs p (input) and x (output)
A, B, C, E, K = 2, 3, 5, 7, 4


@pytest.fixture
def pair():
    rng = np.random.default_rng(11)
    return random_array(rng, A, 2, B), random_array(rng, C, 2, 2, E)


def product_site(state, op):
    """The formed (a c, x, b e) product site the factored layouts stand for."""
    a, _, b = state.shape
    c, x, _, e = op.shape
    return np.einsum("apb,cxpe->acxbe", state, op).reshape(a * c, x, b * e)


class TestFactoredLayouts:
    def test_left_multiply_pair(self, pair):
        rmat = random_array(np.random.default_rng(12), K, A * C)
        want = np.einsum("kl,lxr->kxr", rmat, product_site(*pair)).reshape(K * 2, B * E)
        got = _left_multiply(rmat, pair)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_right_multiply_pair(self, pair):
        carry = random_array(np.random.default_rng(13), B * E, K)
        want = np.einsum("lxr,rk->lxk", product_site(*pair), carry).reshape(A * C, 2 * K)
        got = _right_multiply(pair, carry)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_plain_sites(self):
        rng = np.random.default_rng(14)
        site = random_array(rng, A, 4, B)
        rmat = random_array(rng, K, A)
        carry = random_array(rng, B, K)
        left = np.einsum("kl,ldr->kdr", rmat, site).reshape(K * 4, B)
        right = np.einsum("ldr,rk->ldk", site, carry).reshape(A, 4 * K)
        assert np.allclose(_left_multiply(rmat, site), left, rtol=0, atol=1e-13 * 8)
        assert np.allclose(_right_multiply(site, carry), right, rtol=0, atol=1e-13 * 8)


def test_two_site_update_matches_einsum():
    rng = np.random.default_rng(15)
    a, d, m, c = 3, 2, 4, 5
    g_left, g_right = random_array(rng, a, d, m), random_array(rng, m, d, c)
    lam_l, lam_m, lam_r = (np.sort(rng.uniform(0.5, 2.0, size))[::-1] for size in (a, m, c))
    pair_op = random_array(rng, d, d, d, d)
    theta = np.einsum("a,apm,m,mqc,c->apqc", lam_l, g_left, lam_m, g_right, lam_r)
    want = np.einsum("xypq,apqc->axyc", pair_op, theta).reshape(a * d, d * c)

    g1, lam_new, g2, dropped = two_site_update(
        lam_l, g_left, lam_m, g_right, lam_r, pair_op, TruncationPolicy(), normalize=False)
    assert dropped == 0.0
    assert np.allclose(lam_new, np.linalg.svd(want, compute_uv=False), rtol=0, atol=1e-13)
    left = (g1 * lam_l[:, None, None]).reshape(a * d, -1)
    right = (g2 * lam_r[None, None, :]).reshape(-1, d * c)
    got = (left * lam_new) @ right
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestSplitSketch:
    """The sketched split of `two_site_update`, which compiles use."""

    # a rank-13 middle bond between rank-13 outer bonds: theta is 52 x 52
    A, D, M, C = 13, 4, 13, 13
    POLICY = TruncationPolicy(1e-14, 16)

    def block(self, seed):
        rng = np.random.default_rng(seed)
        g_left, g_right = random_array(rng, self.A, self.D, self.M), random_array(
            rng, self.M, self.D, self.C)
        lam_l, lam_m, lam_r = (np.sort(rng.uniform(0.5, 2.0, size))[::-1]
                               for size in (self.A, self.M, self.C))
        return lam_l, g_left, lam_m, g_right, lam_r

    def update(self, block, pair_op, sketch=None):
        return two_site_update(*block, pair_op, self.POLICY, normalize=False, sketch=sketch)

    def reconstruct(self, block, result):
        lam_l, _, _, _, lam_r = block
        g1, lam, g2, _ = result
        left = (g1 * lam_l[:, None, None]).reshape(self.A * self.D, -1)
        return (left * lam) @ (g2 * lam_r[None, None, :]).reshape(-1, self.D * self.C)

    def test_low_rank_block_matches_exact_split(self, monkeypatch):
        # a product of one-site operators keeps theta at rank 13, well inside
        # a sketch of 13 + margin columns
        block = self.block(21)
        rng = np.random.default_rng(22)
        pair_op = np.kron(random_unitary(rng, 4), random_unitary(rng, 4))
        exact = self.update(block, pair_op)
        calls = qr_calls(monkeypatch)
        sketch = SplitSketch()
        got = self.update(block, pair_op, sketch)
        assert calls == [((self.A * self.D, self.M + SPLIT_SKETCH_MARGIN), "reduced")]
        assert sketch.on
        s_max = exact[1][0]
        assert len(got[1]) == len(exact[1]) == self.M
        assert np.max(np.abs(got[1] - exact[1])) <= 1e-13 * s_max
        want = self.reconstruct(block, exact)
        assert np.max(np.abs(self.reconstruct(block, got) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_full_rank_block_saturates_to_exact_split(self, monkeypatch):
        block = self.block(23)
        pair_op = random_unitary(np.random.default_rng(24), 16)  # theta has rank 52
        exact = self.update(block, pair_op)
        sketch = SplitSketch()
        got = self.update(block, pair_op, sketch)
        assert not sketch.on
        for a, b in zip(got, exact):
            assert np.array_equal(a, b)
        # switched off: a later block the sketch would hold is split exactly
        rng = np.random.default_rng(25)
        low_rank = np.kron(random_unitary(rng, 4), random_unitary(rng, 4))
        calls = qr_calls(monkeypatch)
        later = self.update(block, low_rank, sketch)
        assert calls == []
        for a, b in zip(later, self.update(block, low_rank)):
            assert np.array_equal(a, b)

    def test_compiles_are_reproducible(self, monkeypatch):
        calls = qr_calls(monkeypatch)
        circuit = nearest_neighbor_qft_circuit(16)
        before = np.random.get_state()[1].copy()
        first = compile_trace(circuit, self.POLICY).mpo
        assert len(calls) > 2 * 15  # sketched steps besides the final sweep's QRs
        second = compile_trace(circuit, self.POLICY).mpo
        assert np.array_equal(np.random.get_state()[1], before)
        for a, b in zip(first.site_tensors, second.site_tensors):
            assert np.array_equal(a, b)
        for a, b in zip(first.gamma_vectors, second.gamma_vectors):
            assert np.array_equal(a, b)

    def test_absorb_gate_is_never_sketched(self, monkeypatch):
        op = compile_trace(nearest_neighbor_qft_circuit(12), self.POLICY).mpo
        calls = qr_calls(monkeypatch)
        gate = np.diag([1, 1, 1, np.exp(0.3j)])
        op.absorb_gate(5, gate, self.POLICY)
        assert calls == []


class TestCheckStructure:
    @staticmethod
    def chain(bonds):
        """State sites matching ``bonds`` (one fewer than the sites)."""
        dims = [1, *(len(lam) for lam in bonds), 1]
        return [np.zeros((dims[j], 2, dims[j + 1])) for j in range(len(bonds) + 1)]

    @pytest.mark.parametrize("bad", [[0.6, 0.0], [0.6, -0.2], [0.2, 0.6], []],
                             ids=["zero", "negative", "increase", "empty"])
    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_names_failing_bond(self, bad, where):
        bonds = [np.array([0.8, 0.6]) for _ in range(4)]
        bonds[where] = np.array(bad)
        assert not _bonds_ordered(bonds)
        with pytest.raises(ValueError, match=f"^bond {where} vector"):
            check_structure(self.chain(bonds), bonds, (2,))

    def test_names_first_of_several(self):
        bonds = [np.array([0.8, 0.6]), np.array([0.1, 0.6]), np.array([-1.0])]
        with pytest.raises(ValueError, match="^bond 1 vector"):
            check_structure(self.chain(bonds), bonds, (2,))

    def test_increase_across_bond_boundary_accepted(self):
        bonds = [np.array([1.0]), np.array([2.0, 1.0]), np.array([3.0])]
        assert _bonds_ordered(bonds)  # the one-pass check alone accepts it
        got = check_structure(self.chain(bonds), bonds, (2,))
        assert [list(lam) for lam in got] == [[1.0], [2.0, 1.0], [3.0]]

    def test_single_site_has_no_bonds(self):
        assert check_structure([np.zeros((1, 2, 1))], [], (2,)) == ()


def chain_parts(chain):
    """(sites, bond vectors) of a state or operator chain."""
    if isinstance(chain, CanonicalMps):
        return chain.gammas, chain.lambdas
    return chain.site_tensors, chain.gamma_vectors


def small_chain(kind):
    """Chain class and writeable copies of the sites and bonds of a valid
    3-qubit state or operator chain."""
    if kind == "mps":
        chain = CanonicalMps.from_periodic_state(3, 3)
    else:
        chain = compile_to_mpo(nearest_neighbor_qft_circuit(3), TruncationPolicy())
    sites, bonds = chain_parts(chain)
    return type(chain), [np.array(t) for t in sites], [np.array(lam) for lam in bonds]


def dense_tensor_calls(monkeypatch):
    """A list that grows by one for every DenseTensor constructed from now on."""
    calls = []
    original = DenseTensor.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(DenseTensor, "__post_init__", counting)
    return calls


CHAIN_KINDS = pytest.mark.parametrize("kind", ["mps", "mpo"])
NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])


class TestChainContract:
    @CHAIN_KINDS
    @NON_FINITE
    def test_non_finite_site_refused(self, kind, bad):
        cls, sites, bonds = small_chain(kind)
        sites[1].flat[0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            cls(tuple(sites), tuple(bonds))

    @CHAIN_KINDS
    @NON_FINITE
    def test_non_finite_bond_refused(self, kind, bad):
        cls, sites, bonds = small_chain(kind)
        bonds[1][0] = bad
        with pytest.raises(NumericalError, match="^bond 1 vector has non-finite entries"):
            cls(tuple(sites), tuple(bonds))

    @CHAIN_KINDS
    def test_stored_arrays_are_read_only(self, kind):
        cls, sites, bonds = small_chain(kind)
        stored_sites, stored_bonds = chain_parts(cls(tuple(sites), tuple(bonds)))
        assert all(t.dtype == np.complex128 for t in stored_sites)
        for arr in (stored_sites[0], stored_bonds[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @CHAIN_KINDS
    def test_caller_arrays_neither_frozen_nor_aliased(self, kind):
        cls, sites, bonds = small_chain(kind)
        chain = cls(tuple(sites), tuple(bonds))
        before = [a.copy() for part in chain_parts(chain) for a in part]
        for arr in (*sites, *bonds):
            assert arr.flags.writeable
            arr[...] = 0.5
        after = [a for part in chain_parts(chain) for a in part]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("normalize", [True, False], ids=["mps", "mpo"])
    def test_nan_defect_fails_validation(self, normalize):
        _, sites, bonds = small_chain("mps" if normalize else "mpo")
        sites = [t.reshape(t.shape[0], -1, t.shape[-1]) for t in sites]
        sites[1].flat[0] = np.nan
        assert np.isnan(canonical_defect(sites, bonds, normalize=normalize))
        with pytest.raises(NumericalError, match="canonical defect nan"):
            validate(sites, bonds, 1e-9, 1e-8, normalize=normalize)

    @pytest.mark.parametrize("normalize", [True, False], ids=["mps", "mpo"])
    def test_nan_bond_fails_validation(self, normalize):
        _, sites, bonds = small_chain("mps" if normalize else "mpo")
        sites = [t.reshape(t.shape[0], -1, t.shape[-1]) for t in sites]
        bonds[0][0] = np.nan
        with pytest.raises(NumericalError, match="^bond 0 squared weight nan"):
            validate(sites, bonds, 1e-9, 1e-8, normalize=normalize)

    def test_compile_constructs_no_dense_tensor(self, monkeypatch):
        calls = dense_tensor_calls(monkeypatch)
        compile_trace(nearest_neighbor_qft_circuit(8), TruncationPolicy(1e-14, 16))
        assert calls == []

    def test_load_apply_save_constructs_no_dense_tensor(self, monkeypatch, tmp_path):
        save_mpo(compile_to_mpo(nearest_neighbor_qft_circuit(8), TruncationPolicy(1e-14)),
                 tmp_path / "qft8.mpo")
        calls = dense_tensor_calls(monkeypatch)
        op = load_mpo(tmp_path / "qft8.mpo")
        state = CanonicalMps.from_basis_state(8, "01101001").reverse_qubits()
        out = op.apply_to_mps(state, TruncationPolicy(1e-14))
        save_mps(out, tmp_path / "out.mps")
        back = load_mps(tmp_path / "out.mps")
        assert calls == []
        assert all(np.array_equal(a, b) for a, b in zip(back.gammas, out.gammas))
