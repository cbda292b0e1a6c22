"""Contraction layouts and chain checks of the shared canonical core."""

import numpy as np
import pytest

from qftmpo._canonical import (
    _bonds_ordered,
    _left_multiply,
    _right_multiply,
    check_structure,
    two_site_update,
)
from qftmpo.tensor import TruncationPolicy


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
