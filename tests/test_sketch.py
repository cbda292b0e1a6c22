"""The sketched left pass of `_canonical.canonicalize_train`: where it
runs, that it is reproducible, and that it keeps the output exact both
where the sketch holds the output's range and where it saturates."""

import math

import numpy as np
import pytest

from conftest import reference_apply, reference_canonicalize_train
from qftmpo import _canonical
from qftmpo.circuits import compile_to_mpo, nearest_neighbor_qft_circuit
from qftmpo.mpo import fourier_mpo
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


def range_tests(monkeypatch, saturate_from=math.inf):
    """Record the outcome of every sketch range test from now on; the tests
    from the ``saturate_from``-th on (counting from 0) report a saturated
    sketch."""
    outcomes = []
    real = _canonical._sketch_holds

    def holds(sv):
        outcomes.append(len(outcomes) < saturate_from and bool(real(sv)))
        return outcomes[-1]

    monkeypatch.setattr(_canonical, "_sketch_holds", holds)
    return outcomes


def infidelity(a, b):
    return 1 - abs(train_overlap(list(a.gammas), a.lambdas, list(b.gammas), b.lambdas)) ** 2


def assert_bitwise_equal(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a.gammas, b.gammas))
    assert all(np.array_equal(x, y) for x, y in zip(a.lambdas, b.lambdas))


def exact_sweep(op, state, policy, monkeypatch):
    """The apply with the sketched left pass switched off."""
    with monkeypatch.context() as m:
        m.setattr(_canonical, "_sketched_left_pass", lambda sites: None)
        return op.apply_to_mps(state, policy)


def test_periodic_apply_is_sketched(op20, monkeypatch):
    state = periodic_input(20, 31)
    width = 2 * max(state.bond_ranks) + 16
    calls = qr_calls(monkeypatch)
    out = op20.apply_to_mps(state, EXACT)
    assert any(shape[1] == width for shape, _ in calls)  # sketched bonds
    # the exact sweep factors 806 x 403 products here
    assert max(shape[0] for shape, _ in calls) <= 2 * width
    # output rank 58 or 59: ranks may differ from the exact sweep's by
    # values at the noise floor only
    assert_same_bonds(out.lambdas, reference_apply(op20, state, EXACT)[1])


def test_sketched_apply_is_reproducible(op20):
    state = periodic_input(20, 29)
    before = np.random.get_state()[1].copy()
    first = op20.apply_to_mps(state, EXACT)
    second = op20.apply_to_mps(state, EXACT)
    assert np.array_equal(np.random.get_state()[1], before)
    assert_bitwise_equal(first, second)


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


def test_compressed_train_is_a_plain_train(op20, monkeypatch):
    # the held sketch hands over range bases that are left-isometric, and
    # the exact sweep of that plain train gives the pair train's bonds
    state = periodic_input(20, 31)
    pairs = list(zip(_canonical.train_from_vidal(state.gammas, state.lambdas),
                     _canonical.train_from_vidal(op20.site_tensors, op20.gamma_vectors)))
    train = _canonical._sketched_left_pass(pairs)
    assert train is not None and len(train) == 20
    for site in train[:-1]:
        q = site.reshape(-1, site.shape[2])
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) <= 1e-12
    _, got, _ = _canonical.canonicalize_train(train, EXACT, normalize=True)
    with monkeypatch.context() as m:
        m.setattr(_canonical, "_sketched_left_pass", lambda sites: None)
        _, want, _ = _canonical.canonicalize_train(pairs, EXACT, normalize=True)
    assert_same_bonds(got, want)


def test_range_test_traffic(monkeypatch):
    # every range test holds on the periodic applies of the apply-n20
    # benchmark (reversed input, rank-16 operator), and natural order
    # saturates at the first test: no benchmark apply throws a held
    # sketch away
    op = fourier_mpo(20, TruncationPolicy(1e-14, 16))
    outcomes = range_tests(monkeypatch)
    for period in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        outcomes.clear()
        op.apply_to_mps(periodic_input(20, period), EXACT)
        assert outcomes and all(outcomes), period
    outcomes.clear()
    op.apply_to_mps(CanonicalMps.from_periodic_state(20, 31), EXACT)
    assert outcomes == [False]


@pytest.mark.parametrize(
    "reverse,policy",
    [(False, EXACT), (True, TruncationPolicy(1e-14, 12))],
    ids=["natural-uncapped", "reversed-capped"],
)
def test_saturated_sketch_falls_back_to_exact(op20, monkeypatch, reverse, policy):
    # natural input order gives output bonds of several hundred, which
    # saturate the sketch at its first try; in reversed order, where the
    # sketch would hold, the range test reports saturation. The sweep is
    # then the exact one, bit for bit
    state = CanonicalMps.from_periodic_state(20, 31)
    if reverse:
        state = state.reverse_qubits()
    outcomes = range_tests(monkeypatch, saturate_from=0 if reverse else math.inf)
    out = op20.apply_to_mps(state, policy)
    assert outcomes == [False]
    assert_bitwise_equal(out, exact_sweep(op20, state, policy, monkeypatch))
    if policy is EXACT:
        ref_g, ref_l, _ = reference_apply(op20, state, policy)
        got_g = list(out.gammas)
        assert abs(1 - train_overlap(got_g, out.lambdas, ref_g, ref_l)) <= 1e-12
        assert_same_bonds(out.lambdas, ref_l)


def test_sketch_saturating_midway(op20, monkeypatch):
    # three sketches hold and the fourth saturates: the held ones are
    # thrown away, and the sweep is the exact one from the first bond, bit
    # for bit
    state = periodic_input(20, 31)
    outcomes = range_tests(monkeypatch, saturate_from=3)
    out = op20.apply_to_mps(state, EXACT)
    assert outcomes == [True, True, True, False]
    assert_bitwise_equal(out, exact_sweep(op20, state, EXACT, monkeypatch))
    ref_g, ref_l, _ = reference_apply(op20, state, EXACT)
    assert abs(1 - train_overlap(list(out.gammas), out.lambdas, ref_g, ref_l)) <= 1e-12
    assert_same_bonds(out.lambdas, ref_l)
    assert out.canonical_defect() <= 1e-12


def test_no_sketch_holds_is_the_exact_sweep(op20, monkeypatch):
    # sketches that would hold are all reported saturated: the sweep is the
    # exact one
    state = periodic_input(20, 31)
    outcomes = range_tests(monkeypatch, saturate_from=0)
    out = op20.apply_to_mps(state, EXACT)
    assert outcomes == [False]
    assert_bitwise_equal(out, exact_sweep(op20, state, EXACT, monkeypatch))


def low_rank_pairs(n_sites):
    """(state, operator) factor pairs: operator factors with 40 output
    values per site and a rank-5 inner structure on 20-wide bonds, under
    random 2-wide state factors."""
    rng = np.random.default_rng(20261019)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    chi_s, chi_o, inner, x = 2, 20, 5, 40
    s_bonds = [1] + [chi_s] * (n_sites - 1) + [1]
    o_bonds = [1] + [chi_o] * (n_sites - 1) + [1]
    states = [gaussian(s_bonds[j], 2, s_bonds[j + 1]) for j in range(n_sites)]
    ops = []
    for j in range(n_sites):
        left = gaussian(o_bonds[j], inner) if j else np.ones((1, 1))
        right = gaussian(inner, o_bonds[j + 1]) if j < n_sites - 1 else np.ones((1, 1))
        core = gaussian(left.shape[1], x, 2, right.shape[0])
        ops.append(np.einsum("ci,ixpk,ke->cxpe", left, core, right))
    return list(zip(states, ops)), x


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_short_pair_trains(monkeypatch, n_sites):
    # every bond is sketched, its sketch holds, and the right pass runs on
    # the compressed carry alone
    sites, x = low_rank_pairs(n_sites)
    outcomes = range_tests(monkeypatch)
    got_g, got_l, _ = _canonical.canonicalize_train(sites, EXACT, normalize=True)
    assert outcomes == [True] * (n_sites - 1)
    product = [np.einsum("apb,cxpe->acxbe", s, o).reshape(
        s.shape[0] * o.shape[0], x, s.shape[2] * o.shape[3]) for s, o in sites]
    ref_g, ref_l, _ = reference_canonicalize_train(product, EXACT, normalize=True)
    assert_same_bonds(got_l, ref_l)
    assert abs(1 - train_overlap(got_g, got_l, ref_g, ref_l)) <= 1e-12
    assert _canonical.canonical_defect(got_g, got_l, normalize=True) <= 1e-12


def test_held_sketch_runs_no_svd(monkeypatch):
    # a bond of rank 10 sketched with 20 columns: the trailing diagonal of
    # the square R is at rounding level, which decides the range test
    # without the SVD of R
    sites, _ = low_rank_pairs(3)
    outcomes = range_tests(monkeypatch)

    def no_svd(*args, **kwargs):
        raise AssertionError("a held sketch ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert _canonical._sketched_left_pass(sites) is not None
    assert outcomes == [True, True]


def test_range_test_reads_the_diagonal_first(monkeypatch):
    # min |R_kk| <= SKETCH_TAIL max |R_kk| bounds the singular values of a
    # square triangular R; a diagonal inside the tail, or a trapezoidal R,
    # is left to the SVD
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    r = np.triu(np.ones((4, 4)))
    r[3, 3] = 1e-16
    assert _canonical._sketch_holds(r) and not calls
    kahan = np.triu(np.full((60, 60), -1.0), 1) + np.eye(60)  # sigma_min ~ 2^-59
    assert _canonical._sketch_holds(kahan) and len(calls) == 1
    assert not _canonical._sketch_holds(np.eye(4)) and len(calls) == 2
    assert not _canonical._sketch_holds(np.triu(np.ones((3, 5)))) and len(calls) == 3
    wide = np.triu(np.ones((3, 5)))
    wide[2, 2] = 0.0  # its rows are still independent: no tail
    assert not _canonical._sketch_holds(wide) and len(calls) == 4


@pytest.mark.parametrize("period,cap", [(7, 12), (11, 20), (31, 12), (31, 20)])
def test_capped_error_matches_exact_sweep(op20, monkeypatch, period, cap):
    # the cap does not narrow the sketch, so every sketch holds and the
    # right pass truncates the compressed carry. The capped output may be
    # at most 1.1 times as far from the uncapped one as the exact sweep's
    # (1.037 at period 31, cap 20; 0.99 to 1.0 elsewhere)
    state = periodic_input(20, period)
    policy = TruncationPolicy(1e-14, cap)
    full = op20.apply_to_mps(state, EXACT)
    outcomes = range_tests(monkeypatch)
    got = infidelity(op20.apply_to_mps(state, policy), full)
    assert outcomes and all(outcomes)
    want = infidelity(exact_sweep(op20, state, policy, monkeypatch), full)
    assert want > 1e-13  # the cap truncates
    assert got <= 1.1 * want
