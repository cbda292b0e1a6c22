import io

import numpy as np
import pytest

from conftest import run_python
from qftmpo._canonical import _split_bond
from qftmpo.circuits import GateSpec, qft_circuit
from qftmpo.errors import NumericalError
from qftmpo.mpo import identity_mpo
from qftmpo.mps import CanonicalMps
from qftmpo.oracle import dense_circuit_matrix, dense_evolve, dense_qft_matrix
from qftmpo.tensor import (
    DenseTensor,
    TruncationPolicy,
    _svd_matrix,
    check_unitary,
    frozen_array,
    read_tensor_from,
    retained_count,
    write_tensor_to,
)


class TestDenseTensor:
    def test_copies_and_freezes(self):
        raw = np.ones((2, 3))
        t = DenseTensor(raw)
        raw[0, 0] = 5.0
        assert t.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            t.data[0, 0] = 2.0

    def test_complex_cast(self):
        t = DenseTensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.complex128
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            DenseTensor([1.0, np.nan])
        with pytest.raises(NumericalError):
            DenseTensor([1.0, np.inf])

    def test_array_protocol(self):
        t = DenseTensor([[1, 0], [0, 1]])
        assert np.trace(t) == 2

    def test_asarray_is_the_frozen_data(self):
        t = DenseTensor([1.0, 2.0])
        view = np.asarray(t)
        assert np.shares_memory(view, t.data)
        assert not view.flags.writeable

    @pytest.mark.parametrize("copy", [lambda t: np.array(t), lambda t: np.array(t, copy=True)])
    def test_array_copies(self, copy):
        t = DenseTensor([1.0, 2.0])
        arr = copy(t)
        assert not np.shares_memory(arr, t.data)
        arr[0] = 5.0
        assert t.data[0] == 1.0

    def test_array_without_copy_keyword(self):
        # numpy 1.x calls __array__ with no copy argument, dtype positional
        t = DenseTensor([1.0, 2.0])
        assert np.shares_memory(t.__array__(), t.data)
        assert t.__array__(np.complex64).dtype == np.complex64


DENSE_VALUES = {
    "CanonicalMpo.to_dense": lambda: identity_mpo(2).to_dense(),
    "CanonicalMps.to_dense": lambda: CanonicalMps.from_basis_state(2, "01").to_dense(),
    "dense_qft_matrix": lambda: dense_qft_matrix(2),
    "dense_evolve": lambda: dense_evolve(np.eye(4)[1], qft_circuit(2)),
    "dense_circuit_matrix": lambda: dense_circuit_matrix(qft_circuit(2)),
}


@pytest.mark.parametrize("name", sorted(DENSE_VALUES))
def test_dense_values_are_read_only_arrays(name):
    """Every dense value the package returns is a `frozen_array`."""
    arr = DENSE_VALUES[name]()
    assert type(arr) is np.ndarray and arr.dtype == np.complex128
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 1.0


class TestTruncationPolicy:
    def test_defaults(self):
        p = TruncationPolicy()
        assert p.rel_cutoff == 0.0
        assert p.max_rank is None

    @pytest.mark.parametrize("cutoff", [-0.1, 1.0, 1.5])
    def test_bad_cutoff(self, cutoff):
        with pytest.raises(ValueError):
            TruncationPolicy(rel_cutoff=cutoff)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            TruncationPolicy(max_rank=0)

    def test_hashable(self):
        assert hash(TruncationPolicy(1e-10, 8)) == hash(TruncationPolicy(1e-10, 8))


class TestRetainedCount:
    def test_relative_cutoff(self):
        s = np.array([1.0, 0.5, 1e-8, 1e-12])
        assert retained_count(s, TruncationPolicy(1e-10)) == 3
        assert retained_count(s, TruncationPolicy(1e-6)) == 2

    def test_always_keeps_one(self):
        s = np.array([1e-30])
        assert retained_count(s, TruncationPolicy(0.5)) == 1

    def test_rank_cap_wins(self):
        s = np.ones(10)
        assert retained_count(s, TruncationPolicy(0.0, 4)) == 4

    def test_extra_cutoff(self):
        # the noise floor cuts below every policy's own cutoff, zero included
        s = np.array([1.0, 1e-5, 1e-14, 1e-15])
        assert retained_count(s, TruncationPolicy(0.0)) == 3
        assert retained_count(s, TruncationPolicy(1e-15)) == 3
        assert retained_count(s, TruncationPolicy(1e-10)) == 2


class TestSvdTruncated:
    """The truncated SVD at the heart of every canonical sweep."""

    @staticmethod
    def split(mat, policy):
        return _split_bond(mat, policy)

    def test_exact_recompose(self, rng):
        t = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
        u, s, vh, discarded = self.split(t.reshape(12, 5), TruncationPolicy())
        assert discarded == 0.0
        assert np.allclose(((u * s) @ vh).reshape(t.shape), t, atol=1e-12)

    def test_truncation_drops_weight(self, rng):
        u = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        v = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        s = np.array([1.0, 0.5, 1e-3, 1e-9, 1e-9, 1e-12])
        mat = (u * s) @ v
        uk, sk, vhk, discarded = self.split(mat, TruncationPolicy(1e-6))
        assert len(sk) == 3
        assert discarded == pytest.approx(2e-18 + 1e-24, rel=1e-6)
        assert np.allclose((uk * sk) @ vhk, mat, atol=1e-8)

    def test_noise_floor_dropped_without_cutoff(self, rng):
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        s = np.array([1.0, 1e-3, 1e-13, 1e-16])
        uk, sk, vhk, discarded = self.split((u * s) @ v, TruncationPolicy())
        assert len(sk) == 3
        assert discarded < 1e-30
        assert np.allclose((uk * sk) @ vhk, (u * s) @ v, atol=1e-15)

    def test_isometry_conditions(self, rng):
        u, s, vh, _ = self.split(rng.normal(size=(4, 4)), TruncationPolicy())
        k = len(s)
        assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
        assert np.allclose(vh @ vh.conj().T, np.eye(k), atol=1e-12)

    def test_singular_values_sorted(self, rng):
        _, s, _, _ = self.split(rng.normal(size=(5, 7)), TruncationPolicy())
        assert np.all(np.diff(s) <= 0)
        assert np.all(s > 0)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


# a fresh interpreter: is scipy.linalg loaded before and after the fallback?
_FALLBACK_IMPORT_SCRIPT = """
import sys
import numpy as np
from qftmpo.tensor import _svd_matrix
_svd_matrix(np.eye(3))
print("scipy.linalg" in sys.modules)
def no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")
np.linalg.svd = no_convergence
_svd_matrix(np.eye(3))
print("scipy.linalg" in sys.modules)
"""


class TestSvdFallback:
    """numpy's gesdd gives up on a few matrices; scipy's gesvd takes over."""

    def test_gesvd_factors_rebuild_the_matrix(self, monkeypatch, rng):
        mat = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        u, s, vh = _svd_matrix(mat)
        assert u.shape == (6, 4) and s.shape == (4,) and vh.shape == (4, 4)
        assert np.max(np.abs((u * s) @ vh - mat)) <= 1e-12
        assert np.all(np.diff(s) <= 0)

    def test_values_only_on_the_fallback(self, monkeypatch, rng):
        mat = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        want = np.linalg.svd(mat, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        s = _svd_matrix(mat, compute_uv=False)
        assert s.shape == (4,)
        assert np.max(np.abs(s - want)) <= 1e-12

    def test_scipy_loads_only_on_the_fallback(self):
        proc = run_python("-c", _FALLBACK_IMPORT_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_both_drivers_failing_is_one_numerical_error(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        monkeypatch.setattr(scipy.linalg, "svd", _no_convergence)
        with pytest.raises(NumericalError, match=r"^SVD did not converge for shape \(5, 3\)$"):
            _svd_matrix(np.ones((5, 3)))


class TestSerialization:
    def test_stream_roundtrip(self, rng):
        t = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        buf = io.BytesIO()
        write_tensor_to(buf, t)
        buf.seek(0)
        back = read_tensor_from(buf)
        assert back.shape == t.shape
        assert np.array_equal(back, t)
        assert not back.flags.writeable

    def test_bad_magic(self):
        buf = io.BytesIO(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_tensor_from(buf)

    def test_scalar_tensor(self):
        t = np.array(3.0 + 1j)
        buf = io.BytesIO()
        write_tensor_to(buf, t)
        buf.seek(0)
        assert read_tensor_from(buf) == 3.0 + 1j

    def test_any_array_writes_like_its_tensor(self, rng):
        vals = rng.random(5)
        direct, wrapped = io.BytesIO(), io.BytesIO()
        write_tensor_to(direct, vals)
        write_tensor_to(wrapped, frozen_array(vals))
        assert direct.getvalue() == wrapped.getvalue()


class TestCheckUnitary:
    """A gate with a NaN or inf entry is refused with a one-line
    ValueError at every entry point that takes a raw matrix; its unitarity
    defect is NaN, which compares false against any tolerance."""

    ENTRY_POINTS = {
        "check_unitary": lambda mat: check_unitary(mat, 4),
        "GateSpec": lambda mat: GateSpec("generic", (0, 1), matrix=mat),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)],
                             ids=["nan", "inf", "nanj"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_non_finite_gate(self, entry, bad):
        mat = np.eye(4, dtype=np.complex128)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self.ENTRY_POINTS[entry](mat)
