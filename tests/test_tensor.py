import io

import numpy as np
import pytest

from qftmpo._canonical import _split_bond
from qftmpo.circuits import GateSpec
from qftmpo.errors import NumericalError
from qftmpo.mpo import identity_mpo
from qftmpo.mps import CanonicalMps
from qftmpo.tensor import (
    DenseTensor,
    TruncationPolicy,
    check_unitary,
    read_tensor,
    read_tensor_from,
    retained_count,
    write_tensor,
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
        s = np.array([1.0, 1e-5, 1e-15])
        assert retained_count(s, TruncationPolicy(0.0), extra_cutoff=1e-10) == 2


class TestSvdTruncated:
    """The truncated SVD at the heart of every canonical sweep."""

    @staticmethod
    def split(mat, policy):
        return _split_bond(mat, policy, floor=0.0)

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

    def test_isometry_conditions(self, rng):
        u, s, vh, _ = self.split(rng.normal(size=(4, 4)), TruncationPolicy())
        k = len(s)
        assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
        assert np.allclose(vh @ vh.conj().T, np.eye(k), atol=1e-12)

    def test_singular_values_sorted(self, rng):
        _, s, _, _ = self.split(rng.normal(size=(5, 7)), TruncationPolicy())
        assert np.all(np.diff(s) <= 0)
        assert np.all(s > 0)


class TestSerialization:
    def test_stream_roundtrip(self, rng):
        t = DenseTensor(rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4)))
        buf = io.BytesIO()
        write_tensor_to(buf, t)
        buf.seek(0)
        back = read_tensor_from(buf)
        assert back.shape == t.shape
        assert np.array_equal(back, t.data)

    def test_path_roundtrip(self, tmp_path, rng):
        t = DenseTensor(rng.normal(size=(4, 4)))
        path = tmp_path / "t.bin"
        write_tensor(path, t)
        assert np.array_equal(read_tensor(path).data, t.data)

    def test_bad_magic(self):
        buf = io.BytesIO(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_tensor_from(buf)

    def test_scalar_tensor(self):
        t = DenseTensor(np.array(3.0 + 1j))
        buf = io.BytesIO()
        write_tensor_to(buf, t)
        buf.seek(0)
        assert read_tensor_from(buf) == 3.0 + 1j

    def test_any_array_writes_like_its_tensor(self, rng):
        vals = rng.random(5)
        direct, wrapped = io.BytesIO(), io.BytesIO()
        write_tensor_to(direct, vals)
        write_tensor_to(wrapped, DenseTensor(vals.astype(np.complex128)))
        assert direct.getvalue() == wrapped.getvalue()


EXACT = TruncationPolicy(1e-14)


class TestCheckUnitary:
    """A gate with a NaN or inf entry is refused with a one-line
    ValueError at every entry point that takes a raw matrix; its unitarity
    defect is NaN, which compares false against any tolerance."""

    ENTRY_POINTS = {
        "check_unitary": lambda mat: check_unitary(mat, 4),
        "absorb_gate": lambda mat: identity_mpo(3).absorb_gate(0, mat, EXACT),
        "apply_two_qubit_gate": lambda mat: CanonicalMps.from_basis_state(3, "010")
        .apply_two_qubit_gate(1, mat, EXACT),
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
