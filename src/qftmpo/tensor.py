"""Dense complex tensors, truncation policies and the tensor record format.

`frozen_array` makes the read-only, row-major complex128 copy, refusing
non-finite entries, that chains store as their sites. `DenseTensor` wraps
one for the standalone dense values of the public API (a `GateSpec`
matrix, which keeps the frozen gate hashable, `to_dense()`, the oracle
outputs and `read_tensor`); `TruncationPolicy` says how a singular-value
spectrum is cut. Row-major is also the on-disk layout of one tensor record
(see `write_tensor`); the chain containers of `_canonical` are sequences
of these records. The SVD driver used by the canonical sweeps lives here
too, with a scipy fallback for the occasional non-converging SVD. Dense
materializations anywhere in the package go through `check_dense_size`.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NumericalError, ResourceLimitError

TENSOR_MAGIC = b"MPOT"
TENSOR_FORMAT_VERSION = 1


def frozen_array(data) -> np.ndarray:
    """A read-only, row-major complex128 copy of ``data``; raises
    NumericalError on a NaN or inf entry."""
    arr = np.array(data, dtype=np.complex128, order="C", copy=True)
    if not np.isfinite(arr).all():
        raise NumericalError("tensor has non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Immutable complex tensor (see `frozen_array`)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", frozen_array(self.data))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.data, dtype=dtype)


@dataclass(frozen=True)
class TruncationPolicy:
    """How to cut a singular value spectrum.

    ``rel_cutoff`` drops every s_i with s_i / s_max strictly below the
    cutoff; ``max_rank`` additionally caps the retained count (None means
    unbounded). At least one value is always kept.
    """

    rel_cutoff: float = 0.0
    max_rank: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.rel_cutoff < 1.0:
            raise ValueError(f"rel_cutoff must lie in [0, 1), got {self.rel_cutoff}")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {self.max_rank}")


def check_dense_size(n: int, default_cap: int, what: str) -> None:
    """Refuse a dense object over ``n`` qubits past the cap.

    The environment variable QFTMPO_DENSE_LIMIT, when set, replaces every
    default cap at once.
    """
    raw = os.environ.get("QFTMPO_DENSE_LIMIT")
    try:
        cap = default_cap if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"QFTMPO_DENSE_LIMIT must be an integer, got {raw!r}") from None
    if n > cap:
        raise ResourceLimitError(
            f"{what} on {n} qubits exceeds the dense cap of {cap} qubits "
            f"(QFTMPO_DENSE_LIMIT overrides)"
        )


def check_unitary(mat: np.ndarray, dim: int, tol: float = 1e-10) -> None:
    """Raise unless ``mat`` is a finite ``dim`` x ``dim`` unitary within ``tol``."""
    if mat.shape != (dim, dim):
        raise DimensionMismatchError(f"expected a {dim}x{dim} gate, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("gate has non-finite entries")
    defect = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
    if defect > tol:
        raise ValueError(f"gate is not unitary (defect {defect:.2e} > {tol:.0e})")


def _svd_matrix(mat: np.ndarray, context: str = "") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with a fallback driver; raises NumericalError on a hard failure."""
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    try:
        # gesvd is slower but converges on matrices where gesdd gives up
        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")
    except Exception as exc:  # pragma: no cover - defensive
        where = f" ({context})" if context else ""
        raise NumericalError(f"SVD did not converge for shape {mat.shape}{where}") from exc


def retained_count(s: np.ndarray, policy: TruncationPolicy, extra_cutoff: float = 0.0) -> int:
    """Number of leading singular values kept under ``policy``.

    ``extra_cutoff`` lets callers impose a noise floor on top of the policy;
    the effective relative cutoff is the larger of the two.
    """
    if len(s) == 0:
        return 0
    cutoff = max(policy.rel_cutoff, extra_cutoff)
    if cutoff > 0.0:
        k = int(np.count_nonzero(s >= cutoff * s[0]))
    else:
        k = len(s)
    k = max(k, 1)
    if policy.max_rank is not None:
        k = min(k, policy.max_rank)
    return k


# ---------------------------------------------------------------- #
# binary serialization
# ---------------------------------------------------------------- #
# layout: magic "MPOT" | u32 version | u32 rank | rank * u64 shape |
# row-major entries as little-endian f64 pairs (re, im).

def _read_exact(f: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or fail with a ValueError naming ``what``."""
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated {what}: need {size} bytes, got {len(raw)}")
    return raw


def _bytes_left(f: BinaryIO) -> int:
    """Bytes between the position of a seekable stream and its end."""
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def write_tensor_to(f: BinaryIO, t) -> None:
    """Write one tensor record; ``t`` is a DenseTensor or any array."""
    arr = np.asarray(t, dtype="<c16")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack(f"<II{arr.ndim}Q", TENSOR_FORMAT_VERSION, arr.ndim, *arr.shape))
    f.write(arr.tobytes())


def read_tensor_from(f: BinaryIO) -> np.ndarray:
    """Read one tensor record from a seekable stream as a read-only array.

    The declared payload is checked against the bytes left in the stream
    before it is read, so a damaged header fails with a ValueError instead
    of an attempt to allocate what it claims; a payload holding NaN or inf
    is damaged input too, and fails with a ValueError as well.
    """
    magic = f.read(4)
    if magic != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}, expected {TENSOR_MAGIC!r}")
    version, rank = struct.unpack("<II", _read_exact(f, 8, "tensor header"))
    if version != TENSOR_FORMAT_VERSION:
        raise ValueError(f"unsupported tensor format version {version}")
    if rank > 64:
        raise ValueError(f"implausible tensor rank {rank}")
    shape = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank, "tensor shape"))
    size = 16 * math.prod(shape)
    left = _bytes_left(f)
    if size > left:
        raise ValueError(f"tensor of shape {shape} needs {size} bytes, {left} left")
    data = np.frombuffer(f.read(size), dtype="<c16").reshape(shape)  # read-only view
    if not np.isfinite(data).all():
        raise ValueError(f"damaged tensor record of shape {shape}: tensor has non-finite entries")
    return data


def write_tensor(dest: str | Path | BinaryIO, t) -> None:
    """Write a tensor to a path or an open binary stream."""
    if isinstance(dest, (str, Path)):
        with open(dest, "wb") as f:
            write_tensor_to(f, t)
    else:
        write_tensor_to(dest, t)


def read_tensor(src: str | Path | BinaryIO) -> DenseTensor:
    """Read a tensor written by `write_tensor`."""
    if isinstance(src, (str, Path)):
        with open(src, "rb") as f:
            return DenseTensor(read_tensor_from(f))
    return DenseTensor(read_tensor_from(src))
