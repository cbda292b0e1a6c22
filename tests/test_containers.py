"""Chain containers shared by states (.mps) and operators (.mpo)."""

import hashlib
import struct

import pytest

from qftmpo.mpo import identity_mpo, load_mpo, save_mpo
from qftmpo.mps import CanonicalMps, load_mps, save_mps

# SHA-256 of two small chains in the container format; files already on
# disk must keep loading, so these values never change.
PINNED = {
    "mpo": "93108b29edfcc512409b0d4a835b00ce89d6b0c7f4a6e952f979667a17e59498",
    "mps": "318bb7d8e20c7df1bcd96c5ddcc9ee4c08c4729be0691549b4ebe8517d5004e1",
}


def saved(kind, tmp_path):
    path = tmp_path / f"chain.{kind}"
    if kind == "mpo":
        save_mpo(identity_mpo(3), path)
    else:
        save_mps(CanonicalMps.from_basis_state(3, "010"), path)
    return path


LOADERS = {"mpo": load_mpo, "mps": load_mps}
MAGIC = {"mpo": b"MPOC", "mps": b"MPSC"}


@pytest.mark.parametrize("kind", ["mpo", "mps"])
def test_byte_layout_pinned(kind, tmp_path):
    raw = saved(kind, tmp_path).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == PINNED[kind]


@pytest.mark.parametrize("kind", ["mpo", "mps"])
def test_every_prefix_is_rejected(kind, tmp_path):
    path = saved(kind, tmp_path)
    raw = path.read_bytes()
    LOADERS[kind](path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            LOADERS[kind](path)


@pytest.mark.parametrize("kind", ["mpo", "mps"])
@pytest.mark.parametrize("shape", [(2**40,), (2**63, 2**63)])
def test_oversized_tensor_header_is_rejected(kind, shape, tmp_path):
    path = tmp_path / f"huge.{kind}"
    header = MAGIC[kind] + struct.pack("<II", 1, 1)
    record = b"MPOT" + struct.pack(f"<II{len(shape)}Q", 1, len(shape), *shape)
    path.write_bytes(header + record + b"\x00" * 64)
    with pytest.raises(ValueError, match="needs"):
        LOADERS[kind](path)

