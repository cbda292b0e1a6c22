"""Property tests: damaged containers and circuit JSON documents."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circuit_from_document, gate_to_dict
from qftmpo.circuits import (
    CircuitSpec,
    GateSpec,
    RotationScheme,
    aqft_circuit,
    circuit_fingerprint,
    circuit_to_json,
    generalized_circuit,
    nearest_neighbor_qft_circuit,
)
from qftmpo.mpo import identity_mpo, load_mpo, save_mpo
from qftmpo.mps import CanonicalMps, load_mps, save_mps

LOADERS = {"mpo": load_mpo, "mps": load_mps}
KINDS = sorted(LOADERS)


class Containers:
    """Saved `identity_mpo(3)` and `from_basis_state(3, "010")` files, and
    a loader for damaged copies of them."""

    def __init__(self, workdir):
        self.workdir = workdir
        save_mpo(identity_mpo(3), workdir / "pristine.mpo")
        save_mps(CanonicalMps.from_basis_state(3, "010"), workdir / "pristine.mps")
        self.pristine = {kind: (workdir / f"pristine.{kind}").read_bytes() for kind in KINDS}

    def loads_or_value_error(self, kind, raw):
        """``raw`` must load as a ``kind`` container or raise ValueError
        (DimensionMismatchError included), never anything else."""
        path = self.workdir / f"damaged.{kind}"
        path.write_bytes(raw)
        try:
            LOADERS[kind](path)
        except ValueError:
            pass


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    return Containers(tmp_path_factory.mktemp("containers"))


@pytest.mark.parametrize("kind", KINDS)
def test_every_prefix(containers, kind):
    raw = containers.pristine[kind]
    for cut in range(len(raw) + 1):
        containers.loads_or_value_error(kind, raw[:cut])


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(KINDS), where=st.floats(0, 1, exclude_max=True),
       xor=st.integers(1, 255))
def test_single_byte_flip(containers, kind, where, xor):
    raw = bytearray(containers.pristine[kind])
    raw[int(where * len(raw))] ^= xor
    containers.loads_or_value_error(kind, bytes(raw))


@settings(deadline=None, max_examples=200)
@given(kind=st.sampled_from(KINDS), keep=st.integers(0, 64), tail=st.binary(max_size=600))
def test_random_bytes(containers, kind, keep, tail):
    # keeping a prefix of a real file (magic and headers) lets random bytes
    # reach deeper into the reader than bytes random from the first one
    containers.loads_or_value_error(kind, containers.pristine[kind][:keep] + tail)


SCHEMES = st.one_of(
    st.just(RotationScheme("standard")),
    st.builds(RotationScheme, st.just("power-law"), exponent=st.integers(1, 4)),
    st.builds(RotationScheme, st.just("base-n"), base=st.integers(2, 5)),
    st.builds(RotationScheme, st.sampled_from(["perturbed-exponent", "perturbed-base"]),
              scale=st.floats(0, 0.5), seed=st.integers(0, 2**32), per_gate=st.booleans()),
)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 8))
    family = draw(st.sampled_from(["nn", "aqft", "generalized"]))
    if family == "nn":
        return nearest_neighbor_qft_circuit(n)
    if family == "aqft":
        return aqft_circuit(n, draw(st.integers(1, n)))
    return generalized_circuit(n, draw(SCHEMES))


@settings(deadline=None, max_examples=150)
@given(circuit=circuits())
def test_circuit_json_round_trip_keeps_fingerprint(circuit):
    again = circuit_from_document(circuit_to_json(circuit))
    assert circuit_fingerprint(again) == circuit_fingerprint(circuit)
    assert again.gates == circuit.gates


@st.composite
def generic_circuits(draw):
    """Generic phase gates, on one site or a pair, some objects placed
    more than once."""
    n = draw(st.integers(2, 6))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        phases = draw(st.lists(st.floats(-4, 4), min_size=2, max_size=4)
                      .filter(lambda p: len(p) != 3))
        site = draw(st.integers(0, n - len(phases) // 2))
        sites = (site,) if len(phases) == 2 else (site, site + 1)
        pool.append(GateSpec("generic", sites, matrix=np.diag(np.exp(1j * np.array(phases))),
                             side=draw(st.sampled_from(["output", "both"]))))
    gates = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return CircuitSpec(n, tuple(gates), params={"pool": len(pool)})


def per_gate_json(circuit):
    """The document encoded as one object, one dict per gate occurrence."""
    return json.dumps({
        "format": "qftmpo-circuit/1",
        "n_qubits": circuit.n_qubits,
        "family": circuit.family,
        "params": circuit.params,
        "gates": [gate_to_dict(g) for g in circuit.gates],
    }, sort_keys=True)


@settings(deadline=None, max_examples=150)
@given(circuit=st.one_of(circuits(), generic_circuits()), reload=st.booleans())
def test_circuit_json_matches_per_gate_encoding(circuit, reload):
    """Shared gate objects are encoded once; the text stays what encoding
    every gate afresh gives, for built circuits and for their rebuilds."""
    if reload:  # one object per gate, none shared
        circuit = circuit_from_document(circuit_to_json(circuit))
    assert circuit_to_json(circuit) == per_gate_json(circuit)
