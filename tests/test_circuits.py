import ast
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import qftmpo.circuits as circuits
import qftmpo.mpo as mpo_module
from conftest import (
    circuit_from_document,
    fourier_entry,
    gate_to_dict,
    operator_entry,
    per_gate_reference,
    random_unitary,
)
from qftmpo.circuits import (
    CircuitSpec,
    GateSpec,
    RotationScheme,
    aqft_circuit,
    cascade_operator,
    circuit_fingerprint,
    circuit_to_json,
    compile_to_mpo,
    compile_trace,
    generalized_circuit,
    nearest_neighbor_qft_circuit,
    qft_circuit,
)
from qftmpo.errors import NonAdjacentGateError
from qftmpo.mpo import CanonicalMpo, hs_inner
from qftmpo.oracle import bit_reversal_permutation, dense_circuit_matrix, dense_qft_matrix
from qftmpo.tensor import TruncationPolicy

EXACT = TruncationPolicy(1e-14)

# digests of the bulk spellings of `qftmpo build` at the largest width
PINNED = {
    "nn256": "c595eb932f9304db988762712e3502d8b85471e89d69493eace08db9b33a518b",
    "nn1023": "225179b02c38fdc1473ad0b163acd1e57e1af557f8d33fa667c5b584d5701922",
    "aqft64-7": "39f3d6efe1a9050e53e0f62b74f6600226bf08422781ff8844085ed22f241219",
    "aqft1023-1023": "ce10fccc205b517a0430bea9aca564f20b1763ed83999c1d9746f25a349422a1",
}


def per_order_draws(n, angle):
    """Angle rule of a perturbed scheme, seed 7, scale 0.1: one delta per
    order, drawn for orders 2..n in turn."""
    rng = np.random.default_rng(7)
    deltas = {k: rng.uniform(-0.1, 0.1) for k in range(2, n + 1)}
    return lambda k: angle(k, deltas[k])


def per_gate_draws(angle):
    """Angle rule of a per-gate perturbed scheme, seed 7, scale 0.1: a
    fresh delta at each call."""
    rng = np.random.default_rng(7)
    return lambda k: angle(k, rng.uniform(-0.1, 0.1))


def count(circ, kind):
    return sum(g.kind == kind for g in circ.gates)


class TestGateSpec:
    def test_hadamard_matrix(self):
        g = GateSpec("h", (0,))
        h = g.dense_matrix()
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)

    def test_cphase_matrix(self):
        g = GateSpec("cphase", (0, 1), angle=math.pi / 2)
        assert np.allclose(g.dense_matrix(), np.diag([1, 1, 1, 1j]), atol=1e-15)

    def test_cphase_needs_angle(self):
        with pytest.raises(ValueError):
            GateSpec("cphase", (0, 1))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_cphase_angle_must_be_finite(self, angle):
        # refused as bad input when the gate is made, not as a failed SVD
        # when it is compiled
        with pytest.raises(ValueError, match="finite angle"):
            GateSpec("cphase", (0, 1), angle=angle)

    @pytest.mark.parametrize("kind,sites,matrix", [
        ("h", (0,), None), ("swap", (0, 1), None), ("generic", (0, 1), np.eye(4)),
    ])
    def test_only_cphase_gates_take_an_angle(self, kind, sites, matrix):
        with pytest.raises(ValueError, match=f"{kind} gates take no angle"):
            GateSpec(kind, sites, angle=0.5, matrix=matrix)

    def test_site_count_checked(self):
        with pytest.raises(ValueError):
            GateSpec("h", (0, 1))
        with pytest.raises(ValueError):
            GateSpec("swap", (0,))
        with pytest.raises(ValueError):
            GateSpec("swap", (1, 1))

    def test_generic_needs_matrix(self):
        with pytest.raises(ValueError):
            GateSpec("generic", (0, 1))

    def test_generic_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            GateSpec("generic", (0, 1), matrix=2 * np.eye(4))

    @pytest.mark.parametrize("dim", [3, 8])
    def test_generic_rejects_wrong_shape(self, dim):
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            GateSpec("generic", (0, 1), matrix=np.eye(dim))

    def test_only_generic_gates_take_a_matrix(self):
        with pytest.raises(ValueError, match="h gates take no matrix"):
            GateSpec("h", (0,), matrix=np.eye(2))

    def test_generic_matrix_is_the_validated_copy(self):
        mat = np.eye(4)
        gate = GateSpec("generic", (0, 1), matrix=mat)
        mat[3, 3] = np.nan  # the caller's array, not the gate's
        assert np.array_equal(gate.dense_matrix(), np.eye(4))
        assert gate.dense_matrix().dtype == np.complex128

    def test_generic_gates_compare_by_value(self, rng):
        mat = random_unitary(rng, 4)
        gate = GateSpec("generic", (0, 1), matrix=mat)
        twin = GateSpec("generic", (0, 1), matrix=mat.tolist())
        other = GateSpec("generic", (0, 1), matrix=random_unitary(rng, 4))
        assert gate == twin and hash(gate) == hash(twin)
        assert gate != other
        assert len({gate, twin, other}) == 2

    def test_fingerprint_of_generic_gates(self, rng):
        def circuit(mat):
            return CircuitSpec(2, (GateSpec("generic", (0, 1), matrix=mat),
                                   GateSpec("generic", (1,), matrix=np.eye(2), side="both")))
        mat = random_unitary(rng, 4)
        digest = circuit_fingerprint(circuit(mat))
        assert len(digest) == 64
        assert circuit_fingerprint(circuit(mat.copy())) == digest
        assert circuit_fingerprint(circuit(random_unitary(rng, 4))) != digest

    def test_unknown_kind_or_side(self):
        with pytest.raises(ValueError):
            GateSpec("toffoli", (0, 1))
        with pytest.raises(ValueError):
            GateSpec("h", (0,), side="input")


class TestCircuitSpec:
    def test_site_bounds_checked(self):
        with pytest.raises(ValueError):
            CircuitSpec(2, (GateSpec("h", (2,)),))

    def test_gate_count(self):
        circ = nearest_neighbor_qft_circuit(4)
        assert count(circ, "h") == 4
        assert count(circ, "cphase") == 6
        assert count(circ, "swap") == 6
        assert len(circ.gates) == 16


class TestCircuitFamilies:
    @pytest.mark.parametrize("n,total", [(1, 1), (2, 3), (4, 10)])
    def test_cascade_gate_counts(self, n, total):
        # n Hadamards + n(n-1)/2 controlled phases, no swaps
        circ = qft_circuit(n)
        assert len(circ.gates) == total
        assert count(circ, "swap") == 0

    def test_cascade_two_qubit_example(self):
        circ = qft_circuit(2)
        kinds = [(g.kind, g.sites) for g in circ.gates]
        assert kinds == [("h", (0,)), ("cphase", (0, 1)), ("h", (1,))]
        assert circ.gates[1].angle == pytest.approx(math.pi / 2)

    def test_nn_all_gates_adjacent(self):
        circ = nearest_neighbor_qft_circuit(6)
        for g in circ.gates:
            if len(g.sites) == 2:
                assert g.sites[1] == g.sites[0] + 1

    def test_nn_swaps_are_both_sides(self):
        circ = nearest_neighbor_qft_circuit(5)
        for g in circ.gates:
            assert (g.side == "both") == (g.kind == "swap")

    def test_nn_gate_counts(self):
        n = 7
        circ = nearest_neighbor_qft_circuit(n)
        assert count(circ, "h") == n
        assert count(circ, "cphase") == n * (n - 1) // 2
        assert count(circ, "swap") == n * (n - 1) // 2

    def test_aqft_full_bandwidth_identical(self):
        assert aqft_circuit(5, 5).gates == nearest_neighbor_qft_circuit(5).gates

    def test_aqft_keeps_low_orders(self):
        # bandwidth 3 keeps rotation orders 2 and 3; all swaps remain
        circ = aqft_circuit(5, 3)
        orders = sorted({round(2 * math.pi / g.angle) for g in circ.gates
                         if g.kind == "cphase"})
        assert orders == [4, 8]  # angles 2pi/4 and 2pi/8
        assert count(circ, "swap") == count(nearest_neighbor_qft_circuit(5), "swap")

    def test_aqft_per_qubit_conditioned_counts(self):
        # five qubits, bandwidth three: rotation counts per cascade stage
        # are 2,2,2,1,0 (each stage keeps orders up to 3 within its reach)
        circ = aqft_circuit(5, 3)
        counts = []
        current = None
        for g in circ.gates:
            if g.kind == "h":
                if current is not None:
                    counts.append(current)
                current = 0
            elif g.kind == "cphase":
                current += 1
        counts.append(current)
        assert counts == [2, 2, 2, 1, 0]

    def test_aqft_bandwidth_one_is_hadamards_only(self):
        circ = aqft_circuit(4, 1)
        assert count(circ, "cphase") == 0
        assert count(circ, "h") == 4

    def test_aqft_bandwidth_range(self):
        with pytest.raises(ValueError):
            aqft_circuit(4, 0)
        with pytest.raises(ValueError):
            aqft_circuit(4, 5)

    def test_generalized_standard_identical(self):
        got = generalized_circuit(6, RotationScheme("standard"))
        assert got.gates == nearest_neighbor_qft_circuit(6).gates


class TestRotationScheme:
    def test_standard_angles(self):
        circ = generalized_circuit(4, RotationScheme("standard"))
        angles = sorted({g.angle for g in circ.gates if g.kind == "cphase"}, reverse=True)
        assert angles == pytest.approx([math.pi / 2, math.pi / 4, math.pi / 8])

    def test_base_two_reproduces_standard(self):
        a = generalized_circuit(5, RotationScheme("base-n", base=2))
        b = nearest_neighbor_qft_circuit(5)
        assert all(x.angle == y.angle for x, y in zip(a.gates, b.gates))

    def test_power_law_angles(self):
        circ = generalized_circuit(4, RotationScheme("power-law", exponent=2))
        angles = sorted({g.angle for g in circ.gates if g.kind == "cphase"}, reverse=True)
        want = [2 * math.pi / 4, 2 * math.pi / 9, 2 * math.pi / 16]
        assert angles == pytest.approx(want)

    def test_base_n_angles(self):
        circ = generalized_circuit(3, RotationScheme("base-n", base=3))
        angles = sorted({g.angle for g in circ.gates if g.kind == "cphase"}, reverse=True)
        assert angles == pytest.approx([2 * math.pi / 9, 2 * math.pi / 27])

    def test_perturbed_reproducible(self):
        a = generalized_circuit(5, RotationScheme("perturbed-exponent", scale=0.1, seed=42))
        b = generalized_circuit(5, RotationScheme("perturbed-exponent", scale=0.1, seed=42))
        assert all(x.angle == y.angle for x, y in zip(a.gates, b.gates))

    def test_perturbed_seed_matters(self):
        a = generalized_circuit(5, RotationScheme("perturbed-exponent", scale=0.1, seed=1))
        b = generalized_circuit(5, RotationScheme("perturbed-exponent", scale=0.1, seed=2))
        angles_a = [g.angle for g in a.gates if g.kind == "cphase"]
        angles_b = [g.angle for g in b.gates if g.kind == "cphase"]
        assert angles_a != angles_b

    def test_per_distance_draw_shared_across_stages(self):
        circ = generalized_circuit(5, RotationScheme("perturbed-base", scale=0.2, seed=3))
        sep_to_angle = {}
        for g in circ.gates:
            if g.kind != "cphase":
                continue
            # within a stage, order k = wire distance from stage start + 2;
            # identical k must reuse the same perturbation
            sep_to_angle.setdefault(g.sites[0], set()).add(g.angle)
        for angles in sep_to_angle.values():
            assert len(angles) == 1

    def test_per_gate_draws_differ(self):
        scheme = RotationScheme("perturbed-base", scale=0.2, seed=3, per_gate=True)
        circ = generalized_circuit(5, scheme)
        by_wire = {}
        for g in circ.gates:
            if g.kind == "cphase":
                by_wire.setdefault(g.sites[0], set()).add(g.angle)
        assert any(len(v) > 1 for v in by_wire.values())

    def test_perturbed_scale_bounds(self):
        scheme = RotationScheme("perturbed-exponent", scale=0.05, seed=9)
        circ = generalized_circuit(6, scheme)
        for g in circ.gates:
            if g.kind != "cphase":
                continue
            k = math.log2(2 * math.pi / g.angle)
            assert abs(k - round(k)) <= 0.05 + 1e-12

    @pytest.mark.parametrize("text,kind", [
        ("standard", "standard"),
        ("power-law:2", "power-law"),
        ("base-n:3", "base-n"),
        ("perturbed-exponent:0.1:7", "perturbed-exponent"),
        ("perturbed-base:0.2:9", "perturbed-base"),
    ])
    def test_parse_roundtrip(self, text, kind):
        scheme = RotationScheme.parse(text)
        assert scheme.kind == kind
        assert RotationScheme.parse(scheme.label()) == scheme

    @pytest.mark.parametrize("scheme", [
        RotationScheme("standard"),
        RotationScheme("power-law", exponent=2),
        RotationScheme("base-n", base=3),
        RotationScheme("perturbed-exponent", scale=0.1, seed=7),
        RotationScheme("perturbed-exponent", scale=0.1, seed=7, per_gate=True),
        RotationScheme("perturbed-base", scale=0.25, seed=9),
        RotationScheme("perturbed-base", scale=0.25, seed=9, per_gate=True),
    ])
    def test_label_roundtrip(self, scheme):
        assert RotationScheme.parse(scheme.label()) == scheme

    def test_per_gate_only_for_perturbed(self):
        with pytest.raises(ValueError):
            RotationScheme("standard", per_gate=True)
        with pytest.raises(ValueError):
            RotationScheme.parse("perturbed-base:0.2:9:per-order")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            RotationScheme.parse("fibonacci:3")
        with pytest.raises(ValueError):
            RotationScheme.parse("power-law")
        with pytest.raises(ValueError):
            RotationScheme.parse("perturbed-exponent:0.1")
        # a field past the kind's own, as past a perturbed kind's suffix
        for text in ("standard:xyz", "power-law:2:junk", "base-n:3:4",
                     "perturbed-exponent:0.1:7:per-gate:x"):
            with pytest.raises(ValueError, match="unknown suffix"):
                RotationScheme.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            RotationScheme("base-n", base=1)
        with pytest.raises(ValueError):
            RotationScheme("power-law", exponent=0)
        with pytest.raises(ValueError):
            RotationScheme("perturbed-exponent", scale=0.1)  # no seed


class TestCompilation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_nn_transform_matches_oracle(self, n):
        mpo = compile_to_mpo(nearest_neighbor_qft_circuit(n), EXACT)
        mpo.validate()
        want = dense_qft_matrix(n)[:, bit_reversal_permutation(n)]
        assert np.max(np.abs(mpo.to_dense() - want)) < 1e-12

    @pytest.mark.parametrize("n,b", [(4, 1), (4, 2), (5, 3), (6, 4)])
    def test_aqft_matches_dense_gate_oracle(self, n, b):
        circ = aqft_circuit(n, b)
        mpo = compile_to_mpo(circ, EXACT)
        want = dense_circuit_matrix(circ)
        assert np.max(np.abs(mpo.to_dense() - want)) < 1e-12

    @pytest.mark.parametrize("scheme", [
        RotationScheme("power-law", exponent=2),
        RotationScheme("base-n", base=3),
        RotationScheme("perturbed-exponent", scale=0.1, seed=5),
    ])
    def test_generalized_matches_dense_gate_oracle(self, scheme):
        circ = generalized_circuit(4, scheme)
        mpo = compile_to_mpo(circ, EXACT)
        want = dense_circuit_matrix(circ)
        assert np.max(np.abs(mpo.to_dense() - want)) < 1e-12

    def test_compiled_operator_is_unitary(self):
        mpo = compile_to_mpo(nearest_neighbor_qft_circuit(5), EXACT)
        mat = mpo.to_dense()
        assert np.allclose(mat.conj().T @ mat, np.eye(32), atol=1e-12)

    def test_long_range_gate_rejected(self):
        with pytest.raises(NonAdjacentGateError):
            compile_to_mpo(qft_circuit(3), EXACT)

    def test_descending_pair_rejected(self):
        circ = CircuitSpec(3, (GateSpec("cphase", (2, 1), angle=0.3),))
        with pytest.raises(NonAdjacentGateError):
            compile_to_mpo(circ, EXACT)

    def test_trace_history_and_ceiling(self):
        circ = generalized_circuit(8, RotationScheme("power-law", exponent=2))
        trace = compile_trace(circ, TruncationPolicy(1e-10), rank_ceiling=8)
        assert trace.saturated
        assert trace.mpo is None
        assert trace.gates_applied < len(circ.gates)

    def test_trace_unsaturated(self):
        trace = compile_trace(nearest_neighbor_qft_circuit(6), EXACT, rank_ceiling=64)
        assert not trace.saturated
        assert trace.gates_applied == len(nearest_neighbor_qft_circuit(6).gates)
        assert trace.mpo is not None

    def test_empty_circuit_is_identity(self):
        mpo = compile_to_mpo(CircuitSpec(3, ()), EXACT)
        assert np.allclose(mpo.to_dense(), np.eye(8), atol=1e-13)


def counting(monkeypatch, name):
    """Count the calls compile_trace makes to ``circuits.<name>``."""
    calls = []
    original = getattr(circuits, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(circuits, name, wrapper)
    return calls


def lifted_gates(monkeypatch):
    """Record the gates compile_trace lifts: each lift reads its gate's
    matrix once, and a cached lift reads none."""
    calls = []
    original = GateSpec.dense_matrix

    def wrapper(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GateSpec, "dense_matrix", wrapper)
    return calls


class TestFusedSteps:
    @pytest.mark.parametrize("circ", [
        nearest_neighbor_qft_circuit(16),
        nearest_neighbor_qft_circuit(24),
        aqft_circuit(16, 5),
        generalized_circuit(
            10, RotationScheme("perturbed-exponent", scale=0.1, seed=7, per_gate=True)),
    ], ids=["nn16", "nn24", "aqft16-5", "perturbed10"])
    def test_matches_per_gate_reference(self, circ):
        fused = compile_to_mpo(circ, EXACT)
        ref = per_gate_reference(circ, EXACT)
        assert abs(1 - hs_inner(ref, fused)) <= 1e-12
        again = compile_to_mpo(circ, EXACT)  # compiles give identical bits
        for a, b in zip((*fused.site_tensors, *fused.gamma_vectors),
                        (*again.site_tensors, *again.gamma_vectors)):
            assert np.array_equal(a, b)

    def test_generic_gate_then_swap_matches_dense(self, rng):
        gate = random_unitary(rng, 4)
        circ = CircuitSpec(3, (
            GateSpec("h", (1,)),
            GateSpec("generic", (1, 2), matrix=gate),
            GateSpec("swap", (1, 2), side="both"),
            GateSpec("generic", (0, 1), matrix=gate),
            GateSpec("swap", (0, 1)),
        ))
        mpo = compile_to_mpo(circ, EXACT)
        want = dense_circuit_matrix(circ)
        assert np.max(np.abs(mpo.to_dense() - want)) < 1e-12

    def test_only_same_pair_neighbours_fuse(self, monkeypatch):
        steps = counting(monkeypatch, "two_site_update")
        circ = CircuitSpec(3, (
            GateSpec("cphase", (0, 1), angle=0.3),
            GateSpec("cphase", (1, 2), angle=0.3),
            GateSpec("cphase", (0, 1), angle=0.5),
            GateSpec("swap", (0, 1), side="both"),
        ))
        compile_trace(circ, EXACT)
        # the bond left of each step's pair: site 0 has none, site 1 rank 2
        assert [len(args[0]) for args in steps] == [1, 2, 1]

    def test_lifted_operators_cached_per_key(self, monkeypatch):
        lifted = lifted_gates(monkeypatch)
        compile_trace(nearest_neighbor_qft_circuit(8), EXACT)
        assert len(lifted) == 9  # the Hadamard, seven cphase angles and the swap

    def test_equal_generic_gates_share_a_lift(self, monkeypatch, rng):
        lifted = lifted_gates(monkeypatch)
        mat = random_unitary(rng, 4)
        gate, twin = (GateSpec("generic", (0, 1), matrix=mat.copy()) for _ in range(2))
        other = GateSpec("generic", (0, 1), matrix=random_unitary(rng, 4))
        h = GateSpec("h", (0,))
        compile_trace(CircuitSpec(2, (gate, h, twin, h, other)), EXACT)
        # twin is a separate object with gate's matrix; other gets its own lift
        assert lifted == [gate, h, other]

    def test_ceiling_counts_through_fused_step(self):
        circ = CircuitSpec(2, (
            GateSpec("h", (0,)),
            GateSpec("swap", (0, 1)),
            GateSpec("cphase", (0, 1), angle=0.3),
            GateSpec("h", (1,)),
        ))
        trace = compile_trace(circ, EXACT, rank_ceiling=1)
        assert trace.saturated
        assert trace.gates_applied == 3
        assert trace.mpo is None

    def test_compile_builds_seed_and_result_only(self, monkeypatch):
        calls = []

        def counting(attr):
            original = getattr(CanonicalMpo, attr)

            def wrapper(self, *args):
                calls.append(attr)
                return original(self, *args)
            return wrapper

        for attr in ("__post_init__", "recanonicalize"):
            monkeypatch.setattr(CanonicalMpo, attr, counting(attr))
        compile_trace(nearest_neighbor_qft_circuit(12), EXACT)
        # the identity seed and the swept result; no chain in between
        assert calls == ["__post_init__"] * 2

    def test_discarded_weight_recorded(self):
        circ = nearest_neighbor_qft_circuit(12)
        assert compile_trace(circ, EXACT).discarded_weight < 1e-20
        capped = compile_trace(circ, TruncationPolicy(1e-14, 4))
        assert capped.discarded_weight > 1e-6
        # the discarded weight bounds the squared Frobenius error of the
        # (norm 2^n) operator, measured here as 2^n |1 - hs_inner|
        exact = compile_to_mpo(circ, EXACT)
        assert 2**12 * abs(1 - hs_inner(exact, capped.mpo)) < 2 * capped.discarded_weight


STUDY = TruncationPolicy(1e-10)


class Built(Exception):
    """Raised where `cascade_operator` would build its carry train."""


def _stop_building(*args, **kwargs):
    raise Built


class TestCascadeOperator:
    """`cascade_operator`: one spelling of the cascade, one construction."""

    @pytest.mark.parametrize("options,kind,saturated", [
        ({}, "bulk-tensor", False),
        ({"rank_ceiling": 4}, "bulk-tensor", True),  # rank 10 at n = 8
        ({"bandwidth": 8}, "bulk-tensor", False),
        # every per-order train at n = 8 is at most 2^4 wide, within _WIDEST_TRAIN
        ({"bandwidth": 4}, "carry-train", False),  # no ceiling needed
        ({"bandwidth": 4, "rank_ceiling": 8}, "carry-train", False),  # 2^3 at the ceiling
        ({"bandwidth": 4, "rank_ceiling": 7}, "carry-train", True),  # the coupling's rank 8
        ({"bandwidth": 6, "rank_ceiling": 32}, "carry-train", False),
        ({"bandwidth": 6, "rank_ceiling": 31}, "carry-train", False),  # W = 16
        ({"bandwidth": 5, "rank_ceiling": 15}, "carry-train", True),  # the coupling's rank 16
        ({"scheme": "standard"}, "bulk-tensor", False),
        ({"scheme": "base-n:3"}, "bulk-tensor", False),
        ({"scheme": RotationScheme("base-n", base=2), "rank_ceiling": 10}, "bulk-tensor", False),
        ({"scheme": "power-law:2"}, "carry-train", False),
        ({"scheme": "power-law:2", "rank_ceiling": 8}, "carry-train", True),
        ({"scheme": "perturbed-exponent:0.1:7"}, "carry-train", False),
        ({"scheme": "perturbed-exponent:0.1:7:per-gate"}, "gate-compile", False),
        ({"scheme": "perturbed-exponent:0.1:7:per-gate", "rank_ceiling": 8}, "gate-compile",
         True),
    ], ids=["plain", "plain-ceiling-4", "bandwidth-n", "bandwidth-4", "bandwidth-4-ceiling-8",
            "bandwidth-4-ceiling-7", "bandwidth-6-ceiling-32", "bandwidth-6-ceiling-31",
            "bandwidth-5-ceiling-15", "standard", "base-n-3", "base-n-2-ceiling-10",
            "power-law-2", "power-law-2-ceiling-8", "perturbed-exponent", "per-gate",
            "per-gate-ceiling-8"])
    def test_dispatch_table(self, options, kind, saturated):
        circuit, trace = cascade_operator(8, STUDY, **options)
        assert trace.construction["kind"] == kind
        assert trace.saturated is saturated
        assert (trace.mpo is None) is saturated
        if kind != "gate-compile":
            assert trace.gates_applied == 0
        if not saturated:  # every construction has the gate compile's ranks
            assert trace.mpo.bond_ranks == compile_to_mpo(circuit, STUDY).bond_ranks

    @pytest.mark.parametrize("options,says", [
        ({"bandwidth": 3, "scheme": "standard"}, "bandwidth and scheme are mutually exclusive"),
        ({"bandwidth": 3, "scheme": ""}, "bandwidth and scheme are mutually exclusive"),
        ({"scheme": ""}, "unknown rotation scheme ''"),
    ])
    def test_refused_spellings(self, options, says):
        with pytest.raises(ValueError, match=says):
            cascade_operator(8, EXACT, **options)

    @pytest.mark.parametrize("bandwidth,ceiling,saturated", [
        (8, None, False),  # W = 128
        (9, 64, True),  # W = 256, saturated on the coupling
        (9, 256, False),
        (9, None, False),
    ])
    def test_wide_trains_whatever_the_ceiling(self, bandwidth, ceiling, saturated):
        _, trace = cascade_operator(16, STUDY, bandwidth=bandwidth, rank_ceiling=ceiling)
        assert trace.construction == {"kind": "carry-train"}
        assert trace.saturated is saturated
        if not saturated:
            assert trace.mpo.max_bond_rank == {8: 95, 9: 129}[bandwidth]

    def test_rank_does_not_depend_on_the_ceiling(self):
        # W = 512: a gate compile's per-step cuts straddle the cutoff here
        # (it reads 107); the train cuts once, at any ceiling
        ranks = [cascade_operator(18, STUDY, scheme="power-law:2", rank_ceiling=ceiling)[1]
                 .mpo.max_bond_rank for ceiling in (256, 512)]
        assert ranks == [108, 108]

    @pytest.mark.parametrize("max_rank", [None, 16])
    @pytest.mark.parametrize("ceiling", [16, 64, 256, 512, None])
    @pytest.mark.parametrize("n,options", [
        (16, {"bandwidth": 9}), (18, {"bandwidth": 10}), (16, {"scheme": "power-law:2"}),
        (18, {"scheme": "perturbed-exponent:0.1:7"}),
    ], ids=["aqft-256", "aqft-512", "power-law-256", "perturbed-512"])
    def test_per_order_trains_to_512_at_any_ceiling(self, monkeypatch, n, options, ceiling,
                                                     max_rank):
        def compiled(*args, **kwargs):
            raise AssertionError("a per-order cascade up to W = 512 compiled its gates")

        monkeypatch.setattr(circuits, "_carry_sweep", _stop_building)
        monkeypatch.setattr(circuits, "compile_trace", compiled)
        policy = TruncationPolicy(STUDY.rel_cutoff, max_rank)
        if max_rank is None and ceiling in (16, 64):  # each row's rank is over 64
            _, trace = cascade_operator(n, policy, rank_ceiling=ceiling, **options)
            assert trace.saturated and trace.construction == {"kind": "carry-train"}
        else:
            with pytest.raises(Built):
                cascade_operator(n, policy, rank_ceiling=ceiling, **options)

    @pytest.mark.parametrize("n,options,ceiling,cuts,saturated", [
        (20, {"bandwidth": 10}, 16, [5], True),  # cut 5's rank 32
        (16, {"scheme": "power-law:2"}, 16, [5], True),
        (16, {"scheme": "power-law:2"}, 64, [7], True),  # cut 7's rank 86
        (18, {"scheme": "power-law:2"}, 100, [7, 8], True),  # ranks 88, 106
        (18, {"scheme": "power-law:2"}, 200, [8, 9], False),  # ranks 106, 108
        (18, {"bandwidth": 6}, 16, [5], True),  # past b - 1 = 5 every cut is cut 5
    ])
    def test_coupling_check_stops_at_the_first_cut_over(self, monkeypatch, n, options,
                                                        ceiling, cuts, saturated):
        # a cut of window w has rank at most 2^w: those that cannot pass the
        # ceiling are skipped, and the widest is read last
        read = []

        def recording(n, turns, policy, cut=None):
            read.append(cut)
            return mpo_module._carry_rank(n, turns, policy, cut)

        monkeypatch.setattr(circuits, "_carry_rank", recording)
        monkeypatch.setattr(circuits, "_carry_sweep", _stop_building)
        if saturated:
            assert cascade_operator(n, STUDY, rank_ceiling=ceiling, **options)[1].saturated
        else:
            with pytest.raises(Built):
                cascade_operator(n, STUDY, rank_ceiling=ceiling, **options)
        assert read == cuts

    @pytest.mark.parametrize("n,options,taken", [
        (18, {"bandwidth": 10, "rank_ceiling": 512}, "_carry_sweep"),  # W = 512
        (20, {"bandwidth": 11, "rank_ceiling": 1024}, "compile_trace"),  # W = 1024
        (20, {"scheme": "power-law:2", "rank_ceiling": 4096}, "compile_trace"),
        (20, {"scheme": "power-law:2"}, "compile_trace"),
    ])
    def test_no_ceiling_allows_a_train_past_512(self, monkeypatch, n, options, taken):
        # at W = 1024 the gate compile is the cheaper even when no ceiling stops it
        class Taken(Exception):
            pass

        def stop(name):
            def recorder(*args, **kwargs):
                raise Taken(name)
            return recorder

        for name in ("_carry_sweep", "compile_trace"):
            monkeypatch.setattr(circuits, name, stop(name))
        with pytest.raises(Taken, match=taken):
            cascade_operator(n, STUDY, **options)

    @pytest.mark.parametrize("ceiling", [16, 63, 64])
    def test_coupling_rank_decides_before_the_build(self, monkeypatch, ceiling):
        # n = 12, b = 8: W = 64 and the widest cut's rank 63; a ceiling
        # under both is checked on the coupling, and only a train that may
        # fit under it is built
        built = []

        def recording(n, turns, policy):
            built.append(n)
            return mpo_module._carry_sweep(n, turns, policy)

        monkeypatch.setattr(circuits, "_carry_sweep", recording)
        _, trace = cascade_operator(12, STUDY, bandwidth=8, rank_ceiling=ceiling)
        assert trace.saturated is (ceiling < 63)
        assert built == ([] if ceiling < 63 else [12])
        assert trace.construction == {"kind": "carry-train"}
        assert trace.gates_applied == 0

    def test_capped_power_law_train_weight_bounds_its_error(self):
        n, policy = 10, TruncationPolicy(1e-14, 4)
        circuit, trace = cascade_operator(n, policy, scheme="power-law:2")
        assert trace.construction == {"kind": "carry-train"}
        exact = compile_to_mpo(circuit, EXACT).to_dense()
        error = np.linalg.norm(trace.mpo.to_dense() - exact) ** 2
        assert 1e-6 < error <= trace.discarded_weight * (1 + 1e-9)

    def test_carry_train_weight_is_its_sweeps(self):
        # the sweep cuts the exact carry train, so its weight bounds the error
        n, policy = 10, TruncationPolicy(1e-14, 4)
        _, trace = cascade_operator(n, policy, bandwidth=6, rank_ceiling=32)
        assert trace.construction == {"kind": "carry-train"}
        exact = compile_to_mpo(aqft_circuit(n, 6), EXACT).to_dense()
        error = np.linalg.norm(trace.mpo.to_dense() - exact) ** 2
        assert 1e-6 < error <= trace.discarded_weight * (1 + 1e-9)

    def test_front_ends_leave_the_choice_here(self):
        # the command line and the studies import no private name of another
        # module, and neither compiles gates nor builds a train itself
        package = Path(circuits.__file__).parent
        for name in ("cli.py", "analysis.py"):
            tree = ast.parse((package / name).read_text())
            imported = [alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names]
            assert not [i for i in imported if i.startswith("_")], name
            assert "compile_trace" not in imported, name


class TestSerialization:
    def test_json_roundtrip(self):
        circ = aqft_circuit(5, 3)
        back = circuit_from_document(circuit_to_json(circ))
        assert back.n_qubits == circ.n_qubits
        assert back.family == circ.family
        assert back.params == circ.params
        assert back.gates == circ.gates

    def test_json_roundtrip_generic_gate(self, rng):
        mat = np.diag([1, 1, 1, 1j])
        circ = CircuitSpec(2, (GateSpec("generic", (0, 1), matrix=mat),))
        back = circuit_from_document(circuit_to_json(circ))
        assert np.array_equal(back.gates[0].dense_matrix(), mat)
        assert back.gates == circ.gates

    def test_fingerprint_stable_and_distinct(self):
        a1 = circuit_fingerprint(nearest_neighbor_qft_circuit(5))
        a2 = circuit_fingerprint(nearest_neighbor_qft_circuit(5))
        b = circuit_fingerprint(aqft_circuit(5, 3))
        assert a1 == a2
        assert a1 != b
        assert len(a1) == 64

    # standard angles are exact binary fractions times 2*pi, so the
    # digests do not depend on the platform
    @pytest.mark.parametrize("make,digest", [
        (lambda: nearest_neighbor_qft_circuit(1),
         "03b68c00e92393ba7a34bf45054879f0809123cec29ac09684bee50f89b3e96c"),
        (lambda: nearest_neighbor_qft_circuit(5),
         "bb7b8cc39449201eaad78d0f9439d131636162f724731f27a15d66e2667bde54"),
        (lambda: nearest_neighbor_qft_circuit(32),
         "97e5c6c8566f8acc7e0f423acb1ee068f9e1b9e902da1d6779ee28ef2956cb1e"),
        (lambda: aqft_circuit(12, 5),
         "9f1984d21bd7d2bd70ad8420f4cabbc780eb93b0697756705a8920cf8f617d99"),
        (lambda: nearest_neighbor_qft_circuit(256), PINNED["nn256"]),
        (lambda: nearest_neighbor_qft_circuit(1023), PINNED["nn1023"]),
        (lambda: aqft_circuit(64, 7), PINNED["aqft64-7"]),
        (lambda: aqft_circuit(1023, 1023), PINNED["aqft1023-1023"]),
        # 2 pi / k^2 and 2 pi / 3^k divide by exactly representable numbers
        (lambda: generalized_circuit(14, RotationScheme.parse("power-law:2")),
         "f6fddf3986830957bf33b1740a6313026e1b574cf9d504f800312ce8b7622f8a"),
        (lambda: generalized_circuit(14, RotationScheme.parse("base-n:3")),
         "01048361d3553902f56a022943c7e8363ebac8adf608d331705f95fbbe9698a3"),
        # the draws of default_rng(7), one per order or one per gate in gate order
        (lambda: generalized_circuit(14, RotationScheme.parse("perturbed-exponent:0.1:7")),
         "4c91aff3655b87d1ce30fd136257617480edbf5bb82126b1115e99bac78649e5"),
        (lambda: generalized_circuit(
            14, RotationScheme.parse("perturbed-exponent:0.1:7:per-gate")),
         "6dba70560a0f72eaae117f04f9f0c3f0313deae405543f5a8ecef21e86f7dd95"),
    ], ids=["nn1", "nn5", "nn32", "aqft12-5", "nn256", "nn1023", "aqft64-7", "aqft1023-1023",
            "power-law-2", "base-n-3", "perturbed-exponent", "perturbed-exponent-per-gate"])
    def test_fingerprint_pinned(self, make, digest):
        assert circuit_fingerprint(make()) == digest

    @pytest.mark.parametrize("make,family,params,angle,keep", [
        (lambda: nearest_neighbor_qft_circuit(9), "nn-qft", {"n": 9},
         lambda: lambda k: 2.0 * math.pi / 2.0**k, None),
        (lambda: aqft_circuit(9, 4), "aqft", {"n": 9, "bandwidth": 4},
         lambda: lambda k: 2.0 * math.pi / 2.0**k, lambda k: k <= 4),
        (lambda: generalized_circuit(9, RotationScheme.parse("power-law:2")), "generalized",
         {"n": 9, "scheme": "power-law:2"}, lambda: lambda k: 2.0 * math.pi / float(k) ** 2, None),
        (lambda: generalized_circuit(9, RotationScheme.parse("base-n:3")), "generalized",
         {"n": 9, "scheme": "base-n:3"}, lambda: lambda k: 2.0 * math.pi / 3.0**k, None),
        (lambda: generalized_circuit(9, RotationScheme.parse("perturbed-exponent:0.1:7")),
         "generalized", {"n": 9, "scheme": "perturbed-exponent:0.1:7"},
         lambda: per_order_draws(9, lambda k, delta: 2.0 * math.pi / 2.0 ** (k + delta)), None),
        (lambda: generalized_circuit(9, RotationScheme.parse("perturbed-base:0.1:7")),
         "generalized", {"n": 9, "scheme": "perturbed-base:0.1:7"},
         lambda: per_order_draws(9, lambda k, delta: 2.0 * math.pi / (2.0 + delta) ** k), None),
        (lambda: generalized_circuit(
            9, RotationScheme.parse("perturbed-exponent:0.1:7:per-gate")),
         "generalized", {"n": 9, "scheme": "perturbed-exponent:0.1:7:per-gate"},
         lambda: per_gate_draws(lambda k, delta: 2.0 * math.pi / 2.0 ** (k + delta)), None),
    ], ids=["nn", "aqft", "power-law", "base-n", "perturbed-exponent", "perturbed-base",
            "per-gate"])
    def test_json_is_the_stage_loop_document(self, make, family, params, angle, keep):
        # angle() is called once per kept controlled phase, in gate order
        n, angle, keep = params["n"], angle(), keep or (lambda k: True)
        gates = []
        for stage in range(n):
            gates.append({"kind": "h", "sites": [0], "side": "output"})
            for d in range(n - 1 - stage):
                if keep(d + 2):
                    gates.append({"kind": "cphase", "sites": [d, d + 1], "side": "output",
                                  "angle": angle(d + 2)})
                gates.append({"kind": "swap", "sites": [d, d + 1], "side": "both"})
        doc = {"format": "qftmpo-circuit/1", "n_qubits": n, "family": family,
               "params": params, "gates": gates}
        assert circuit_to_json(make()) == json.dumps(doc, sort_keys=True)

    def test_json_of_generic_gates_is_the_gate_list_document(self):
        c = math.sqrt(0.99)
        tiny = GateSpec("generic", (1,), matrix=[[complex(1.0, -0.0), 5e-324], [-0.0, 1.0]])
        turn = GateSpec("generic", (0, 1), matrix=np.kron([[c, 0.1], [-0.1, c]], np.eye(2)),
                        side="both")
        circ = CircuitSpec(2, (tiny, turn, tiny), params={"note": "generic"})
        doc = {"format": "qftmpo-circuit/1", "n_qubits": 2, "family": "custom",
               "params": {"note": "generic"}, "gates": [gate_to_dict(g) for g in circ.gates]}
        text = circuit_to_json(circ)
        assert text == json.dumps(doc, sort_keys=True)
        assert "-0.0" in text and "5e-324" in text and "0.1" in text

    def test_cascade_shares_its_distinct_gates(self):
        # one Hadamard plus a cphase and a swap per wire pair: 2n - 1
        # objects among the n^2 gates
        circ = nearest_neighbor_qft_circuit(64)
        assert len(circ.gates) == 64 * 64
        assert len({id(g) for g in circ.gates}) == 2 * 64 - 1

    def test_format_tag_checked(self):
        doc = json.loads(circuit_to_json(qft_circuit(2)))
        assert doc["format"] == circuits.CIRCUIT_FORMAT == "qftmpo-circuit/1"


class TestClosedFormEntries:
    """Sampled entries of compiled transforms against the closed form, past
    every dense cap: O(n chi^2) per entry and independent of the compile
    path."""

    @pytest.mark.parametrize("n", [20, 30, 32, 64, pytest.param(128, marks=pytest.mark.slow)])
    def test_entries(self, n):
        op = compile_to_mpo(nearest_neighbor_qft_circuit(n), TruncationPolicy(1e-14, 16))
        rng = random.Random(1000 + n)
        worst = 0.0
        for _ in range(200):
            y, x = rng.getrandbits(n), rng.getrandbits(n)
            worst = max(worst, abs(operator_entry(op, y, x) - fourier_entry(y, x, n)))
        assert worst <= 1e-11

    def test_closed_form_at_1024_qubits(self):
        n = 1024
        assert fourier_entry(1, 1, n) == pytest.approx(-1.0, abs=1e-15)  # rev(1) = 2^1023
        assert fourier_entry(1, 2, n) == pytest.approx(1j, abs=1e-15)  # rev(2) = 2^1022
        # y rev(x) = 2^2045 + 2^1023, far past the float range before the reduction
        assert fourier_entry((1 << 1022) + 1, 1, n) == pytest.approx(-1.0, abs=1e-15)
