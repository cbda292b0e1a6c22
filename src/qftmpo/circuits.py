"""Circuit descriptions and their compilation into canonical operator chains.

The quantum Fourier transform circuits come in two layouts. The textbook
cascade (`qft_circuit`) uses long-range controlled phases and is only a
target for dense reference evolution. The nearest-neighbour layout
(`nearest_neighbor_qft_circuit`) interleaves the cascade with swaps so that
every interaction is between adjacent sites; the swaps are flagged
side="both" so compilation tracks the input ordering along with the output
ordering, and the compiled operator equals the Fourier matrix with
bit-reversed input ordering.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ._canonical import SplitSketch
from .errors import BondRankCeilingError, NonAdjacentGateError, NumericalError
from .mpo import CanonicalMpo, _absorb_pair, _single_site_apply, identity_mpo, pair_operator
from .tensor import DenseTensor, TruncationPolicy, check_unitary

GATE_KINDS = ("h", "cphase", "swap", "generic")
GATE_SIDES = ("output", "both")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


@dataclass(frozen=True)
class GateSpec:
    """One gate: a named kind plus its placement.

    ``sites`` is one index for single-qubit kinds and an ascending pair for
    two-qubit kinds; the first site is the slower index of the gate matrix.
    ``side`` selects whether compilation multiplies the gate onto the
    output legs only or conjugates both sides (reordering bookkeeping).
    """

    kind: str
    sites: tuple[int, ...]
    angle: float | None = None
    matrix: DenseTensor | None = None
    side: str = "output"

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.side not in GATE_SIDES:
            raise ValueError(f"unknown gate side {self.side!r}")
        expected = 1 if self.kind == "h" else 2
        if self.kind == "generic":
            if self.matrix is None:
                raise ValueError("generic gates need an explicit matrix")
            shape = np.shape(self.matrix)
            if shape not in ((2, 2), (4, 4)):
                raise ValueError(f"generic gate matrix must be 2x2 or 4x4, got shape {shape}")
            check_unitary(np.asarray(self.matrix), shape[0])
            expected = 1 if shape == (2, 2) else 2
        if len(self.sites) != expected:
            raise ValueError(f"{self.kind} gate takes {expected} site(s), got {self.sites}")
        if len(self.sites) == 2 and self.sites[0] == self.sites[1]:
            raise ValueError(f"two-qubit gate needs distinct sites, got {self.sites}")
        if self.kind == "cphase" and self.angle is None:
            raise ValueError("cphase gates need an angle")

    def dense_matrix(self) -> np.ndarray:
        if self.kind == "h":
            return _HADAMARD.copy()
        if self.kind == "cphase":
            return np.diag([1.0, 1.0, 1.0, np.exp(1j * self.angle)]).astype(np.complex128)
        if self.kind == "swap":
            return _SWAP.copy()
        return np.array(self.matrix.data)


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """An ordered gate list on a fixed-width qubit register."""

    n_qubits: int
    gates: tuple[GateSpec, ...]
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need n_qubits >= 1, got {self.n_qubits}")
        gates = tuple(self.gates)
        for g in gates:
            for s in g.sites:
                if not 0 <= s < self.n_qubits:
                    raise ValueError(
                        f"gate {g.kind} touches site {s}, outside 0..{self.n_qubits - 1}"
                    )
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "params", dict(self.params))

    def gate_count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.gates)
        return sum(1 for g in self.gates if g.kind == kind)


# ---------------------------------------------------------------- #
# rotation schemes
# ---------------------------------------------------------------- #

SCHEME_KINDS = ("standard", "power-law", "base-n", "perturbed-exponent", "perturbed-base")


@dataclass(frozen=True)
class RotationScheme:
    """Angle rule for the controlled phase at cascade order k (k >= 2).

    standard            2*pi / 2^k
    power-law (p)       2*pi / k^p
    base-n (b)          2*pi / b^k     (b = 2 reproduces standard)
    perturbed-exponent  2*pi / 2^(k + delta_k)
    perturbed-base      2*pi / (2 + delta_k)^k

    delta_k is drawn once per order k from uniform(-scale, scale) with the
    given seed, identical for every gate at the same order; ``per_gate``
    switches to an independent draw per gate occurrence instead.
    """

    kind: str = "standard"
    exponent: int | None = None
    base: int | None = None
    scale: float | None = None
    seed: int | None = None
    per_gate: bool = False

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown rotation scheme {self.kind!r}")
        if self.kind == "power-law" and (self.exponent is None or self.exponent < 1):
            raise ValueError("power-law needs a positive integer exponent")
        if self.kind == "base-n" and (self.base is None or self.base < 2):
            raise ValueError("base-n needs an integer base >= 2")
        if self.kind.startswith("perturbed"):
            if self.scale is None or not 0 <= self.scale:
                raise ValueError("perturbed schemes need a non-negative scale")
            if self.seed is None:
                raise ValueError("perturbed schemes need a seed for reproducibility")
        elif self.per_gate:
            raise ValueError("per_gate applies to perturbed schemes only")

    @classmethod
    def standard(cls) -> "RotationScheme":
        return cls("standard")

    @classmethod
    def power_law(cls, exponent: int) -> "RotationScheme":
        return cls("power-law", exponent=exponent)

    @classmethod
    def base_n(cls, base: int) -> "RotationScheme":
        return cls("base-n", base=base)

    @classmethod
    def perturbed_exponent(cls, scale: float, seed: int, per_gate: bool = False) -> "RotationScheme":
        return cls("perturbed-exponent", scale=scale, seed=seed, per_gate=per_gate)

    @classmethod
    def perturbed_base(cls, scale: float, seed: int, per_gate: bool = False) -> "RotationScheme":
        return cls("perturbed-base", scale=scale, seed=seed, per_gate=per_gate)

    @classmethod
    def parse(cls, text: str) -> "RotationScheme":
        """Parse "standard", "power-law:P", "base-n:B",
        "perturbed-exponent:SCALE:SEED", "perturbed-base:SCALE:SEED"; the
        perturbed forms take an optional ":per-gate" suffix. Inverse of
        `label`."""
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            if kind == "standard":
                return cls.standard()
            if kind == "power-law":
                return cls.power_law(int(parts[1]))
            if kind == "base-n":
                return cls.base_n(int(parts[1]))
            if kind in ("perturbed-exponent", "perturbed-base"):
                if parts[3:] not in ([], ["per-gate"]):
                    raise ValueError(f"unknown suffix {parts[3:]}")
                return cls(kind, scale=float(parts[1]), seed=int(parts[2]),
                           per_gate=parts[3:] == ["per-gate"])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"cannot parse rotation scheme {text!r}") from exc
        raise ValueError(f"unknown rotation scheme {kind!r}")

    def label(self) -> str:
        if self.kind == "standard":
            return "standard"
        if self.kind == "power-law":
            return f"power-law:{self.exponent}"
        if self.kind == "base-n":
            return f"base-n:{self.base}"
        suffix = ":per-gate" if self.per_gate else ""
        return f"{self.kind}:{self.scale}:{self.seed}{suffix}"


class _AngleSource:
    """Resolves the angle for each cascade order, handling perturbations."""

    def __init__(self, scheme: RotationScheme, max_order: int):
        self._scheme = scheme
        self._rng = None
        self._per_distance = {}
        if scheme.kind.startswith("perturbed"):
            self._rng = np.random.default_rng(scheme.seed)
            if not scheme.per_gate:
                # one delta per order, drawn in increasing k for determinism
                for k in range(2, max_order + 1):
                    self._per_distance[k] = self._rng.uniform(-scheme.scale, scheme.scale)

    def angle(self, k: int) -> float:
        s = self._scheme
        if s.kind == "standard":
            return 2.0 * math.pi / 2.0**k
        if s.kind == "power-law":
            return 2.0 * math.pi / float(k) ** s.exponent
        if s.kind == "base-n":
            return 2.0 * math.pi / float(s.base) ** k
        if s.per_gate:
            delta = self._rng.uniform(-s.scale, s.scale)
        else:
            delta = self._per_distance[k]
        if s.kind == "perturbed-exponent":
            return 2.0 * math.pi / 2.0 ** (k + delta)
        return 2.0 * math.pi / (2.0 + delta) ** k


# ---------------------------------------------------------------- #
# circuit families
# ---------------------------------------------------------------- #

def qft_circuit(n: int) -> CircuitSpec:
    """Textbook cascade with long-range controlled phases (no swaps).

    Only a dense-evolution target; compilation requires the
    nearest-neighbour layout. Densely applied, it produces the Fourier
    matrix with bit-reversed output ordering.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    source = _AngleSource(RotationScheme.standard(), n)
    gates = []
    for q in range(n):
        gates.append(GateSpec("h", (q,)))
        for t in range(q + 1, n):
            gates.append(GateSpec("cphase", (q, t), angle=source.angle(t - q + 1)))
    return CircuitSpec(n, tuple(gates), family="qft", params={"n": n})


def _nn_cascade(n: int, angle_source: _AngleSource,
                keep: Callable[[int], bool]) -> tuple[GateSpec, ...]:
    """Nearest-neighbour cascade. Each stage puts the active qubit on wire
    0, applies its Hadamard, then walks it rightward: a controlled phase of
    order d+2 with the wire-d neighbour (when kept), followed by a
    bookkeeping swap. After stage s the finished qubit is parked at wire
    n-1-s, so the register ends in reversed order."""
    gates = []
    for stage in range(n):
        gates.append(GateSpec("h", (0,)))
        for d in range(n - 1 - stage):
            k = d + 2
            if keep(k):
                gates.append(GateSpec("cphase", (d, d + 1), angle=angle_source.angle(k)))
            gates.append(GateSpec("swap", (d, d + 1), side="both"))
    return tuple(gates)


def nearest_neighbor_qft_circuit(n: int) -> CircuitSpec:
    """Fourier transform with adjacent interactions only; compiles to the
    Fourier matrix in bit-reversed input ordering."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gates = _nn_cascade(n, _AngleSource(RotationScheme.standard(), n), lambda k: True)
    return CircuitSpec(n, gates, family="nn-qft", params={"n": n})


def aqft_circuit(n: int, bandwidth: int) -> CircuitSpec:
    """Approximate transform: keep controlled phases of order k <= bandwidth.

    bandwidth is the highest retained rotation order; each qubit then
    conditions at most bandwidth - 1 controlled phases. bandwidth = n
    reproduces the full nearest-neighbour circuit, bandwidth = 1 keeps only
    the Hadamards (and the reordering swaps).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= bandwidth <= n:
        raise ValueError(f"bandwidth must lie in [1, {n}], got {bandwidth}")
    gates = _nn_cascade(
        n, _AngleSource(RotationScheme.standard(), n), lambda k: k <= bandwidth
    )
    return CircuitSpec(
        n, gates, family="aqft", params={"n": n, "bandwidth": bandwidth}
    )


def generalized_circuit(n: int, scheme: RotationScheme) -> CircuitSpec:
    """Nearest-neighbour cascade with the controlled-phase angles replaced
    per ``scheme``. The standard scheme reproduces
    `nearest_neighbor_qft_circuit` exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gates = _nn_cascade(n, _AngleSource(scheme, n), lambda k: True)
    return CircuitSpec(
        n, gates, family="generalized", params={"n": n, "scheme": scheme.label()}
    )


# ---------------------------------------------------------------- #
# compilation
# ---------------------------------------------------------------- #

@dataclass(eq=False)
class CompileTrace:
    """Compilation record.

    ``mpo`` is the operator, or None when the rank ceiling was hit.
    ``max_rank_history`` has one entry per absorbed gate: the running
    maximum bond rank after that gate's step. Consecutive gates on the same
    pair form one step, so each of them records the rank after the whole
    step, and the history never decreases. ``gates_applied`` counts the
    gates through the last step taken, and ``saturated`` says whether that
    step crossed the ceiling. ``discarded_weight`` sums the squared
    singular values the steps truncated away, in the operator's
    norm-carrying convention (squared bond vectors sum to ||O||^2 = 2^n for
    an n-qubit unitary); ``qftmpo build`` reports it divided by 2^n. The
    final recanonicalization sweep is not included, and a sketched step
    does not count the weight outside its sketch, which its range test
    puts near (SKETCH_TAIL * s_max)^2 (see `_canonical.two_site_update`).
    """

    mpo: CanonicalMpo | None
    max_rank_history: list[int]
    saturated: bool
    gates_applied: int
    discarded_weight: float = 0.0


def _lift(run: tuple[GateSpec, ...], cache: dict) -> np.ndarray:
    """Pair operator of consecutive gates on one pair as a (16, 16) matrix
    over the fused legs, later gates to the left.

    Single gates and runs alike are cached in ``cache`` by their gates'
    (kind, angle, side) keys; a generic gate is lifted afresh each time.
    """
    key = None
    if all(g.kind != "generic" for g in run):
        key = tuple((g.kind, g.angle, g.side) for g in run)
        if key in cache:
            return cache[key]
    if len(run) == 1:
        op = pair_operator(run[0].dense_matrix(), run[0].side).reshape(16, 16)
    else:
        op = _lift(run[-1:], cache) @ _lift(run[:-1], cache)
    if key is not None:
        cache[key] = op
    return op


def compile_trace(circuit: CircuitSpec, policy: TruncationPolicy, *,
                  rank_ceiling: int | None = None) -> CompileTrace:
    """Absorb the circuit's gates in order into an identity chain.

    Gates honour their side flag. A one-site gate is applied exactly. A
    two-site gate, together with the two-site gates directly after it on
    the same pair, is absorbed as one step: their product acts on the pair
    and one SVD re-truncates the touched bond under ``policy``. Lifted pair
    operators are cached for the compile, next to its `SplitSketch`: a
    step whose two-site block is much wider than the bond's rank splits a
    randomized sketch of the block instead (`_canonical.two_site_update`),
    until the first sketch that saturates switches sketching off for the
    rest of the compile. A ``rank_ceiling`` aborts compilation after the
    first step that leaves a bond above it (the trace is then marked
    saturated). The finished operator gets a final full recanonicalization
    sweep.
    """
    n = circuit.n_qubits
    start = identity_mpo(n)
    sites = list(start.site_tensors)
    gammas = list(start.gamma_vectors)
    eff_policy = policy
    if rank_ceiling is not None:
        if rank_ceiling < 1:
            raise ValueError(f"rank_ceiling must be >= 1, got {rank_ceiling}")
        cap = rank_ceiling + 1 if policy.max_rank is None else min(policy.max_rank, rank_ceiling + 1)
        eff_policy = TruncationPolicy(policy.rel_cutoff, cap)

    gates = circuit.gates
    cache: dict = {}
    sketch = SplitSketch()
    history = []
    peak = 1
    weight = 0.0
    idx = 0
    while idx < len(gates):
        gate = gates[idx]
        stop = idx + 1
        if len(gate.sites) == 1:
            s = gate.sites[0]
            sites[s] = _single_site_apply(sites[s], gate.dense_matrix(), gate.side)
        else:
            a, b = gate.sites
            if b != a + 1:
                raise NonAdjacentGateError(
                    f"gate {idx} ({gate.kind}) acts on {gate.sites}; compilation "
                    f"needs adjacent ascending sites - route with explicit swaps"
                )
            while stop < len(gates) and gates[stop].sites == gate.sites:
                stop += 1
            weight += _absorb_pair(sites, gammas, a, _lift(gates[idx:stop], cache), eff_policy,
                                   sketch)
            peak = max(peak, len(gammas[a]))
        history.extend([peak] * (stop - idx))
        idx = stop
        if rank_ceiling is not None and peak > rank_ceiling:
            return CompileTrace(None, history, True, idx, weight)

    mpo = CanonicalMpo(tuple(sites), tuple(gammas))
    mpo = mpo.recanonicalize(policy)
    return CompileTrace(mpo, history, False, len(gates), weight)


def compile_to_mpo(circuit: CircuitSpec, policy: TruncationPolicy, *,
                   rank_ceiling: int | None = None) -> CanonicalMpo:
    """Compile a nearest-neighbour circuit into a canonical operator chain."""
    trace = compile_trace(circuit, policy, rank_ceiling=rank_ceiling)
    if trace.saturated:
        raise BondRankCeilingError(
            f"bond rank exceeded ceiling {rank_ceiling} at gate {trace.gates_applied - 1}",
            gate_index=trace.gates_applied - 1,
            bond_rank=trace.max_rank_history[-1],
        )
    return trace.mpo


# ---------------------------------------------------------------- #
# JSON round-trip and fingerprinting
# ---------------------------------------------------------------- #

CIRCUIT_FORMAT = "qftmpo-circuit/1"


def _gate_to_dict(g: GateSpec) -> dict:
    entry: dict = {"kind": g.kind, "sites": list(g.sites), "side": g.side}
    if g.angle is not None:
        entry["angle"] = g.angle
    if g.matrix is not None:
        entry["matrix"] = [
            [[float(v.real), float(v.imag)] for v in row] for row in g.matrix.data
        ]
    return entry


def _gate_from_dict(entry: dict) -> GateSpec:
    matrix = None
    if "matrix" in entry:
        matrix = DenseTensor(
            np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
        )
    return GateSpec(
        kind=entry["kind"],
        sites=tuple(entry["sites"]),
        angle=float(entry["angle"]) if "angle" in entry else None,
        matrix=matrix,
        side=entry.get("side", "output"),
    )


def circuit_to_json(circuit: CircuitSpec) -> str:
    doc = {
        "format": CIRCUIT_FORMAT,
        "n_qubits": circuit.n_qubits,
        "family": circuit.family,
        "params": circuit.params,
        "gates": [_gate_to_dict(g) for g in circuit.gates],
    }
    return json.dumps(doc, sort_keys=True)


def circuit_from_json(text: str) -> CircuitSpec:
    """Read a document written by `circuit_to_json`. Invalid JSON, another
    format, a missing key or a value of the wrong type or range fails with
    a one-line ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"circuit document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != CIRCUIT_FORMAT:
        raise ValueError(f"unsupported circuit format {doc.get('format')!r}")
    try:
        return CircuitSpec(
            n_qubits=int(doc["n_qubits"]),
            gates=tuple(_gate_from_dict(e) for e in doc["gates"]),
            family=doc.get("family", "custom"),
            params=doc.get("params", {}),
        )
    except (KeyError, TypeError, AttributeError, OverflowError, NumericalError) as exc:
        raise ValueError(f"damaged circuit document: {type(exc).__name__}: {exc}") from None


def circuit_fingerprint(circuit: CircuitSpec) -> str:
    """Stable content hash of the serialized circuit."""
    return hashlib.sha256(circuit_to_json(circuit).encode()).hexdigest()
