"""Circuit descriptions and their compilation into canonical operator chains.

The quantum Fourier transform circuits come in two layouts. The textbook
cascade (`qft_circuit`) uses long-range controlled phases and is only a
target for dense reference evolution. The nearest-neighbour layout
(`nearest_neighbor_qft_circuit`) interleaves the cascade with swaps so that
every interaction is between adjacent sites; the swaps are flagged
side="both" so compilation tracks the input ordering along with the output
ordering, and the compiled operator equals the Fourier matrix with
bit-reversed input ordering.

A circuit is held by stage (`CircuitSpec.stages`): the cascade builders
describe their n^2 gates as n prefixes of one O(n) run, and the gate tuple
is built only for the paths that walk it, compilation and the dense
oracle. The JSON document and its fingerprint are streamed stage by stage
from the run's encoded bytes, so at the paper's scale only the hash grows
with the gate count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from ._canonical import train_from_vidal, two_site_update
from .errors import NonAdjacentGateError
from .mpo import (
    CanonicalMpo,
    _carry_rank,
    _carry_sweep,
    _fourier_sweep,
    _node_count,
    _sweep,
    check_bandwidth,
    check_width,
    identity_mpo,
)
from .tensor import TruncationPolicy, check_unitary

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
    A generic gate's ``matrix`` may be given as any 2x2 or 4x4 array; once
    checked unitary it is kept as a tuple of row tuples of complex, so the
    gate is immutable, hashable and compared by value.
    """

    kind: str
    sites: tuple[int, ...]
    angle: float | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None
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
            mat = np.asarray(self.matrix)
            if mat.shape not in ((2, 2), (4, 4)):
                raise ValueError(f"generic gate matrix must be 2x2 or 4x4, got shape {mat.shape}")
            check_unitary(mat, len(mat))
            object.__setattr__(self, "matrix", tuple(tuple(map(complex, row)) for row in mat))
            expected = len(mat) // 2
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} gates take no matrix")
        if len(self.sites) != expected:
            raise ValueError(f"{self.kind} gate takes {expected} site(s), got {self.sites}")
        if len(self.sites) == 2 and self.sites[0] == self.sites[1]:
            raise ValueError(f"two-qubit gate needs distinct sites, got {self.sites}")
        if self.kind == "cphase":
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"cphase gates need a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} gates take no angle")

    def dense_matrix(self) -> np.ndarray:
        if self.kind == "h":
            return _HADAMARD.copy()
        if self.kind == "cphase":
            return np.diag([1.0, 1.0, 1.0, np.exp(1j * self.angle)]).astype(np.complex128)
        if self.kind == "swap":
            return _SWAP.copy()
        return np.array(self.matrix, dtype=np.complex128)


class CircuitSpec:
    """An ordered gate list on a fixed-width qubit register, held by stage.

    ``stages`` holds ``(run, m)`` pairs: the gates are the first m entries
    of each run in turn, a run being a tuple of gate fields (kind, sites,
    angle, matrix, side) in `GateSpec`'s argument order. Stages may share
    a run and runs may share field tuples, so the cascade builders describe
    n^2 gates in O(n). ``CircuitSpec(n, gates, family, params)`` is one
    stage of the given gates. ``gates`` builds the gate tuple on first use,
    one `GateSpec` per distinct field tuple; the given gates are kept.
    """

    def __init__(self, n_qubits: int, gates, family: str = "custom", params: dict | None = None):
        if n_qubits < 1:
            raise ValueError(f"need n_qubits >= 1, got {n_qubits}")
        gates = tuple(gates)
        for g in gates:
            for s in g.sites:
                if not 0 <= s < n_qubits:
                    raise ValueError(f"gate {g.kind} touches site {s}, outside 0..{n_qubits - 1}")
        fields = {id(g): (g.kind, g.sites, g.angle, g.matrix, g.side) for g in gates}
        run = tuple(fields[id(g)] for g in gates)
        self.n_qubits, self.family, self.params = n_qubits, family, dict(params or {})
        self.stages, self._gates = ((run, len(run)),), gates

    @classmethod
    def from_stages(cls, n_qubits: int, stages, family: str, params: dict) -> "CircuitSpec":
        """A circuit from its stages, whose sites the caller guarantees."""
        circuit = cls(n_qubits, (), family, params)
        circuit.stages, circuit._gates = tuple(stages), None
        return circuit

    @property
    def gates(self) -> tuple[GateSpec, ...]:
        if self._gates is None:
            gates, made = [], {}
            for run, m in self.stages:
                for f in run[:m]:
                    g = made.get(id(f))
                    if g is None:
                        g = made[id(f)] = GateSpec(*f)
                    gates.append(g)
            self._gates = tuple(gates)
        return self._gates


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
            # the draw range 2*scale must be finite as well as the scale
            if self.scale is None or not (0 <= self.scale and math.isfinite(2.0 * self.scale)):
                raise ValueError(
                    f"perturbed schemes need a finite non-negative scale, got {self.scale}")
            if self.seed is None:
                raise ValueError("perturbed schemes need a seed for reproducibility")
        elif self.per_gate:
            raise ValueError("per_gate applies to perturbed schemes only")

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
                return cls(kind)
            if kind == "power-law":
                return cls(kind, exponent=int(parts[1]))
            if kind == "base-n":
                return cls(kind, base=int(parts[1]))
            if kind in ("perturbed-exponent", "perturbed-base"):
                if parts[3:] not in ([], ["per-gate"]):
                    raise ValueError(f"unknown suffix {parts[3:]}")
                return cls(kind, scale=float(parts[1]), seed=int(parts[2]),
                           per_gate=parts[3:] == ["per-gate"])
        except IndexError as exc:
            raise ValueError(f"cannot parse rotation scheme {text!r}") from exc
        except ValueError as exc:
            raise ValueError(f"cannot parse rotation scheme {text!r}: {exc}") from exc
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
    """Resolves the angle for each cascade order, handling perturbations.

    Every scheme but a per-gate one has one angle per order, computed
    up front in increasing k (so perturbations are drawn in a fixed
    order); a per-gate scheme draws afresh at each call. An angle that
    overflows or is not finite is a ValueError naming the scheme and the
    order.
    """

    def __init__(self, scheme: RotationScheme, max_order: int):
        self._scheme = scheme
        self.per_gate = scheme.per_gate
        self._rng = None
        if scheme.kind.startswith("perturbed"):
            self._rng = np.random.default_rng(scheme.seed)
        self._per_order = {}
        if not scheme.per_gate:
            self._per_order = {k: self._draw(k) for k in range(2, max_order + 1)}

    def angle(self, k: int) -> float:
        if self.per_gate:
            return self._draw(k)
        return self._per_order[k]

    def _draw(self, k: int) -> float:
        s = self._scheme
        try:
            if s.kind == "standard":
                angle = 2.0 * math.pi / 2.0**k
            elif s.kind == "power-law":
                angle = 2.0 * math.pi / float(k) ** s.exponent
            elif s.kind == "base-n":
                angle = 2.0 * math.pi / float(s.base) ** k
            else:
                delta = self._rng.uniform(-s.scale, s.scale)
                if s.kind == "perturbed-exponent":
                    angle = 2.0 * math.pi / 2.0 ** (k + delta)
                else:
                    angle = 2.0 * math.pi / (2.0 + delta) ** k
        except (OverflowError, ZeroDivisionError):
            angle = math.inf
        if not math.isfinite(angle):
            raise ValueError(f"rotation scheme {s.label()}: the angle at order {k} "
                             f"is not a finite number")
        return angle


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
    source = _AngleSource(RotationScheme("standard"), n)
    gates = []
    for q in range(n):
        gates.append(GateSpec("h", (q,)))
        for t in range(q + 1, n):
            gates.append(GateSpec("cphase", (q, t), angle=source.angle(t - q + 1)))
    return CircuitSpec(n, tuple(gates), family="qft", params={"n": n})


def _nn_cascade(n: int, angle_source: _AngleSource,
                keep: Callable[[int], bool]) -> tuple:
    """Nearest-neighbour cascade, as the stages of `CircuitSpec`. Stage s
    puts the active qubit on wire 0, applies its Hadamard, then walks it
    rightward over d < n-1-s: a controlled phase of order d+2 with the
    wire-d neighbour (when kept), then a bookkeeping swap. The finished
    qubit is parked at wire n-1-s, so the register ends reversed.

    With one angle per order, stage s is a prefix of one run: the Hadamard,
    then for d = 0..n-2 the kept controlled phase and the side-"both" swap
    on (d, d+1). A per-gate scheme draws angles afresh in gate order, one
    run per stage, sharing the Hadamard and swap field tuples."""
    hadamard = ("h", (0,), None, None, "output")
    swaps = [("swap", (d, d + 1), None, None, "both") for d in range(n - 1)]

    def run(length: int):
        """The run of wire pairs d < length, and its length after each d."""
        gates, ends = [hadamard], [1]
        for d in range(length):
            if keep(d + 2):
                gates.append(("cphase", (d, d + 1), angle_source.angle(d + 2), None, "output"))
            gates.append(swaps[d])
            ends.append(len(gates))
        return tuple(gates), ends

    if angle_source.per_gate:
        return tuple((gates, len(gates)) for gates, _ in (run(n - 1 - s) for s in range(n)))
    whole, ends = run(n - 1)
    return tuple((whole, ends[n - 1 - s]) for s in range(n))


def nearest_neighbor_qft_circuit(n: int) -> CircuitSpec:
    """Fourier transform with adjacent interactions only; compiles to the
    Fourier matrix in bit-reversed input ordering."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    stages = _nn_cascade(n, _AngleSource(RotationScheme("standard"), n), lambda k: True)
    return CircuitSpec.from_stages(n, stages, "nn-qft", {"n": n})


def aqft_circuit(n: int, bandwidth: int) -> CircuitSpec:
    """Approximate transform: keep controlled phases of order k <= bandwidth.

    bandwidth is the highest retained rotation order; each qubit then
    conditions at most bandwidth - 1 controlled phases. bandwidth = n
    reproduces the full nearest-neighbour circuit, bandwidth = 1 keeps only
    the Hadamards (and the reordering swaps).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_bandwidth(n, bandwidth)
    stages = _nn_cascade(
        n, _AngleSource(RotationScheme("standard"), bandwidth), lambda k: k <= bandwidth
    )
    return CircuitSpec.from_stages(n, stages, "aqft", {"n": n, "bandwidth": bandwidth})


def generalized_circuit(n: int, scheme: RotationScheme) -> CircuitSpec:
    """Nearest-neighbour cascade with the controlled-phase angles replaced
    per ``scheme``. The standard scheme reproduces
    `nearest_neighbor_qft_circuit` exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    stages = _nn_cascade(n, _AngleSource(scheme, n), lambda k: True)
    return CircuitSpec.from_stages(
        n, stages, "generalized", {"n": n, "scheme": scheme.label()})


# ---------------------------------------------------------------- #
# compilation
# ---------------------------------------------------------------- #

@dataclass(eq=False)
class CompileTrace:
    """How a circuit became an operator.

    ``mpo`` is the operator, None once ``saturated``. ``construction`` is
    the record `qftmpo build` writes: {"kind": "gate-compile"} unless
    `cascade_operator` took a train. ``gates_applied`` counts the gates
    absorbed through the last step taken, none on a train.
    ``discarded_weight`` sums the squared singular values cut, in the
    norm-carrying convention (||O||^2 = 2^n for an n-qubit unitary; ``qftmpo
    build`` reports it over 2^n). On a train it is the cut of its one
    sweep, which bounds the squared Frobenius distance to the untruncated
    train; zero when its coupling saturates it unbuilt. On the gate
    compile it is the steps' cut (one exact SVD per step), without the
    final sweep.
    """

    mpo: CanonicalMpo | None
    saturated: bool
    gates_applied: int
    discarded_weight: float = 0.0
    construction: dict = field(default_factory=lambda: {"kind": "gate-compile"})


def _lift(run: tuple[GateSpec, ...], cache: dict) -> np.ndarray:
    """Operator of consecutive gates on one site or one pair as a matrix
    over the fused legs, later gates to the left: (4, 4) on one site,
    (16, 16) on a pair, the input of `_canonical.two_site_update`. A gate g
    lifts to kron(g, I), or kron(g, conj(g)) on side "both", over (outputs,
    inputs); a pair gate's legs are then regrouped into the fused order
    (y1 x1)(y2 x2) of its two sites.

    Single gates and runs alike are cached in ``cache`` by their gates'
    (kind, angle, matrix, side) keys, so equal generic gates share a lift.
    """
    key = tuple((g.kind, g.angle, g.matrix, g.side) for g in run)
    if key in cache:
        return cache[key]
    if len(run) > 1:
        op = _lift(run[-1:], cache) @ _lift(run[:-1], cache)
    else:
        g = run[0].dense_matrix()
        op = np.kron(g, g.conj() if run[0].side == "both" else np.eye(len(g)))
        if len(g) == 4:  # (y1 y2 x1 x2) -> (y1 x1 y2 x2), rows and columns
            op = op.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    cache[key] = op
    return op


def check_rank_ceiling(rank_ceiling: int | None) -> None:
    """Refuse a rank ceiling below 1; None is no ceiling."""
    if rank_ceiling is not None and rank_ceiling < 1:
        raise ValueError(f"rank_ceiling must be >= 1, got {rank_ceiling}")


def compile_trace(circuit: CircuitSpec, policy: TruncationPolicy, *,
                  rank_ceiling: int | None = None) -> CompileTrace:
    """Absorb the circuit's gates in order into the raw train of an
    identity chain, kept as fused (l, 4, r) sites from seed to sweep.

    Gates honour their side flag. A one-site gate is applied exactly, one
    (4, 4) matmul on its site. A two-site gate, together with the two-site
    gates directly after it on the same pair, is absorbed as one
    `_canonical.two_site_update` step: their product acts on the pair and
    one exact SVD, dividing by no Schmidt value, re-truncates the touched
    bond under ``policy``. Lifted operators are cached for the compile. A
    ``rank_ceiling`` aborts compilation after the first step that leaves a
    bond above it (the trace is then marked saturated). One final sweep of
    the train gives the canonical chain.
    """
    n = circuit.n_qubits
    start = identity_mpo(n)
    sites = train_from_vidal(start._fused_sites(), start.gamma_vectors)
    bonds = list(start.gamma_vectors)
    check_rank_ceiling(rank_ceiling)
    eff_policy = policy if rank_ceiling is None else TruncationPolicy(
        policy.rel_cutoff, min(policy.max_rank or rank_ceiling + 1, rank_ceiling + 1))

    gates = circuit.gates
    cache: dict = {}
    peak = 1
    weight = 0.0
    idx = 0
    while idx < len(gates):
        gate = gates[idx]
        stop = idx + 1
        if len(gate.sites) == 1:
            s = gate.sites[0]
            sites[s] = _lift(gates[idx:stop], cache) @ sites[s]
        else:
            a, b = gate.sites
            if b != a + 1:
                raise NonAdjacentGateError(
                    f"gate {idx} ({gate.kind}) acts on {gate.sites}; compilation "
                    f"needs adjacent ascending sites - route with explicit swaps"
                )
            while stop < len(gates) and gates[stop].sites == gate.sites:
                stop += 1
            lam_left = bonds[a - 1] if a > 0 else np.ones(1)
            sites[a], bonds[a], sites[b], dropped = two_site_update(
                lam_left, sites[a], sites[b], _lift(gates[idx:stop], cache), eff_policy)
            weight += dropped
            peak = max(peak, len(bonds[a]))
        idx = stop
        if rank_ceiling is not None and peak > rank_ceiling:
            return CompileTrace(None, True, idx, weight)

    mpo, _ = _sweep(sites, policy)
    return CompileTrace(mpo, False, len(gates), weight)


def compile_to_mpo(circuit: CircuitSpec, policy: TruncationPolicy) -> CanonicalMpo:
    """Compile a nearest-neighbour circuit into a canonical operator chain."""
    return compile_trace(circuit, policy).mpo


# the widest phase-carry train: at 2^10 the gate compile is the cheaper even
# unstopped, and the W x 4 x W junction passes 64 MB (README has the timings)
_WIDEST_TRAIN = 512


def cascade_operator(n: int, policy: TruncationPolicy, *, bandwidth: int | None = None,
                     scheme: RotationScheme | str | None = None,
                     rank_ceiling: int | None = None) -> tuple[CircuitSpec, CompileTrace]:
    """The nearest-neighbour cascade on ``n`` qubits as the user spells it,
    the transform, a ``bandwidth`` (`aqft_circuit`) or a ``scheme``
    (`generalized_circuit`; a string is parsed), and its operator from the
    cheapest exact construction. That depends on the cascade alone, never
    on its family label or ``rank_ceiling``: every spelling of a base-B
    rotation law (the transform, bandwidth n, standard, base-n:B) takes its
    bulk tensor (`fourier_mpo`); any other cascade with one angle per
    rotation order (a bandwidth b < n, power-law, a perturbed scheme but
    per-gate) its phase-carry train (`aqft_mpo`) when the train's widest
    bond W = 2^{min(b-1, n // 2)} (b = n for a scheme) is at most
    _WIDEST_TRAIN; anything else the gate compile (`compile_trace`).

    The ceiling decides saturation only: a gate compile is saturated once
    a step leaves a bond over it, a train when its final operator does,
    or, for a ceiling under both W and the policy's rank cap, before it
    is built, once a cut's coupling rank (`_carry_rank`) is over it: cuts
    c <= n // 2 are read narrowest first, from the first whose window
    min(b-1, c) could pass the ceiling (rank <= 2^window) up to the
    widest, c = min(b-1, n // 2). A saturated trace holds no operator.
    """
    check_width(n)
    if bandwidth is not None and scheme is not None:
        raise ValueError("bandwidth and scheme are mutually exclusive")
    check_rank_ceiling(rank_ceiling)
    # the cascade's rotation law, and the highest order it keeps
    if bandwidth is not None:
        circuit, law, width = aqft_circuit(n, bandwidth), RotationScheme("standard"), bandwidth
    elif scheme is not None:
        if isinstance(scheme, str):
            scheme = RotationScheme.parse(scheme)
        circuit, law, width = generalized_circuit(n, scheme), scheme, n
    else:
        circuit, law, width = nearest_neighbor_qft_circuit(n), RotationScheme("standard"), n
    widest = 2 ** min(width - 1, n // 2)
    if law.kind in ("standard", "base-n") and width == n:
        base = law.base or 2
        mpo, weight = _fourier_sweep(n, policy, base)
        # the transform's record predates the base and does not name it
        construction = {"kind": "bulk-tensor", **({"base": base} if base != 2 else {}),
                        "nodes": _node_count(base)}
    elif not law.per_gate and widest <= _WIDEST_TRAIN:
        source = _AngleSource(law, width)
        turns = [math.pi] + [source.angle(k) for k in range(2, width + 1)]
        construction = {"kind": "carry-train"}
        if (rank_ceiling is not None and rank_ceiling < min(widest, policy.max_rank or widest)
                and any(_carry_rank(n, turns, policy, cut) > rank_ceiling
                        for cut in range(rank_ceiling.bit_length(), min(width - 1, n // 2) + 1))):
            return circuit, CompileTrace(None, True, 0, 0.0, construction)
        mpo, weight = _carry_sweep(n, turns, policy)
    else:
        return circuit, compile_trace(circuit, policy, rank_ceiling=rank_ceiling)
    saturated = rank_ceiling is not None and mpo.max_bond_rank > rank_ceiling
    return circuit, CompileTrace(None if saturated else mpo, saturated, 0, weight, construction)


# ---------------------------------------------------------------- #
# JSON document and fingerprinting
# ---------------------------------------------------------------- #

CIRCUIT_FORMAT = "qftmpo-circuit/1"
# json.dumps(doc, sort_keys=True) builds an encoder per call; one is reused
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


def _gate_text(kind, sites, angle, matrix, side) -> str:
    """The gate's dict as `_SORTED_JSON` encodes it, written from its
    fields: the keys in sorted order (angle, kind, matrix, side, sites),
    with an angle or a matrix only when the gate has one."""
    text = f'"kind": "{kind}", '
    if angle is not None:  # json writes every float by float.__repr__
        angle = float.__repr__(angle) if isinstance(angle, float) else _SORTED_JSON.encode(angle)
        text = f'"angle": {angle}, {text}'
    if matrix is not None:
        entries = [[[v.real, v.imag] for v in row] for row in matrix]
        text += f'"matrix": {_SORTED_JSON.encode(entries)}, '
    return f'{{{text}"side": "{side}", "sites": {list(sites)}}}'


def _json_chunks(circuit: CircuitSpec):
    """The UTF-8 text of `circuit_to_json` in chunks, in order: the keys
    before the gate list, one chunk per stage and the keys after it. Each
    distinct field tuple is written once, each distinct run is encoded once
    as its gates' texts each led by ", ", and a stage is a memoryview prefix
    of its run's bytes."""
    # sorted keys: family, format | gates | n_qubits, params
    head = _SORTED_JSON.encode({"family": circuit.family, "format": CIRCUIT_FORMAT})
    yield f'{head[:-1]}, "gates": ['.encode()
    texts: dict = {}
    runs: dict = {}
    lead = 2  # the ", " before the first gate is dropped
    for run, m in circuit.stages:
        if id(run) not in runs:
            for f in run:
                if id(f) not in texts:
                    texts[id(f)] = f", {_gate_text(*f)}".encode()
            chunks = [texts[id(f)] for f in run]
            runs[id(run)] = (memoryview(b"".join(chunks)),
                             list(accumulate(map(len, chunks), initial=0)))
        view, ends = runs[id(run)]
        if m:
            yield view[lead:ends[m]]
            lead = 0
    tail = _SORTED_JSON.encode({"n_qubits": circuit.n_qubits, "params": circuit.params})
    yield f"], {tail[1:]}".encode()


def circuit_to_json(circuit: CircuitSpec) -> str:
    """The circuit as ``json.dumps(doc, sort_keys=True)`` of the document
    {format, n_qubits, family, params, gates: [one dict per gate]}, byte
    for byte, assembled stage by stage from `_json_chunks`."""
    return b"".join(_json_chunks(circuit)).decode()


def circuit_fingerprint(circuit: CircuitSpec) -> str:
    """SHA-256 of `circuit_to_json`, fed stage by stage from
    `_json_chunks`, so the whole document is never held: the hash is the
    only work that grows with the gate count."""
    digest = hashlib.sha256()
    for chunk in _json_chunks(circuit):
        digest.update(chunk)
    return digest.hexdigest()
