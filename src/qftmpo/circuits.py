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
from typing import Callable

import numpy as np

from ._canonical import train_from_vidal, two_site_update
from .errors import NonAdjacentGateError
from .mpo import CanonicalMpo, _sweep, check_bandwidth, identity_mpo
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


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """An ordered gate list on a fixed-width qubit register.

    A gate object may stand at several places of ``gates`` (the cascade
    builders share one object per distinct gate); its sites are checked
    once, not once per occurrence.
    """

    n_qubits: int
    gates: tuple[GateSpec, ...]
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need n_qubits >= 1, got {self.n_qubits}")
        gates = tuple(self.gates)
        for g in {id(g): g for g in gates}.values():
            for s in g.sites:
                if not 0 <= s < self.n_qubits:
                    raise ValueError(
                        f"gate {g.kind} touches site {s}, outside 0..{self.n_qubits - 1}"
                    )
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "params", dict(self.params))


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
        self._rng = None
        if scheme.kind.startswith("perturbed"):
            self._rng = np.random.default_rng(scheme.seed)
        self._per_order = {}
        if not scheme.per_gate:
            self._per_order = {k: self._draw(k) for k in range(2, max_order + 1)}

    def angle(self, k: int) -> float:
        if self._scheme.per_gate:
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
                keep: Callable[[int], bool]) -> tuple[GateSpec, ...]:
    """Nearest-neighbour cascade. Each stage puts the active qubit on wire
    0, applies its Hadamard, then walks it rightward: a controlled phase of
    order d+2 with the wire-d neighbour (when kept), followed by a
    bookkeeping swap. After stage s the finished qubit is parked at wire
    n-1-s, so the register ends in reversed order.

    The stages repeat the same gates, so each distinct (kind, sites, angle,
    side) is one `GateSpec` object, placed at every occurrence: the
    standard cascade holds 2n - 1 objects among its n^2 gates. Angles are
    still drawn once per occurrence, in order, so a per-gate perturbed
    scheme gets one object per draw."""
    memo: dict = {}

    def shared(kind, sites, angle=None, side="output"):
        key = (kind, sites, angle, side)
        gate = memo.get(key)
        if gate is None:
            gate = memo[key] = GateSpec(kind, sites, angle=angle, side=side)
        return gate

    gates = []
    for stage in range(n):
        gates.append(shared("h", (0,)))
        for d in range(n - 1 - stage):
            k, sites = d + 2, (d, d + 1)
            if keep(k):
                gates.append(shared("cphase", sites, angle_source.angle(k)))
            gates.append(shared("swap", sites, side="both"))
    return tuple(gates)


def nearest_neighbor_qft_circuit(n: int) -> CircuitSpec:
    """Fourier transform with adjacent interactions only; compiles to the
    Fourier matrix in bit-reversed input ordering."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gates = _nn_cascade(n, _AngleSource(RotationScheme("standard"), n), lambda k: True)
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
    check_bandwidth(n, bandwidth)
    gates = _nn_cascade(
        n, _AngleSource(RotationScheme("standard"), bandwidth), lambda k: k <= bandwidth
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
    ``gates_applied`` counts the gates through the last step taken, and
    ``saturated`` says whether that step crossed the ceiling.
    ``discarded_weight`` sums the squared singular values the steps
    truncated away, in the operator's norm-carrying convention (squared
    bond vectors sum to ||O||^2 = 2^n for an n-qubit unitary); ``qftmpo
    build`` reports it divided by 2^n. Each step splits its bond with one
    exact SVD, so the sum counts all of a step's cut weight. The final
    sweep is not included.
    """

    mpo: CanonicalMpo | None
    saturated: bool
    gates_applied: int
    discarded_weight: float = 0.0


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


def check_rank_ceiling(rank_ceiling: int) -> None:
    """Refuse a rank ceiling below 1."""
    if rank_ceiling < 1:
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
    eff_policy = policy
    if rank_ceiling is not None:
        check_rank_ceiling(rank_ceiling)
        cap = rank_ceiling + 1 if policy.max_rank is None else min(policy.max_rank, rank_ceiling + 1)
        eff_policy = TruncationPolicy(policy.rel_cutoff, cap)

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


# ---------------------------------------------------------------- #
# JSON document and fingerprinting
# ---------------------------------------------------------------- #

CIRCUIT_FORMAT = "qftmpo-circuit/1"
# json.dumps(doc, sort_keys=True) builds an encoder per call; one is reused
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


def _gate_to_dict(g: GateSpec) -> dict:
    entry: dict = {"kind": g.kind, "sites": list(g.sites), "side": g.side}
    if g.angle is not None:
        entry["angle"] = g.angle
    if g.matrix is not None:
        entry["matrix"] = [[[v.real, v.imag] for v in row] for row in g.matrix]
    return entry


def _json_pieces(circuit: CircuitSpec):
    """The text of `circuit_to_json` in pieces, in order: the keys before
    the gate list, the gates in runs of n_qubits (about one cascade stage)
    and the keys after it. Each distinct gate object is encoded once and
    its text repeated at every occurrence."""
    distinct = {id(g): g for g in circuit.gates}
    encoded = {key: _SORTED_JSON.encode(_gate_to_dict(g)) for key, g in distinct.items()}
    # sorted keys: family, format | gates | n_qubits, params
    head = _SORTED_JSON.encode({"family": circuit.family, "format": CIRCUIT_FORMAT})
    yield f'{head[:-1]}, "gates": ['
    gates, step = circuit.gates, circuit.n_qubits
    for start in range(0, len(gates), step):
        run = ", ".join([encoded[id(g)] for g in gates[start:start + step]])
        yield f", {run}" if start else run
    tail = _SORTED_JSON.encode({"n_qubits": circuit.n_qubits, "params": circuit.params})
    yield f"], {tail[1:]}"


def circuit_to_json(circuit: CircuitSpec) -> str:
    """The circuit as ``json.dumps(doc, sort_keys=True)`` of the document
    {format, n_qubits, family, params, gates: [one dict per gate]}, byte
    for byte."""
    return "".join(_json_pieces(circuit))


def circuit_fingerprint(circuit: CircuitSpec) -> str:
    """Stable content hash of the serialized circuit, fed to the hash piece
    by piece, so the whole document is never held."""
    digest = hashlib.sha256()
    for piece in _json_pieces(circuit):
        digest.update(piece.encode())
    return digest.hexdigest()
