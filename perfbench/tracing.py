"""In-memory span tracer around the package's layer entry points.

Each wrapper is installed by rebinding a name where its caller looks it
up: a module attribute (in every qftmpo module that imported it), a class
attribute, or the numpy/scipy linalg namespace for the kernel boundary.
`Tracer.uninstall` restores the originals. The package source is never
edited, and a name that no longer exists is skipped, so its metrics read 0.

A span's self time is its duration minus the durations of its child
spans; the self times of one operation therefore add up to the duration
of its root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

STUDY_FUNCTIONS = {
    "spectrum_study": "spectrum",
    "spectrum_convergence_study": "converge_spectrum",
    "tensor_convergence_study": "converge_tensor",
    "hs_error_study": "hs_error",
    "periodic_study": "periodic",
    "aqft_rank_study": "aqft_scan",
    "rotation_scheme_study": "rotation_scan",
    "ordering_study": "ordering_scan",
}
CIRCUIT_FAMILIES = ("qft_circuit", "nearest_neighbor_qft_circuit", "aqft_circuit",
                    "generalized_circuit")
LAYERS = ("bench", "cli", "analysis", "circuits", "mpo", "mps", "canonical", "tensor", "oracle")


# ---------------------------------------------------------------- #
# kernel work computed from shapes
# ---------------------------------------------------------------- #
# Real-flop equivalents; one complex multiply-add counts as four real ones.

def svd_flops(m: int, n: int) -> int:
    """Thin SVD with both factors: the cheaper of Golub-Reinsch
    (14 l k^2 + 8 k^3) and R-SVD (6 l k^2 + 20 k^3), l >= k."""
    big, small = max(m, n), min(m, n)
    return 4 * min(14 * big * small**2 + 8 * small**3, 6 * big * small**2 + 20 * small**3)


def qr_flops(m: int, n: int) -> int:
    """Householder QR (geqrf) plus forming the reduced Q (ungqr)."""
    k = min(m, n)
    factor = 2 * m * n * k - (m + n) * k * k + 2 * k**3 // 3
    form_q = 2 * m * k * k - 2 * k**3 // 3
    return 4 * (2 * factor + form_q)


def _matrix_shape(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    return (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.startswith("mpo.bytes_"):
        return "bytes"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_flop_computed"):
        return "flop"
    if metric == "canonical.discarded_weight":
        return "weight"
    return "count"


class Tracer:
    """Spans and counters, kept in memory while tracing is active."""

    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._saved: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self) -> float:
        stop = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = stop - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent[0] if parent else None, name, start, stop))
        return duration

    def inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack)

    def inside_layer(self, layer: str) -> bool:
        return any(entry[1].startswith(layer + ".") for entry in self._stack)

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, stop in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": stop}) + "\n")

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.end()
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` and every qftmpo-module name bound to it."""
        original = module.__dict__.get(attr)
        if original is None:
            return
        wrapped = self._wrap(original, name, after)
        owners = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "qftmpo" or key.startswith("qftmpo."))]
        if module not in owners:
            owners.append(module)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, after)))
        else:
            self._set(cls, attr, self._wrap(raw, name, after))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def install(self) -> None:
        """Wrap the entry points of every layer; `uninstall` undoes it."""
        import qftmpo._canonical as canonical
        import qftmpo.analysis as analysis
        import qftmpo.circuits as circuits
        import qftmpo.cli as cli
        import qftmpo.mpo as mpo
        import qftmpo.mps as mps
        import qftmpo.oracle as oracle
        import qftmpo.tensor as tensor

        self.uninstall()
        count = self.counters
        peak = self.maxima

        self.patch_function(cli, "main", "cli.main")

        for attr, label in STUDY_FUNCTIONS.items():
            self.patch_function(analysis, attr, f"analysis.{label}")
        self.patch_function(analysis, "_qft_mpo", "analysis.operator_request")

        for attr in CIRCUIT_FAMILIES:
            self.patch_function(circuits, attr, "circuits.construct")
        self.patch_function(circuits, "circuit_fingerprint", "circuits.fingerprint")

        def after_compile(args, kwargs, result, duration):
            gates = getattr(result, "gates_applied", 0)
            count["circuits.gates_absorbed"] += gates
            if getattr(result, "saturated", False):
                count["circuits.saturated_gates"] += gates
            if self.inside("analysis.operator_request"):
                count["analysis.compiles"] += 1

        self.patch_function(circuits, "compile_trace", "circuits.compile", after_compile)

        self.patch_function(mpo, "pair_operator", "mpo.pair_operator")
        self.patch_function(mpo, "_absorb_pair", "mpo.absorb_pair")
        self.patch_method(mpo.CanonicalMpo, "recanonicalize", "mpo.recanonicalize")

        def after_apply(args, kwargs, result, duration):
            ranks = getattr(result, "bond_ranks", ())
            peak["mps.output_rank_max"] = max(peak["mps.output_rank_max"], max(ranks, default=1))

        self.patch_method(mpo.CanonicalMpo, "apply_to_mps", "mpo.apply", after_apply)
        self.patch_function(mpo, "hs_inner", "mpo.hs_inner")
        self.patch_method(mpo.CanonicalMpo, "to_dense", "mpo.dense")
        self.patch_function(mpo, "from_dense_operator", "mpo.dense")

        def after_save_mpo(args, kwargs, result, duration):
            path = args[1] if len(args) > 1 else kwargs.get("path")
            count["mpo.bytes_written"] += _path_size(path) + _path_size(f"{path}.json")

        def after_load_mpo(args, kwargs, result, duration):
            count["mpo.bytes_read"] += _path_size(args[0] if args else kwargs.get("path"))

        self.patch_function(mpo, "save_mpo", "mpo.save", after_save_mpo)
        self.patch_function(mpo, "load_mpo", "mpo.load", after_load_mpo)

        for attr in ("from_basis_state", "from_periodic_state", "reverse_qubits"):
            self.patch_method(mps.CanonicalMps, attr, "mps.state_build")
        self.patch_method(mps.CanonicalMps, "amplitude", "mps.amplitude")
        self.patch_function(mps, "save_mps", "mps.save")

        def after_discard(position):
            def hook(args, kwargs, result, duration):
                if isinstance(result, tuple) and len(result) > position:
                    count["canonical.discarded_weight"] += float(result[position])
            return hook

        self.patch_function(canonical, "two_site_update", "canonical.two_site_update",
                            after_discard(3))
        self.patch_function(canonical, "canonicalize_train", "canonical.canonicalize_train",
                            after_discard(2))

        def after_kernel(kind, flops, fallback=False):
            def hook(args, kwargs, result, duration):
                m, n = _matrix_shape(args, kwargs)
                count[f"{kind}.flop_computed"] += flops(m, n)
                peak[f"{kind}.max_dim"] = max(peak[f"{kind}.max_dim"], m, n)
                if fallback:
                    count["tensor.svd_fallbacks"] += 1
            return hook

        self.patch_function(np.linalg, "qr", "canonical.qr", after_kernel("canonical.qr", qr_flops))
        self.patch_function(np.linalg, "svd", "tensor.svd", after_kernel("tensor.svd", svd_flops))
        self.patch_function(scipy.linalg, "svd", "tensor.svd",
                            after_kernel("tensor.svd", svd_flops, fallback=True))
        self.patch_method(tensor.DenseTensor, "__post_init__", "tensor.dense_tensor")

        def after_oracle(args, kwargs, result, duration):
            if self.inside_layer("analysis"):
                count["oracle.calls"] += 1
                count["oracle.s"] += duration

        for attr, fn in list(vars(oracle).items()):
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == oracle.__name__):
                self.patch_function(oracle, attr, "oracle.call", after_oracle)

    # ---------------------------------------------------------------- metrics

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer numbers per traced pass (maxima and ratios as is)."""
        p = max(passes, 1)
        inc, own, calls, count, peak = (self.inclusive, self.self_time, self.calls,
                                        self.counters, self.maxima)
        out = {"cli.self_s": own["cli.main"] / p}
        for label in STUDY_FUNCTIONS.values():
            out[f"analysis.{label}_s"] = inc[f"analysis.{label}"] / p
        out["analysis.operator_requests"] = calls["analysis.operator_request"] / p
        out["analysis.compiles"] = count["analysis.compiles"] / p
        out["circuits.construct_s"] = inc["circuits.construct"] / p
        out["circuits.fingerprint_calls"] = calls["circuits.fingerprint"] / p
        out["circuits.fingerprint_s"] = inc["circuits.fingerprint"] / p
        out["circuits.compile_calls"] = calls["circuits.compile"] / p
        out["circuits.gates_absorbed"] = count["circuits.gates_absorbed"] / p
        out["circuits.compile_self_s"] = own["circuits.compile"] / p
        gates = count["circuits.gates_absorbed"]
        out["circuits.saturated_gate_frac"] = (count["circuits.saturated_gates"] / gates
                                               if gates else 0.0)
        out["mpo.pair_operator_calls"] = calls["mpo.pair_operator"] / p
        out["mpo.pair_operator_s"] = inc["mpo.pair_operator"] / p
        out["mpo.absorb_pair_self_s"] = own["mpo.absorb_pair"] / p
        out["mpo.recanonicalize_calls"] = calls["mpo.recanonicalize"] / p
        out["mpo.recanonicalize_s"] = inc["mpo.recanonicalize"] / p
        out["mpo.apply_self_s"] = own["mpo.apply"] / p
        out["mpo.hs_inner_s"] = inc["mpo.hs_inner"] / p
        out["mpo.save_s"] = inc["mpo.save"] / p
        out["mpo.load_s"] = inc["mpo.load"] / p
        out["mpo.bytes_read"] = count["mpo.bytes_read"] / p
        out["mpo.bytes_written"] = count["mpo.bytes_written"] / p
        out["mps.state_build_s"] = inc["mps.state_build"] / p
        out["mps.amplitude_calls"] = calls["mps.amplitude"] / p
        out["mps.amplitude_s"] = inc["mps.amplitude"] / p
        out["mps.output_rank_max"] = peak["mps.output_rank_max"]
        out["mps.save_s"] = inc["mps.save"] / p
        out["canonical.two_site_update_calls"] = calls["canonical.two_site_update"] / p
        out["canonical.two_site_update_self_s"] = own["canonical.two_site_update"] / p
        out["canonical.canonicalize_train_calls"] = calls["canonical.canonicalize_train"] / p
        out["canonical.canonicalize_train_self_s"] = own["canonical.canonicalize_train"] / p
        out["canonical.qr_calls"] = calls["canonical.qr"] / p
        out["canonical.qr_s"] = inc["canonical.qr"] / p
        out["canonical.qr_flop_computed"] = count["canonical.qr.flop_computed"] / p
        out["canonical.qr_max_dim"] = peak["canonical.qr.max_dim"]
        out["canonical.discarded_weight"] = count["canonical.discarded_weight"] / p
        out["tensor.svd_calls"] = calls["tensor.svd"] / p
        out["tensor.svd_s"] = inc["tensor.svd"] / p
        out["tensor.svd_flop_computed"] = count["tensor.svd.flop_computed"] / p
        out["tensor.svd_max_dim"] = peak["tensor.svd.max_dim"]
        out["tensor.svd_fallbacks"] = count["tensor.svd_fallbacks"] / p
        out["tensor.dense_tensor_calls"] = calls["tensor.dense_tensor"] / p
        out["tensor.dense_tensor_s"] = inc["tensor.dense_tensor"] / p
        out["oracle.calls"] = count["oracle.calls"] / p
        out["oracle.s"] = count["oracle.s"] / p
        layer_self = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".", 1)[0]] += seconds
        for layer in LAYERS:
            out[f"layer.{layer}_self_s"] = layer_self[layer] / p
        out["trace.self_sum_s"] = sum(layer_self.values()) / p
        return out
