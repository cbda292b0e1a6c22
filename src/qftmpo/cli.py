"""Command-line front end for compiling transforms and running studies.

Exit codes: 0 success, 1 usage error, 2 numerical failure (an assertion
about the data, not about the invocation). Progress notes go to stderr;
results go to --out files or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis import (
    StudyResult,
    aqft_rank_study,
    hs_error_study,
    ordering_study,
    periodic_study,
    rotation_scheme_study,
    scaling_benchmark,
    spectrum_convergence_study,
    spectrum_study,
    tensor_convergence_study,
)
from .circuits import (
    RotationScheme,
    aqft_circuit,
    circuit_fingerprint,
    compile_trace,
    generalized_circuit,
    nearest_neighbor_qft_circuit,
)
from .errors import QftmpoError
from .mpo import load_mpo, save_mpo
from .mps import CanonicalMps, load_mps, save_mps
from .tensor import TruncationPolicy


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(";", ",").split(",") if part.strip()]


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _read_config(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qftmpo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file supplying defaults; flags win")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="csv")
        p.add_argument("--cutoff", type=float, default=1e-14,
                       help="relative singular-value cutoff")
        return p

    p = add("build", "compile a transform and save the operator chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bandwidth", type=int, help="approximate transform: highest kept rotation order")
    p.add_argument("--scheme", help="rotation scheme, e.g. power-law:2")
    p.add_argument("--max-rank", type=int)

    p = add("apply", "apply a saved operator chain to a periodic or basis state")
    p.add_argument("--mpo", required=True, help="saved operator file")
    p.add_argument("--r", type=int, help="period of the input state")
    p.add_argument("--k0", type=int, default=0, help="offset of the periodic input")
    p.add_argument("--bits", help="basis-state bits, e.g. 0110")
    p.add_argument("--save-state", help="write the transformed state here")

    p = add("spectrum", "middle-bond probability spectrum of compiled transforms")
    p.add_argument("--n-list", type=_int_list, required=True)

    p = add("converge-spectrum", "spectrum distance to a larger reference size")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--n-ref", type=int, required=True)

    p = add("converge-tensor", "central-tensor distance to a larger reference size")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--n-ref", type=int, required=True)

    p = add("hs-error", "trace-inner-product error of rank-truncated transforms")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--rank-list", type=_int_list, required=True)

    p = add("periodic", "peak probabilities of transformed periodic states")
    p.add_argument("--L", type=_int_list, required=True, help="qubit counts")
    p.add_argument("--r", type=_int_list, required=True, help="periods")
    p.add_argument("--k0", type=int, default=0)
    p.add_argument("--rank-list", type=_int_list, required=True)

    p = add("aqft-scan", "bond-rank growth of approximate transforms")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--bandwidth-list", type=_int_list, required=True)
    p.add_argument("--rank-ceiling", type=int, default=64)
    p.add_argument("--no-check", action="store_true",
                   help="collect numbers without asserting growth trends")

    p = add("rotation-scan", "bond ranks under modified rotation rules")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--scheme", action="append", required=True,
                   help="repeatable; e.g. standard, base-n:3, perturbed-exponent:0.1:7")
    p.add_argument("--rank-ceiling", type=int, default=64)

    p = add("ordering-scan", "exhaustive qubit-ordering Schmidt-rank scan")
    p.add_argument("--n", type=int, required=True)

    p = add("bench-scaling", "wall-clock scaling of transform application")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--max-rank", type=int, default=16)
    p.add_argument("--repeats", type=int, default=3)

    return parser


def _extract_config_path(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _inject_config_defaults(parser, argv) -> None:
    """Turn config-file values into parser defaults before parsing.

    Must run before parse_args so config can satisfy required flags; values
    given on the command line still win. Keys not recognized by the chosen
    subcommand are ignored (configs may be shared across subcommands).
    """
    path = _extract_config_path(argv)
    if path is None:
        return
    values = _read_config(path)
    command = next((a for a in argv if not a.startswith("-")), None)
    subparsers = parser._subparsers._group_actions[0].choices
    if command not in subparsers:
        return
    for action in subparsers[command]._actions:
        if action.dest not in values:
            continue
        raw = values[action.dest]
        if action.type is not None:
            action.default = action.type(raw)
        elif isinstance(action, argparse._StoreTrueAction):
            action.default = raw.lower() in ("1", "true", "yes")
        elif isinstance(action, argparse._AppendAction):
            action.default = [part.strip() for part in raw.split(",")]
        else:
            action.default = raw
        action.required = False


def _emit(result: StudyResult, args) -> None:
    fmt = args.format
    if args.out is None:
        text = result.to_json() if fmt == "json" else result.to_csv()
        sys.stdout.write(text)
        return
    base = args.out
    if fmt in ("csv", "both"):
        path = base if base.endswith(".csv") or fmt == "csv" else base + ".csv"
        result.to_csv(path)
        _progress(f"wrote {path}")
    if fmt in ("json", "both"):
        path = base if base.endswith(".json") or fmt == "json" else base + ".json"
        result.to_json(path)
        _progress(f"wrote {path}")


def _cmd_build(args) -> int:
    policy = TruncationPolicy(args.cutoff, args.max_rank)
    if args.bandwidth is not None and args.scheme:
        raise ValueError("--bandwidth and --scheme are mutually exclusive")
    if args.bandwidth is not None:
        circuit = aqft_circuit(args.n, args.bandwidth)
    elif args.scheme:
        circuit = generalized_circuit(args.n, RotationScheme.parse(args.scheme))
    else:
        circuit = nearest_neighbor_qft_circuit(args.n)
    _progress(f"compiling {circuit.family} on {args.n} qubits ({len(circuit.gates)} gates)")
    trace = compile_trace(circuit, policy)
    mpo = trace.mpo
    out = args.out or f"{circuit.family}-{args.n}.mpo"
    fingerprint = circuit_fingerprint(circuit)
    save_mpo(mpo, out, policy=policy, circuit_fingerprint=fingerprint)
    _progress(f"wrote {out} (max bond rank {mpo.max_bond_rank})")
    print(json.dumps({
        "file": out,
        "n_qubits": mpo.n_qubits,
        "max_bond_rank": mpo.max_bond_rank,
        "bond_ranks": list(mpo.bond_ranks),
        "fingerprint": fingerprint,
        "discarded_weight": trace.discarded_weight,
    }))
    return 0


def _cmd_apply(args) -> int:
    mpo = load_mpo(args.mpo)
    n = mpo.n_qubits
    policy = TruncationPolicy(args.cutoff)
    if (args.r is None) == (args.bits is None):
        raise ValueError("give exactly one of --r (periodic input) or --bits")
    if args.bits is not None:
        bits = tuple(int(b) for b in args.bits)
        state = CanonicalMps.from_basis_state(n, bits)
    else:
        state = CanonicalMps.from_periodic_state(n, args.r, args.k0)
    # operator convention: input register enters bit-reversed
    out = mpo.apply_to_mps(state.reverse_qubits(), policy)
    report = {
        "n_qubits": n,
        "input": {"period": args.r, "offset": args.k0} if args.r else {"bits": args.bits},
        "output_max_rank": max(out.bond_ranks) if out.bond_ranks else 1,
    }
    if args.r is not None:
        from .oracle import periodic_peak_locations
        peaks = {}
        for m in periodic_peak_locations(n, args.r):
            key = format(int(m), f"0{n}b")
            peaks[str(int(m))] = abs(out.amplitude(tuple(int(b) for b in key))) ** 2
        report["peak_probabilities"] = peaks
    if args.save_state:
        save_mps(out, args.save_state, policy=policy)
        report["state_file"] = args.save_state
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        _inject_config_defaults(parser, argv)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"qftmpo: config error: {exc}\n")
        return 1
    args = parser.parse_args(argv)

    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "spectrum":
            result = spectrum_study(args.n_list, TruncationPolicy(args.cutoff))
        elif args.command == "converge-spectrum":
            result = spectrum_convergence_study(
                args.n_list, args.n_ref, TruncationPolicy(args.cutoff))
        elif args.command == "converge-tensor":
            result = tensor_convergence_study(
                args.n_list, args.n_ref, TruncationPolicy(args.cutoff))
        elif args.command == "hs-error":
            result = hs_error_study(
                args.n_list, args.rank_list, policy=TruncationPolicy(args.cutoff))
        elif args.command == "periodic":
            result = periodic_study(
                args.L, args.r, args.rank_list, offset=args.k0,
                compile_policy=TruncationPolicy(args.cutoff))
        elif args.command == "aqft-scan":
            result = aqft_rank_study(
                args.n_list, args.bandwidth_list,
                TruncationPolicy(max(args.cutoff, 1e-10)),
                rank_ceiling=args.rank_ceiling, check=not args.no_check)
        elif args.command == "rotation-scan":
            schemes = []
            for entry in args.scheme:
                schemes.extend(RotationScheme.parse(part) for part in entry.split(","))
            result = rotation_scheme_study(
                args.n_list, schemes, TruncationPolicy(max(args.cutoff, 1e-10)),
                rank_ceiling=args.rank_ceiling)
        elif args.command == "ordering-scan":
            result = ordering_study(args.n)
        elif args.command == "bench-scaling":
            result = scaling_benchmark(
                args.n_list, max_rank=args.max_rank,
                rel_cutoff=args.cutoff, repeats=args.repeats)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
        _emit(result, args)
        return 0
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"qftmpo: error: {exc}\n")
        return 1
    except QftmpoError as exc:
        sys.stderr.write(f"qftmpo: numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
