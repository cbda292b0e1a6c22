"""Command-line front end for compiling transforms and running studies.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure or
resource-cap violation (a dense object past its qubit cap, which
QFTMPO_DENSE_LIMIT overrides). Progress notes go to stderr; results go to
--out files or stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
# perfbench/selftest.py reads nearest_neighbor_qft_circuit from this module
from .circuits import cascade_operator, circuit_fingerprint, nearest_neighbor_qft_circuit
from .errors import QftmpoError, ResourceLimitError
from .mpo import load_mpo, save_mpo
from .mps import CanonicalMps, parse_bits, save_mps
from .oracle import periodic_peak_locations
from .tensor import TruncationPolicy


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _int_list(text: str) -> list[int]:
    # argparse prints an ArgumentTypeError's own message, not the function name
    try:
        values = [int(part) for part in text.replace(";", ",").split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


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


def _arg(*flags, **kwargs):
    """One argument spec: the positional and keyword arguments of add_argument."""
    return flags, kwargs


# every subcommand takes --config; the other specs are listed by the
# subcommands that read them
_CONFIG = _arg("--config", help="key=value file supplying defaults; flags win")
_OUT = _arg("--out", help="output file (default: stdout)")
_FORMAT = _arg("--format", choices=("csv", "json", "both"), default="csv")
_CUTOFF = _arg("--cutoff", type=float, default=1e-14, help="relative singular-value cutoff")
_EMITTED = (_OUT, _FORMAT)  # what `_emit` reads
_N_LIST = _arg("--n-list", type=_int_list, required=True)
_N_REF = _arg("--n-ref", type=int, required=True,
              help="reference size, larger than every --n-list size")
_RANK_LIST = _arg("--rank-list", type=_int_list, required=True)
_RANK_CEILING = _arg("--rank-ceiling", type=int, default=64)


# Runners: a study runner returns its result for `_emit`; build and apply
# print their own report and return None.

def _cmd_build(args) -> None:
    policy = TruncationPolicy(args.cutoff, args.max_rank)
    circuit, trace = cascade_operator(args.n, policy, bandwidth=args.bandwidth,
                                      scheme=args.scheme)
    mpo, construction = trace.mpo, trace.construction
    out = args.out or f"{circuit.family}-{args.n}.mpo"
    fingerprint = circuit_fingerprint(circuit)
    save_mpo(mpo, out, policy=policy, circuit_fingerprint=fingerprint,
             construction=construction)
    how = construction["kind"].replace("-", " ")
    _progress(f"wrote {out}: {circuit.family} on {args.n} qubits by {how}, "
              f"max bond rank {mpo.max_bond_rank}")
    print(json.dumps({
        "file": out,
        "n_qubits": mpo.n_qubits,
        "max_bond_rank": mpo.max_bond_rank,
        "bond_ranks": list(mpo.bond_ranks),
        "fingerprint": fingerprint,
        "construction": construction,
        "discarded_weight": math.ldexp(trace.discarded_weight, -mpo.n_qubits),  # over 2^n
    }))


def _cmd_apply(args) -> None:
    if (args.r is None) == (args.bits is None):
        raise ValueError("give exactly one of --r (periodic input) or --bits")
    mpo = load_mpo(args.mpo)
    n = mpo.n_qubits
    policy = TruncationPolicy(args.cutoff)
    # operator convention: input register enters bit-reversed
    if args.bits is not None:
        state = CanonicalMps.from_basis_state(n, parse_bits(args.bits, n)[::-1])
    else:
        state = CanonicalMps.from_periodic_state(n, args.r, args.k0).reverse_qubits()
    out = mpo.apply_to_mps(state, policy)
    report = {
        "n_qubits": n,
        "input": {"period": args.r, "offset": args.k0} if args.r else {"bits": args.bits},
        "output_max_rank": max(out.bond_ranks) if out.bond_ranks else 1,
    }
    if args.r is not None:
        peaks = {}
        for m in periodic_peak_locations(n, args.r):
            peaks[str(m)] = abs(out.amplitude(format(m, f"0{n}b"))) ** 2
        report["peak_probabilities"] = peaks
    if args.save_state:
        save_mps(out, args.save_state, policy=policy)
        report["state_file"] = args.save_state
    print(json.dumps(report))


# name -> (help line, argument specs, runner)
COMMANDS = {
    "build": ("compile a transform and save the operator chain", (
        _OUT, _CUTOFF,
        _arg("--n", type=int, required=True),
        _arg("--bandwidth", type=int, help="approximate transform: highest kept rotation order"),
        _arg("--scheme", help="rotation scheme, e.g. power-law:2"),
        _arg("--max-rank", type=int),
    ), _cmd_build),
    "apply": ("apply a saved operator chain to a periodic or basis state", (
        _CUTOFF,
        _arg("--mpo", required=True, help="saved operator file"),
        _arg("--r", type=int, help="period of the input state"),
        _arg("--k0", type=int, default=0, help="offset of the periodic input"),
        _arg("--bits", help="basis-state bits, e.g. 0110"),
        _arg("--save-state", help="write the transformed state here"),
    ), _cmd_apply),
    "spectrum": ("middle-bond probability spectrum of compiled transforms", (
        *_EMITTED, _CUTOFF, _N_LIST,
    ), lambda a: spectrum_study(a.n_list, TruncationPolicy(a.cutoff))),
    "converge-spectrum": (
        "spectrum distance to a larger reference size", (*_EMITTED, _CUTOFF, _N_LIST, _N_REF),
        lambda a: spectrum_convergence_study(a.n_list, a.n_ref, TruncationPolicy(a.cutoff))),
    "converge-tensor": (
        "central-tensor distance to a larger reference size",
        (*_EMITTED, _CUTOFF, _N_LIST, _N_REF),
        lambda a: tensor_convergence_study(a.n_list, a.n_ref, TruncationPolicy(a.cutoff))),
    "hs-error": (
        "trace-inner-product error of rank-truncated transforms",
        (*_EMITTED, _CUTOFF, _N_LIST, _RANK_LIST),
        lambda a: hs_error_study(a.n_list, a.rank_list, policy=TruncationPolicy(a.cutoff))),
    "periodic": ("peak probabilities of transformed periodic states", (
        *_EMITTED, _CUTOFF,
        _arg("--L", type=_int_list, required=True, help="qubit counts"),
        _arg("--r", type=_int_list, required=True, help="periods"),
        _arg("--k0", type=int, default=0),
        _RANK_LIST,
    ), lambda a: periodic_study(a.L, a.r, a.rank_list, offset=a.k0,
                                compile_policy=TruncationPolicy(a.cutoff))),
    "aqft-scan": ("bond-rank growth of approximate transforms", (
        *_EMITTED, _CUTOFF, _N_LIST,
        _arg("--bandwidth-list", type=_int_list, required=True),
        _RANK_CEILING,
        _arg("--no-check", action="store_true",
             help="collect numbers without asserting growth trends"),
    ), lambda a: aqft_rank_study(a.n_list, a.bandwidth_list,
                                 TruncationPolicy(max(a.cutoff, 1e-10)),
                                 rank_ceiling=a.rank_ceiling, check=not a.no_check)),
    "rotation-scan": ("bond ranks under modified rotation rules", (
        *_EMITTED, _CUTOFF, _N_LIST,
        _arg("--scheme", action="append", required=True,
             help="repeatable; e.g. standard, base-n:3, perturbed-exponent:0.1:7"),
        _RANK_CEILING,
    ), lambda a: rotation_scheme_study(
        a.n_list, [part for entry in a.scheme for part in entry.split(",")],
        TruncationPolicy(max(a.cutoff, 1e-10)), rank_ceiling=a.rank_ceiling)),
    "ordering-scan": ("exhaustive qubit-ordering Schmidt-rank scan", (
        *_EMITTED, _arg("--n", type=int, required=True),
    ), lambda a: ordering_study(a.n)),
    "bench-scaling": ("wall-clock scaling of transform application", (
        *_EMITTED, _CUTOFF, _N_LIST,
        _arg("--max-rank", type=int, default=16),
        _arg("--repeats", type=int, default=3, help="timed applies per size (>= 1)"),
    ), lambda a: scaling_benchmark(a.n_list, max_rank=a.max_rank, rel_cutoff=a.cutoff,
                                   repeats=a.repeats)),
}


def _command_args(parser, name: str):
    """Add the arguments of subcommand ``name`` to ``parser``; returns it."""
    for flags, kwargs in (_CONFIG, *COMMANDS[name][1]):
        parser.add_argument(*flags, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand with its arguments."""
    parser = _Parser(prog="qftmpo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_args(sub.add_parser(name, help=help_text), name)
    return parser


def _extract_config_path(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _inject_config_defaults(parser, argv) -> None:
    """Turn config-file values into defaults of a subcommand's parser.

    Must run before parse_args so config can satisfy required flags; values
    given on the command line still win. Keys the subcommand does not know
    are ignored (configs may be shared across subcommands).
    """
    path = _extract_config_path(argv)
    if path is None:
        return
    values = _read_config(path)
    for action in parser._actions:
        if action.dest not in values:
            continue
        raw = values[action.dest]
        if action.type is not None:
            try:
                action.default = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                key = action.option_strings[0].lstrip("-")
                raise ValueError(f"{path}: {key}: {exc}") from None
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        # top-level help, a missing or an unknown command: the full parser
        # lists the subcommands and exits (0 for help, 1 otherwise)
        parser = build_parser()
        parser.parse_args(argv)
        parser.error("the command must come first")
    name, rest = argv[0], argv[1:]
    # the invoked subcommand's parser alone, as the full parser nests it
    parser = _command_args(_Parser(prog=f"qftmpo {name}"), name)
    try:
        _inject_config_defaults(parser, rest)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"qftmpo: config error: {exc}\n")
        return 1
    args = parser.parse_args(rest)

    try:
        result = COMMANDS[name][2](args)
        if result is not None:
            _emit(result, args)
        return 0
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"qftmpo: error: {exc}\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(f"qftmpo: resource limit: {exc}\n")
        return 2
    except QftmpoError as exc:
        sys.stderr.write(f"qftmpo: numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
