"""qftmpo benchmark: compile, apply and study workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build-nn32 --seed 1 --seconds 35 --trace 0

Workloads: build-nn32, apply-n20, study-suite (see workloads.py). The
package is imported from ./src of the checkout; nothing is installed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus
the tracing overhead (traced minus untraced pass time). End-to-end times
are calibrated: each is scaled by the calibration probe timed next to it
(calibration.py), so they read as seconds on a host of fixed speed; the
raw pass time and the probe time are on the summary line. Per-layer
times are as measured. The last stdout line is the result object; the
line before it holds provenance and the workload's own named figures with
their sample counts. Traced runs write their first traced pass's spans to
.perfbench-work/trace-<workload>.jsonl.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere: with two
# threads the n=96 compile is slower (10.1 s against 9.3 s), and the count
# must be recorded.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
# operation seconds between calibration probes
PROBE_EVERY_S = 0.25
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import qftmpo; print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build-nn32", "apply-n20", "study-suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import qftmpo from this checkout's source tree, never from site-packages."""
    if not (SRC / "qftmpo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'qftmpo'}")
    sys.path.insert(0, str(SRC))
    import qftmpo

    if Path(qftmpo.__file__).resolve().parent != (SRC / "qftmpo").resolve():
        raise SystemExit(f"perfbench: imported qftmpo from {qftmpo.__file__}, not {SRC}")
    return qftmpo


def child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as each CLI call pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qftmpo").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args, qftmpo) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "package_version": getattr(qftmpo, "__version__", None),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def reset_package_caches() -> None:
    """Empty the package's in-process caches, as a fresh process has them."""
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "qftmpo" or key.startswith("qftmpo.")):
            continue
        for name, value in list(vars(module).items()):
            target = getattr(value, "__wrapped__", value)
            if callable(getattr(target, "cache_clear", None)):
                target.cache_clear()
            elif isinstance(value, dict) and "CACHE" in name.upper():
                value.clear()


def run_op(op, tracer):
    """Time one operation; returns (seconds, output, error or None)."""
    if tracer is not None:
        tracer.active = True
        tracer.begin("bench.op")
    start = time.perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # an operation that raises counts as failed
        output, error = None, exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
        tracer.active = False
    return seconds, output, error


def check_op(op, output, error):
    """The operation's error, or its check's when it ran cleanly."""
    if error is None:
        try:
            op.check(output)
        except Exception as exc:  # a failed check, or output it cannot read
            error = exc
    return error


class Measurement:
    def __init__(self):
        self.durations = defaultdict(list)  # untraced and calibrated, by operation kind
        self.pass_seconds = []  # untraced and calibrated
        self.raw_pass_seconds = []  # untraced, as measured
        self.probe_seconds = []
        self.traced_pass_seconds = []
        self.attempted = 0
        self.failed = 0


def measure(workload, seconds: float, tracer) -> Measurement:
    """Run passes until the next one would overrun ``seconds``.

    Untraced passes run the calibration probe at the start and after every
    ``PROBE_EVERY_S`` of operation time; each operation's time is scaled by
    the mean of the probes on either side of it. With a tracer, even passes
    run untraced and odd passes traced (without probes), so one run yields
    both and their difference is the tracing overhead.
    """
    result = Measurement()
    deadline = time.perf_counter() + seconds
    min_passes = 1 if tracer is None else 2
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        reset_package_caches()
        ops = workload.ops(index)
        if traced:
            tracer.keep_spans = not result.traced_pass_seconds
            tracer.install()
        else:
            last_probe = calibration.probe_seconds()
            result.probe_seconds.append(last_probe)
        started = time.perf_counter()
        pass_total = pass_raw = 0.0
        segment = []  # (kind, seconds) of the untraced operations since the last probe
        try:
            for position, op in enumerate(ops, 1):
                op_seconds, output, error = run_op(op, tracer if traced else None)
                pass_raw += op_seconds
                if not traced:
                    segment.append((op.kind, op_seconds))
                # probe next to the operations, before the check runs
                if segment and (position == len(ops)
                                or sum(s for _, s in segment) >= PROBE_EVERY_S):
                    probe = calibration.probe_seconds()
                    result.probe_seconds.append(probe)
                    scale = calibration.NOMINAL_S / (0.5 * (last_probe + probe))
                    for kind, op_s in segment:
                        result.durations[kind].append(op_s * scale)
                        pass_total += op_s * scale
                    last_probe, segment = probe, []
                error = check_op(op, output, error)
                result.attempted += 1
                if error is not None:
                    result.failed += 1
                    if result.failed <= 5:
                        print(f"perfbench: {workload.name} pass {index} {op.kind} failed: "
                              f"{type(error).__name__}: {error}", file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            result.traced_pass_seconds.append(pass_raw)
        else:
            result.pass_seconds.append(pass_total)
            result.raw_pass_seconds.append(pass_raw)
        index += 1
        now = time.perf_counter()
        if index >= min_passes and now + (now - started) > deadline:
            return result


def main(argv=None) -> int:
    args = parse_args(argv)
    qftmpo = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracing import Tracer, unit_of

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        calibration.warm_up()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = calibration.probe_seconds()
            seconds = child_import_seconds()
            start = time.perf_counter()
            workload.setup()
            seconds += time.perf_counter() - start
            after = calibration.probe_seconds()
            setup_times.append(seconds * calibration.NOMINAL_S / (0.5 * (before + after)))
        tracer = Tracer() if args.trace else None
        result = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance(args, qftmpo)
    untraced_pass_s = workloads.median(result.pass_seconds)
    latencies = [1e3 * d for kind in workload.latency_kinds for d in result.durations[kind]]
    setup_s = workloads.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s", len(setup_times)),
        "pass_s": (untraced_pass_s, "s", len(result.pass_seconds)),
        "op_ms_p90": (workloads.tail_quantile(latencies, 0.9), "ms", len(latencies)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    named = workload.headline(result.durations, result.pass_seconds)
    named["failed_frac"] = (result.failed / max(result.attempted, 1), "fraction",
                            result.attempted)
    named["pass_raw_s"] = (workloads.median(result.raw_pass_seconds), "s",
                           len(result.raw_pass_seconds))
    named["probe_ms"] = (1e3 * workloads.median(result.probe_seconds), "ms",
                         len(result.probe_seconds))

    if tracer is not None:
        passes = len(result.traced_pass_seconds)
        metrics = tracer.layer_metrics(passes)
        traced_pass_s = sum(result.traced_pass_seconds) / passes
        # the first pass of a process runs cold; compare against warm ones
        plain = result.raw_pass_seconds[1:] or result.raw_pass_seconds
        plain_pass_s = sum(plain) / len(plain)
        metrics.update({
            "trace.pass_s": traced_pass_s,
            "trace.untraced_pass_s": plain_pass_s,
            "trace.overhead_s": traced_pass_s - plain_pass_s,
        })
        trace_file = WORK / f"trace-{args.workload}.jsonl"
        tracer.write_spans(trace_file, {"provenance": info, "metrics": metrics})
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        reported = {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in end_to_end.items()}

    summary = {name: {"value": value, "unit": unit, "samples": samples}
               for name, (value, unit, samples) in {**named, **end_to_end}.items()}
    print(json.dumps({"provenance": info, "summary": summary}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
