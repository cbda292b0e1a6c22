"""Run every workload once and print its named figures as one table.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 35

Each workload runs in its own process through run.py, one after another;
the table lists each figure with its unit and sample count, and the
command exits non-zero if any operation failed its check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("build-nn32", "apply-n20", "study-suite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    all_correct = True
    print(f"{'workload':<12} {'metric':<18} {'value':>14} {'unit':<9} samples")
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=RUNNER.parent.parent)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        summary = json.loads(lines[-2])["summary"]
        all_correct = all_correct and json.loads(lines[-1])["correct"]
        for name, entry in summary.items():
            print(f"{workload:<12} {name:<18} {entry['value']:>14.6g} {entry['unit']:<9} "
                  f"{entry['samples']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
