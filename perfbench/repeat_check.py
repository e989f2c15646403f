"""Check that the traced counts repeat exactly between two runs of one seed.

    python3 perfbench/repeat_check.py --workload minimax_search --seed 1

Runs ``run.py --trace 1`` twice and compares every per-layer count (the
``.calls`` metrics and the counters, ``extrapolate.factorize_sweeps``,
``minimax.ascent_steps`` and ``cli.artifact_bytes`` among them).  Exits 1
if any differs, so later changes can cite these counts as counts.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] != "s"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = [name for name in first if first[name] != second.get(name)]
    for name in first:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:45s} {first[name]:>12} {second.get(name)!s:>12} {mark}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(differ)} of "
          f"{len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
