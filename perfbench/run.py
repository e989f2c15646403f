"""pcfield benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload solve_batch --seed 1 --seconds 20 --trace 0

``--seed`` defaults to ``DEFAULT_SEED``.  ``HELD_OUT_SEED`` is kept for
confirming a claimed gain on a seed that was not used while writing it.

Workloads (see ``workloads.py``): ``solve_batch``, ``simulate_field`` and
``minimax_search``.  Every operation calls the program in-process, through
``pcfield.cli.main`` or the public API, and every operation is gated for
correctness; a failed gate counts in ``failed``.

A run sets up (import, seeded problem generation with minimality asserts,
one full warm-up pass), then repeats timed passes for ``--seconds``.  Every
pass must reproduce the warm-up pass's artifacts byte for byte.  Set-up is
also timed in two fresh interpreters, and ``setup_s`` is the median of the
three set-ups.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half of
``--seconds`` on untraced passes and half on passes with every public
function of the package wrapped (``tracing.py``), and reports per-layer
call counts, self times, counters and the tracing overhead.

The last line of stdout is the result object; the lines before it record
the environment and per-operation details.  Outputs go to
``.perfbench_work/`` at the repository root.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SCRIPT_START = time.perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
DEFAULT_SEED = 1
HELD_OUT_SEED = 20251101

WORKLOAD_NAMES = ("solve_batch", "simulate_field", "minimax_search")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="pcfield benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=None, metavar="INDEX",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_threads():
    """Pin BLAS and OpenMP to one thread; must run before numpy is imported.

    On a small machine OpenBLAS threads oversubscribe the cores and small
    Cholesky calls jitter by up to 10x.  Set-up probes inherit the setting.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import the package from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pcfield
    except ImportError as exc:
        print(f"perfbench: cannot import pcfield from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(pcfield.__file__).resolve().is_relative_to(src):
        print(f"perfbench: pcfield resolved to {pcfield.__file__}, not under {src}",
              file=sys.stderr)
        sys.exit(2)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


class Runner:
    """Runs passes of one workload and tallies gated operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.reference = None      # op name -> digest of the warm-up pass

    def fail(self, what, message):
        self.failures.append(f"{what}: {message}")
        print(f"perfbench: FAILED {what}: {message}", file=sys.stderr)

    def run_pass(self, recorder=None):
        """One pass over the workload's ops; returns times and artifact bytes."""
        times = {}
        artifact_bytes = 0
        digests = {}
        for op in self.workload.ops:
            self.attempted += 1
            op.prepare()
            if recorder is not None:
                recorder.op = f"{self.attempted}:{op.name}"
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                times[op.name] = time.perf_counter() - start
                self.fail(op.name, traceback.format_exc())
                continue
            times[op.name] = time.perf_counter() - start
            try:
                digest, nbytes = op.check(result)
            except Exception as exc:
                self.fail(op.name, f"{type(exc).__name__}: {exc}")
                continue
            artifact_bytes += nbytes
            digests[op.name] = digest
            if self.reference is not None and self.reference.get(op.name) != digest:
                self.fail(op.name, "output differs from the warm-up pass")
        if self.reference is None:
            self.reference = digests
        return times, artifact_bytes

    def run_checks(self):
        for name, check in self.workload.run_checks():
            self.attempted += 1
            try:
                check()
            except Exception as exc:
                self.fail(name, f"{type(exc).__name__}: {exc}")


def set_up(args, index):
    """Build the workload and run its warm-up pass; returns (runner, setup_s)."""
    import workloads

    work = WORK / args.workload / f"run{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, work)
    ready = time.perf_counter() - SCRIPT_START
    runner = Runner(workload)
    times, _ = runner.run_pass()
    return runner, ready + sum(times.values())


def setup_probe(args, index):
    """Set up in a fresh interpreter; returns {setup_s, attempted, failures}."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(index)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    """Median, the highest percentile with at least ten samples above it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def timed_passes(runner, seconds, recorder=None, layer_values=None):
    """Repeat passes until ``seconds`` have elapsed (at least one pass)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        first_span = recorder.start_pass() if recorder is not None else 0
        times, artifact_bytes = runner.run_pass(recorder)
        passes.append(times)
        if recorder is not None:
            layer_values.append(recorder.layer_metrics(first_span, artifact_bytes))
        if time.perf_counter() >= deadline:
            return passes


def end_to_end(args, runner, setup_s):
    # Timed blocks alternate with the set-up probes, so the passes sample the
    # whole run rather than one stretch of it: on a shared host the speed
    # drifts over tens of seconds.
    setups = [setup_s]
    passes = timed_passes(runner, args.seconds / SETUP_REPEATS)
    for index in range(1, SETUP_REPEATS):
        probe = setup_probe(args, index)
        setups.append(probe["setup_s"])
        runner.attempted += probe["attempted"]
        for failure in probe["failures"]:
            runner.fail("set-up probe", failure)
        passes += timed_passes(runner, args.seconds / SETUP_REPEATS)
    walls = [sum(p.values()) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "setup_samples_s": setups,
        "wall_s": summarize(walls),
        "ops_s": {op.name: summarize([p[op.name] for p in passes if op.name in p])
                  for op in runner.workload.ops},
    }
    return metrics, details


def per_layer(args, runner):
    import tracing

    half = args.seconds / 2
    untraced = [sum(p.values()) for p in timed_passes(runner, half)]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    layer_values = []
    traced = [sum(p.values()) for p in timed_passes(runner, half, recorder, layer_values)]
    recorder.write_csv(WORK / args.workload / "spans.csv")

    runner.attempted += 1
    for name in tracing.REPEAT_EXACT:
        seen = {values[name] for values in layer_values}
        if len(seen) > 1:
            runner.fail("repeat counts", f"{name} differs between passes: {sorted(seen)}")

    metrics = {}
    for name, unit, _better in tracing.per_layer_spec():
        if name == tracing.OVERHEAD_METRIC:
            value = statistics.median(traced) - statistics.median(untraced)
        elif unit == "s":
            value = statistics.median(v[name] for v in layer_values)
        else:
            value = layer_values[0][name]
        metrics[name] = (value, unit)
    details = {"untraced_wall_s": summarize(untraced), "traced_wall_s": summarize(traced),
               "spans": len(recorder.spans)}
    return metrics, details


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    import_program()

    if args.setup_only is not None:
        runner, setup_s = set_up(args, args.setup_only)
        print(json.dumps({"setup_s": setup_s, "attempted": runner.attempted,
                          "failures": runner.failures}))
        return 0

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    runner, setup_s = set_up(args, 0)
    runner.run_checks()
    env = environment()
    if args.trace:
        metrics, details = per_layer(args, runner)
    else:
        metrics, details = end_to_end(args, runner, setup_s)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if list(metrics) != expected:
        print(f"perfbench: metrics {list(metrics)} do not match BENCHMARK.json {expected}",
              file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for op, summary in details.get("ops_s", {}).items():
        print(f"{args.workload} op {op}: median {summary['median']:.6g} s of "
              f"{summary['n']} passes")
    failed_ops = len(runner.failures) / runner.attempted
    print(f"{args.workload} failed_ops = {failed_ops:.6g} share "
          f"({len(runner.failures)} of {runner.attempted})")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details,
              "failed_ops": failed_ops, "failures": runner.failures}
    print(json.dumps(record))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
