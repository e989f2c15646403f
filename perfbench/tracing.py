"""Span recorder for the traced benchmark run.

``install`` wraps every public function of the package modules, in every
``pcfield`` namespace that binds it, plus ``RationalDensity.rasterize`` and
the ``cli.Problem`` parser.  Nothing inside ``src/`` is edited: the wrappers
are installed from here, after the untraced passes have been measured.

Each call becomes a span ``[name, start, end, parent, op, raised]`` kept in
memory; ``Recorder.layer_metrics`` turns one pass worth of spans into call
counts, self times (duration minus the time covered by direct child spans)
and the counters named in ``COUNT_METRICS``.
"""

import functools
import importlib
import time
import types

MODULES = ("spectral", "extrapolate", "minimax", "simulate", "harmonics",
           "blocking", "cli")

# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
SPAN_METRICS = (
    "spectral.RationalDensity.rasterize",
    "spectral.assemble_operators",
    "spectral.fourier_coefficients",
    "spectral.evaluate_lag_series",
    "spectral.covariance_from_density",
    "spectral.check_minimality",
    "extrapolate.solve_channel",
    "extrapolate.oracle_solve",
    "extrapolate.spectral_factorize",
    "minimax.find_least_favorable",
    "minimax.project_onto_class",
    "minimax.build_anchor",
    "minimax.saddle_point_residual",
    "simulate.empirical_mse",
    "simulate.simulate_channel",
    "simulate.synthesize_field",
    "harmonics.decompose_field",
    "harmonics.design_matrix",
    "harmonics.evaluate_harmonic",
    "blocking.block_coefficients",
    "cli.Problem",
    "cli.solve",
    "cli.oracle",
    "cli.factorize",
    "cli.check",
    "cli.validate",
    "cli.minimax",
)

# Counters: (metric name, unit, better).
COUNT_METRICS = (
    ("extrapolate.factorize_sweeps", "count", "lower"),
    ("minimax.ascent_steps", "count", "lower"),
    ("minimax.accepted_ratio", "ratio", "higher"),
    ("minimax.build_anchor.raised", "count", "lower"),
    ("simulate.trials", "count", "higher"),
    ("cli.artifact_bytes", "bytes", "lower"),
)

# Counts that must repeat exactly between two runs of the same seed.
REPEAT_EXACT = (
    "extrapolate.factorize_sweeps",
    "minimax.ascent_steps",
    "minimax.build_anchor.calls",
    "cli.artifact_bytes",
)

OVERHEAD_METRIC = "trace.overhead_s"


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in SPAN_METRICS:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec.extend(COUNT_METRICS)
    spec.append((OVERHEAD_METRIC, "s", "lower"))
    return spec


class Recorder:
    """In-memory spans of the traced passes, tagged with an operation id."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, False])
        self.stack.append(index)
        return index

    def close(self, index, raised):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = raised
        self.stack.pop()

    def start_pass(self):
        """Reset the counters; spans from the returned index on are this pass."""
        self.counts = {}
        return len(self.spans)

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def layer_metrics(self, first_span, artifact_bytes):
        """Per-layer values of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= first_span:
                child[span[3] - first_span] += span[2] - span[1]
        calls, self_s = {}, {}
        raised = 0
        trial_anchors = 0
        searches = 0
        for i, (name, start, end, parent, _op, err) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name == "minimax.build_anchor":
                raised += err
                if parent >= 0 and self.spans[parent][0] == "minimax.find_least_favorable":
                    trial_anchors += 1
            elif name == "minimax.find_least_favorable":
                searches += 1
        # the first anchor of each search is its starting point, not a trial
        trial_anchors -= searches
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["extrapolate.factorize_sweeps"] = self.counts.get("factorize_sweeps", 0)
        out["minimax.ascent_steps"] = self.counts.get("ascent_steps", 0)
        accepted = self.counts.get("accepted_steps", 0)
        out["minimax.accepted_ratio"] = accepted / trial_anchors if trial_anchors else 0.0
        out["minimax.build_anchor.raised"] = raised
        out["simulate.trials"] = self.counts.get("trials", 0)
        out["cli.artifact_bytes"] = artifact_bytes
        return out

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op,raised\n")
            for i, (name, start, end, parent, op, err) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{int(err)}\n")


def _count_sweeps(rec, result):
    rec.add("factorize_sweeps", result.iterations)


def _count_search(rec, result):
    rec.add("ascent_steps", result.iterations)
    rec.add("accepted_steps", len(result.objective_history) - 1)


def _count_trials(rec, result):
    rec.add("trials", result.n_trials)


_RESULT_HOOKS = {
    "extrapolate.spectral_factorize": _count_sweeps,
    "minimax.find_least_favorable": _count_search,
    "simulate.empirical_mse": _count_trials,
}


def _wrap(fn, name, rec):
    hook = _RESULT_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            rec.close(index, raised)
        if hook is not None:
            hook(rec, result)
        return result

    return traced


def _span_name(module_short, fn_name):
    if module_short == "cli" and fn_name.startswith("cmd_"):
        return "cli." + fn_name[len("cmd_"):]
    return f"{module_short}.{fn_name}"


def install(rec):
    """Wrap the package's public functions so each call records a span."""
    package = importlib.import_module("pcfield")
    modules = {short: importlib.import_module(f"pcfield.{short}") for short in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for fn_name, obj in vars(mod).items():
            if (not fn_name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(obj, _span_name(short, fn_name), rec)

    rational = modules["spectral"].RationalDensity
    rational.rasterize = _wrap(rational.rasterize, "spectral.RationalDensity.rasterize", rec)
    problem = modules["cli"].Problem
    problem.__init__ = _wrap(problem.__init__, "cli.Problem", rec)

    # Rebind in every namespace, including dispatch tables such as the CLI's
    # command map, which captured the originals at import.
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        obj[key] = wrappers[value]
