"""Batch command-line front end.

Subcommands: ``solve``, ``minimax``, ``factorize``, ``simulate``,
``validate``, ``oracle``.  Each consumes a JSON problem file and writes
result artifacts (JSON + CSV) into the output directory.  Outputs embed
the SHA-256 of the input file and every effective tolerance; identical
inputs produce byte-identical artifacts.

Exit codes: 0 success, 2 minimality or factorization failure, 3 schema
error or infeasible class, 4 least-favorable search did not converge,
5 validation disagreement.
"""

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .blocking import BlockingConfig, functional_to_spec, read_samples_csv
from .extrapolate import (
    FactorizationError,
    oracle_solve,
    solve_channel,
    spectral_factorize,
)
from .minimax import (
    DensityClassSpec,
    InfeasibleClassError,
    NoiseClass,
    SignalClass,
    find_least_favorable,
)
from .simulate import SimulationConfig, empirical_mse, simulate_channel
from .spectral import (
    MinimalityViolation,
    as_grid,
    check_minimality,
    complex_tensor_from_json,
    density_from_spec,
    lambda_grid,
)

EXIT_OK = 0
EXIT_MINIMALITY = 2
EXIT_SCHEMA = 3
EXIT_NOT_CONVERGED = 4
EXIT_VALIDATION = 5


class SchemaError(ValueError):
    """Problem file does not match the expected schema."""


# ---------------------------------------------------------------------------
# problem-file parsing

_TOP_KEYS = {"version", "channels", "solver", "blocking", "class_spec", "simulation"}
_CHANNEL_KEYS = {"m", "l", "F", "G", "a", "reference_F", "reference_G"}
_SOLVER_KEYS = {"window", "j_past", "n_lambda", "tolerances"}
_TOL_KEYS = {"oracle_rel", "mc_sigmas", "factorization", "cond_ceiling"}
_BLOCKING_KEYS = {"period", "n_components", "dt"}
_CLASS_KEYS = {
    "family", "variant", "upper", "lower", "epsilon", "signal_power",
    "noise_power", "noise_nominal", "noise_radius", "weight_signal",
    "weight_noise", "channel_weight", "noiseless", "max_iter", "tol",
    "init_F", "init_G",
}
_SIM_KEYS = {"seed", "n_trials", "n_steps", "batch_size", "keep_trials"}


def _require_keys(obj, allowed, required, where, strict):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where} missing required field(s) {sorted(missing)}")
    unknown = set(obj) - allowed
    if unknown and strict:
        raise SchemaError(f"{where} has unknown field(s) {sorted(unknown)}")


def _integer(obj, key, default, where, minimum=None):
    """An integer field (a JSON integer, or an integral number)."""
    value = obj.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}.{key} must be >= {minimum}, got {value}")
    return value


def _parse_density(spec, where):
    if spec is None:
        return None
    try:
        return density_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_functional(raw, blocking, K, where):
    if isinstance(raw, dict):
        if "samples" not in raw and "samples_csv" not in raw:
            raise SchemaError(f"{where}: functional object needs 'samples' or "
                              "'samples_csv'")
        if blocking is None:
            raise SchemaError(f"{where}: sampled functional needs a blocking section")
        if "samples_csv" in raw:
            try:
                _, samples = read_samples_csv(raw["samples_csv"])
            except (OSError, ValueError) as exc:
                raise SchemaError(f"{where}: {exc}") from exc
        else:
            samples = np.asarray(raw["samples"], dtype=float)
        return functional_to_spec(samples, blocking).coefficients
    try:
        arr = complex_tensor_from_json(raw, base_ndim=(1, 2), where=where)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    arr = np.atleast_2d(arr)
    if arr.shape[1] != K:
        raise SchemaError(
            f"{where}: functional has {arr.shape[1]} components, density has K={K}"
        )
    return arr


class Problem:
    """Validated problem file."""

    def __init__(self, path, strict=False):
        raw_bytes = Path(path).read_bytes()
        self.sha256 = hashlib.sha256(raw_bytes).hexdigest()
        try:
            data = json.loads(raw_bytes)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
        _require_keys(data, _TOP_KEYS, {"version", "channels"}, "problem", strict)
        if str(data["version"]) != "1":
            raise SchemaError(f"unsupported version {data['version']!r}")

        solver = data.get("solver", {})
        _require_keys(solver, _SOLVER_KEYS, set(), "solver", strict)
        tols = solver.get("tolerances", {})
        _require_keys(tols, _TOL_KEYS, set(), "solver.tolerances", strict)
        self.window = _integer(solver, "window", 96, "solver", minimum=1)
        self.j_past = _integer(solver, "j_past", 64, "solver", minimum=1)
        self.n_lambda = _integer(solver, "n_lambda", 4096, "solver", minimum=1)
        if self.window >= self.n_lambda // 2:
            raise SchemaError(
                f"solver.window {self.window} too large for n_lambda {self.n_lambda} "
                f"(need window < n_lambda // 2 = {self.n_lambda // 2})"
            )
        self.tolerances = {
            "oracle_rel": float(tols.get("oracle_rel", 1e-4)),
            "mc_sigmas": float(tols.get("mc_sigmas", 3.0)),
            "factorization": float(tols.get("factorization", 1e-8)),
            "cond_ceiling": float(tols.get("cond_ceiling", 1e10)),
        }

        self.blocking = None
        if "blocking" in data:
            blk = data["blocking"]
            _require_keys(blk, _BLOCKING_KEYS,
                          {"period", "n_components", "dt"}, "blocking", strict)
            try:
                self.blocking = BlockingConfig(
                    period=float(blk["period"]),
                    n_components=int(blk["n_components"]),
                    dt=float(blk["dt"]),
                )
            except ValueError as exc:
                raise SchemaError(f"blocking: {exc}") from exc

        channels = data["channels"]
        if not isinstance(channels, list) or not channels:
            raise SchemaError("channels must be a non-empty list")
        self.channels = []
        for i, ch in enumerate(channels):
            where = f"channels[{i}]"
            _require_keys(ch, _CHANNEL_KEYS, {"m", "l", "F", "a"}, where, strict)
            F = _parse_density(ch["F"], where + ".F")
            entry = {
                "m": _integer(ch, "m", None, where),
                "l": _integer(ch, "l", None, where),
                "F": F,
                "G": _parse_density(ch.get("G"), where + ".G"),
                "a": _parse_functional(ch["a"], self.blocking, F.K, where + ".a"),
                "reference_F": _parse_density(ch.get("reference_F"), where + ".reference_F"),
                "reference_G": _parse_density(ch.get("reference_G"), where + ".reference_G"),
            }
            if entry["l"] < 1 or entry["m"] < 0:
                raise SchemaError(f"{where}: need m >= 0 and l >= 1")
            support = entry["a"].shape[0]
            if support > self.window:
                raise SchemaError(
                    f"{where}.a: functional support {support} exceeds "
                    f"solver.window {self.window}"
                )
            for field in ("F", "G", "reference_F", "reference_G"):
                density = entry[field]
                if (hasattr(density, "n_lambda")
                        and density.n_lambda != self.n_lambda):
                    raise SchemaError(
                        f"{where}.{field}: grid density has n_lambda="
                        f"{density.n_lambda}, solver uses {self.n_lambda}"
                    )
            self.channels.append(entry)

        self.class_spec_raw = data.get("class_spec")
        if self.class_spec_raw is not None:
            _require_keys(self.class_spec_raw, _CLASS_KEYS, {"family", "variant"},
                          "class_spec", strict)

        self.simulation = None
        self.keep_trials = False
        if "simulation" in data:
            sim = data["simulation"]
            _require_keys(sim, _SIM_KEYS, {"seed"}, "simulation", strict)
            self.simulation = SimulationConfig(
                seed=_integer(sim, "seed", None, "simulation", minimum=0),
                n_trials=_integer(sim, "n_trials", 10_000, "simulation", minimum=1),
                n_steps=_integer(sim, "n_steps", 64, "simulation", minimum=1),
                batch_size=_integer(sim, "batch_size", 1000, "simulation", minimum=1),
            )
            self.keep_trials = bool(sim.get("keep_trials", False))

    def class_spec(self):
        raw = self.class_spec_raw
        if raw is None:
            raise SchemaError("this command needs a class_spec section")
        family = raw["family"]
        variant = raw["variant"]
        noiseless = bool(raw.get("noiseless", False))

        def matrix(key):
            if key not in raw or raw[key] is None:
                return None
            try:
                return complex_tensor_from_json(raw[key], base_ndim=(2,),
                                                where=f"class_spec.{key}")
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc

        def power(key):
            if key not in raw or raw[key] is None:
                return None
            val = raw[key]
            if isinstance(val, (int, float)):
                return float(val)
            try:
                return complex_tensor_from_json(val, base_ndim=(1, 2),
                                                where=f"class_spec.{key}")
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc

        try:
            if family == "contamination":
                signal = SignalClass(
                    kind="contamination", variant=variant,
                    upper=_parse_density(raw.get("upper"), "class_spec.upper"),
                    epsilon=float(raw.get("epsilon", 0.0)),
                    power=power("signal_power"),
                    weight=matrix("weight_signal"),
                )
                noise = None if noiseless else NoiseClass(
                    kind="power", variant=variant,
                    power=power("noise_power"), weight=matrix("weight_noise"),
                )
            elif family == "band":
                signal = SignalClass(
                    kind="band", variant=variant,
                    lower=_parse_density(raw.get("lower"), "class_spec.lower"),
                    upper=_parse_density(raw.get("upper"), "class_spec.upper"),
                    power=power("signal_power"),
                    weight=matrix("weight_signal"),
                )
                noise = None if noiseless else NoiseClass(
                    kind="l1_ball", variant=variant,
                    nominal=_parse_density(raw.get("noise_nominal"),
                                           "class_spec.noise_nominal"),
                    radius=power("noise_radius"),
                    weight=matrix("weight_noise"),
                )
            else:
                raise SchemaError(f"unknown class family {family!r}")
        except ValueError as exc:
            raise SchemaError(f"class_spec: {exc}") from exc
        return DensityClassSpec(
            signal=signal, noise=noise,
            channel_weight=float(raw.get("channel_weight", 1.0)),
        )


# ---------------------------------------------------------------------------
# artifact writing


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


_CSV_BLOCK = 1024   # rows converted to Python objects at a time


def _write_csv(path, header, columns):
    """CSV of equal-length columns, each cell the ``repr`` of its value.

    Columns go through ``tolist``, so integer columns give ints and the
    others floats; the bytes match a ``csv.writer`` (``\r\n`` line ends)
    fed ``repr(float(x))`` cells.  Rows are converted in blocks, so the
    Python objects alive at once stay few however long the file.
    """
    columns = [np.asarray(column) for column in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            rows = zip(*(column[start:start + _CSV_BLOCK].tolist() for column in columns))
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _entry_columns(values):
    """One row per entry of a complex array, in C order: its index (the
    first axis 0-based, the others 1-based), then re and im."""
    index = np.indices(values.shape).reshape(values.ndim, -1)
    index[1:] += 1
    return [*index, values.real.ravel(), values.imag.ravel()]


def _write_grid_csv(path, values, n_lambda):
    """CSV of an (N, K) vector or (N, K, K) matrix grid function, one row
    per entry: lambda, k (or row, col), re, im."""
    columns = _entry_columns(values)
    columns[0] = lambda_grid(n_lambda)[columns[0]]
    names = ["k"] if values.ndim == 2 else ["row", "col"]
    _write_csv(path, ["lambda", *names, "re", "im"], columns)


def _meta(problem):
    return {
        "input_sha256": problem.sha256,
        "tolerances": problem.tolerances,
        "window": problem.window,
        "j_past": problem.j_past,
        "n_lambda": problem.n_lambda,
        "rng": "numpy.random.default_rng (PCG64, SeedSequence substreams)",
        "package_version": __version__,
    }


def _solve_all(problem, threads):
    def one(entry):
        F = as_grid(entry["F"], problem.n_lambda)
        G = as_grid(entry["G"], problem.n_lambda) if entry["G"] is not None else None
        sol = solve_channel(F, G, entry["a"], window=problem.window,
                            cond_ceiling=problem.tolerances["cond_ceiling"])
        return sol

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sols = list(pool.map(one, problem.channels))
    else:
        sols = [one(entry) for entry in problem.channels]
    return sols


# ---------------------------------------------------------------------------
# commands


def cmd_solve(problem, out_dir, args):
    sols = _solve_all(problem, args.threads)
    payload = {"command": "solve", "meta": _meta(problem), "channels": []}
    total = 0.0
    for entry, sol in zip(problem.channels, sols):
        total += sol.delta
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "delta": sol.delta,
            "coefficients_re": sol.coefficients.real.tolist(),
            "coefficients_im": sol.coefficients.imag.tolist(),
            "diagnostics": {k: v for k, v in sol.diagnostics.items()
                            if isinstance(v, (int, float, bool))},
        })
    payload["delta_total"] = total
    _write_json(out_dir / "results.json", payload)
    for entry, sol in zip(problem.channels, sols):
        _write_grid_csv(out_dir / f"h_{entry['m']}_{entry['l']}.csv",
                        sol.h_grid, problem.n_lambda)
    return EXIT_OK


def _check_oracle_lags(problem):
    """The oracle's covariances reach lag j_past + support; reject lags the
    grid aliases (|lag| >= n_lambda // 2)."""
    limit = problem.n_lambda // 2
    for i, entry in enumerate(problem.channels):
        support = entry["a"].shape[0]
        if problem.j_past + support >= limit:
            raise SchemaError(
                f"channels[{i}]: solver.j_past {problem.j_past} plus functional "
                f"support {support} must stay below n_lambda // 2 = {limit}"
            )


def cmd_oracle(problem, out_dir, args):
    _check_oracle_lags(problem)
    payload = {"command": "oracle", "meta": _meta(problem), "channels": []}
    total = 0.0
    for entry in problem.channels:
        mse = oracle_solve(entry["F"], entry["G"], entry["a"],
                           j_past=problem.j_past, n_lambda=problem.n_lambda)
        total += mse
        payload["channels"].append({"m": entry["m"], "l": entry["l"], "mse": mse})
    payload["mse_total"] = total
    _write_json(out_dir / "oracle.json", payload)
    return EXIT_OK


def cmd_factorize(problem, out_dir, args):
    payload = {"command": "factorize", "meta": _meta(problem), "channels": []}
    rows = []
    for entry in problem.channels:
        fac = spectral_factorize(entry["F"], n_lambda=problem.n_lambda)
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "residual": fac.residual,
            "iterations": fac.iterations,
            "n_coefficients": int(fac.coefficients.shape[0]),
        })
        rows.append((entry, fac))
    _write_json(out_dir / "factorization.json", payload)
    for entry, fac in rows:
        d = fac.coefficients
        keep = np.nonzero(np.linalg.norm(d, axis=(1, 2))
                          > 1e-14 * np.linalg.norm(d[0]))[0]
        upto = int(keep[-1]) + 1 if keep.size else 1
        _write_csv(out_dir / f"factor_{entry['m']}_{entry['l']}.csv",
                   ["u", "row", "col", "re", "im"], _entry_columns(d[:upto]))
    return EXIT_OK


def cmd_simulate(problem, out_dir, args):
    if problem.simulation is None:
        raise SchemaError("simulate needs a simulation section")
    cfg = problem.simulation
    seed = cfg.seed if args.seed is None else args.seed
    payload = {"command": "simulate", "meta": _meta(problem),
               "seed": seed, "n_steps": cfg.n_steps, "channels": []}
    for entry in problem.channels:
        path = simulate_channel(as_grid(entry["F"], problem.n_lambda),
                                cfg.n_steps, seed=seed)
        cov0 = np.einsum("tk,tn->kn", path, np.conj(path)) / path.shape[0]
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "lag0_covariance_re": cov0.real.tolist(),
            "lag0_covariance_im": cov0.imag.tolist(),
        })
        _write_csv(out_dir / f"path_{entry['m']}_{entry['l']}.csv",
                   ["j", "k", "re", "im"], _entry_columns(path))
    _write_json(out_dir / "simulation.json", payload)
    return EXIT_OK


def cmd_validate(problem, out_dir, args):
    if problem.simulation is None:
        raise SchemaError("validate needs a simulation section")
    _check_oracle_lags(problem)
    sols = _solve_all(problem, args.threads)
    cfg = problem.simulation
    rows = []
    all_ok = True
    for entry, sol in zip(problem.channels, sols):
        F_true = entry["reference_F"] if entry["reference_F"] is not None else entry["F"]
        G_true = entry["reference_G"] if entry["reference_G"] is not None else entry["G"]
        mse_oracle = oracle_solve(F_true, G_true, entry["a"],
                                  j_past=problem.j_past, n_lambda=problem.n_lambda)
        mc = empirical_mse(sol, as_grid(F_true, problem.n_lambda),
                           as_grid(G_true, problem.n_lambda) if G_true is not None else None,
                           entry["a"], cfg, keep_trials=problem.keep_trials)
        if problem.keep_trials:
            realized, estimated = mc.realized, mc.estimated
            # scalar abs and pow: numpy's vectorized complex abs rounds some
            # values differently, which would change the artifact's bytes
            squared = [abs(z) ** 2 for z in (realized - estimated).tolist()]
            _write_csv(out_dir / f"trials_{entry['m']}_{entry['l']}.csv",
                       ["trial", "realized_re", "realized_im",
                        "estimated_re", "estimated_im", "squared_error"],
                       [np.arange(mc.n_trials), realized.real, realized.imag,
                        estimated.real, estimated.imag, squared])
        rel = abs(sol.delta - mse_oracle) / max(abs(mse_oracle), 1e-300)
        oracle_ok = rel <= problem.tolerances["oracle_rel"]
        sigmas = abs(mc.mse - sol.delta) / max(mc.stderr, 1e-300)
        mc_ok = sigmas <= problem.tolerances["mc_sigmas"]
        all_ok = all_ok and oracle_ok and mc_ok
        rows.append({
            "m": entry["m"], "l": entry["l"],
            "delta_theory": sol.delta,
            "mse_oracle": mse_oracle,
            "oracle_rel_error": rel,
            "oracle_ok": oracle_ok,
            "mse_empirical": mc.mse,
            "stderr": mc.stderr,
            "empirical_sigmas": sigmas,
            "empirical_ok": mc_ok,
            "n_trials": mc.n_trials,
            "seed": mc.seed,
        })
    payload = {"command": "validate", "meta": _meta(problem),
               "channels": rows, "all_ok": all_ok}
    _write_json(out_dir / "validation.json", payload)
    if not all_ok:
        print("validate: disagreement beyond tolerance; see validation.json",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _multiplier_levels(mult):
    """The scalar multipliers and per-weight levels of one side of a saddle
    report; a complex level is written as [re, im], and the per-node
    profiles (``gamma``, ``gamma_upper``) stay out of the artifact."""
    levels = {}
    for key, value in mult.items():
        if key in ("alpha_outer", "beta_outer"):
            levels[key] = [value.real, value.imag]
        elif key in ("alpha_sq", "beta_sq") or isinstance(value, (int, float, bool)):
            levels[key] = value
    return levels


def cmd_minimax(problem, out_dir, args):
    spec = problem.class_spec()
    raw = problem.class_spec_raw
    functionals = {(entry["m"], entry["l"]): entry["a"]
                   for entry in problem.channels}
    init_F = (_parse_density(raw.get("init_F"), "class_spec.init_F")
              if raw.get("init_F") is not None else problem.channels[0]["F"])
    if spec.noise is not None:
        init_G = (_parse_density(raw.get("init_G"), "class_spec.init_G")
                  if raw.get("init_G") is not None else problem.channels[0]["G"])
        if init_G is None:
            raise SchemaError("minimax with a noisy class needs init_G or channel G")
    else:
        init_G = None
    init = (as_grid(init_F, problem.n_lambda),
            as_grid(init_G, problem.n_lambda) if init_G is not None else None)
    result = find_least_favorable(
        spec, functionals, init,
        max_iter=int(raw.get("max_iter", 500)),
        tol=float(raw.get("tol", 1e-6)),
        window=problem.window, n_lambda=problem.n_lambda,
    )
    report = result.report
    payload = {
        "command": "minimax", "meta": _meta(problem),
        "converged": result.converged,
        "status": "CONVERGED" if result.converged else "NOT_CONVERGED",
        "iterations": result.iterations,
        "objective": report.objective,
        "objective_history": result.objective_history,
        "residual_F": report.residual_F,
        "residual_G": report.residual_G,
        "multipliers": {side: _multiplier_levels(mult)
                        for side, mult in report.multipliers.items()},
    }
    _write_json(out_dir / "minimax.json", payload)
    _write_grid_csv(out_dir / "f0.csv", result.F0.values, problem.n_lambda)
    if result.G0 is not None:
        _write_grid_csv(out_dir / "g0.csv", result.G0.values, problem.n_lambda)
    for (m, l), a in functionals.items():
        sol = solve_channel(result.F0, result.G0, a, window=problem.window)
        _write_grid_csv(out_dir / f"h0_{m}_{l}.csv", sol.h_grid, problem.n_lambda)
    if not result.converged:
        print("minimax: search did not converge; artifacts carry the best iterate",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_check(problem, out_dir, args):
    payload = {"command": "check", "meta": _meta(problem), "channels": []}
    overall = True
    for entry in problem.channels:
        report = check_minimality(entry["F"], entry["G"],
                                  cond_ceiling=problem.tolerances["cond_ceiling"],
                                  n_lambda=problem.n_lambda)
        overall = overall and report.passed
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "passed": report.passed,
            "trace_integral": report.trace_integral,
            "max_condition": report.max_condition,
            "refined_integral": report.refined_integral,
            "refinement_growth": report.refinement_growth,
            "singular_lambdas": report.singular_lambdas,
        })
    payload["all_passed"] = overall
    _write_json(out_dir / "minimality.json", payload)
    return EXIT_OK if overall else EXIT_MINIMALITY


_COMMANDS = {
    "solve": cmd_solve,
    "minimax": cmd_minimax,
    "factorize": cmd_factorize,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pcfield",
        description="Optimal and minimax-robust extrapolation of periodically "
                    "correlated isotropic random fields",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", required=True, help="problem file (JSON)")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for channel solves")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown fields in the problem file")
    args = parser.parse_args(argv)

    try:
        problem = Problem(args.input, strict=args.strict)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](problem, out_dir, args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleClassError as exc:
        print(f"infeasible class: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MinimalityViolation as exc:
        print(f"minimality failure: {exc}", file=sys.stderr)
        return EXIT_MINIMALITY
    except FactorizationError as exc:
        print(f"factorization failure: {exc}", file=sys.stderr)
        return EXIT_MINIMALITY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
