import dataclasses
import json
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pcfield import cli
from pcfield.cli import (
    EXIT_MINIMALITY,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    main,
)
from pcfield.extrapolate import FACTORIZATION_TOL
from pcfield.minimax import DensityClassSpec
from pcfield.spectral import (
    RationalDensity,
    as_grid,
    density_from_spec,
    density_to_spec,
    lambda_grid,
)


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def white_problem(n_lambda=512):
    return {
        "version": "1",
        "solver": {"window": 32, "j_past": 32, "n_lambda": n_lambda},
        "channels": [{
            "m": 0, "l": 1,
            "F": {"type": "rational", "numerator": [1.0], "denominator": [1.0]},
            "G": None,
            "a": [[1.0], [0.5]],
        }],
        "simulation": {"seed": 11, "n_trials": 2000, "n_steps": 32},
    }


def ar1_problem():
    return {
        "version": "1",
        "solver": {"window": 64, "j_past": 48, "n_lambda": 1024},
        "channels": [{
            "m": 0, "l": 1,
            "F": {"type": "rational", "numerator": [1.0], "denominator": [1.0, -0.5]},
            "a": [[1.0]],
        }],
        "simulation": {"seed": 21, "n_trials": 4000, "n_steps": 64},
    }


class TestSolve:
    def test_white_fixture_reports_norm(self, tmp_path):
        path = write_problem(tmp_path, white_problem())
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert results["delta_total"] == pytest.approx(1.25, abs=1e-10)
        assert (out / "h_0_1.csv").exists()
        assert results["meta"]["input_sha256"]
        assert "oracle_rel" in results["meta"]["tolerances"]

    def test_ar1_fixture(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert results["delta_total"] == pytest.approx(1.0, abs=1e-6)

    def test_blocked_functional_input(self, tmp_path):
        prob = white_problem()
        prob["blocking"] = {"period": 1.0, "n_components": 2, "dt": 0.125}
        prob["channels"][0]["F"] = {
            "type": "rational",
            "numerator": [[[1.0, 0.0], [0.0, 1.0]]],
            "denominator": [1.0],
        }
        prob["channels"][0]["a"] = {"samples": [1.0] * 8 + [0.0] * 8}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        # indicator of one period projects onto the zero-frequency basis
        assert results["delta_total"] == pytest.approx(1.0, abs=1e-10)

    def test_malformed_file_exits_3_without_outputs(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        assert not out.exists()

    def test_missing_required_field_exits_3(self, tmp_path):
        prob = white_problem()
        del prob["channels"][0]["a"]
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        assert not out.exists()

    def test_strict_mode_rejects_unknown_fields(self, tmp_path):
        prob = white_problem()
        prob["extra_field"] = 1
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out),
                     "--strict"]) == EXIT_SCHEMA
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK

    def test_strict_class_keys_are_the_spec_fields(self, tmp_path):
        # --strict accepts exactly DensityClassSpec's fields and the four
        # keys of the search
        keys = ({field.name for field in dataclasses.fields(DensityClassSpec)}
                | {"max_iter", "tol", "init_F", "init_G"})
        assert cli._CLASS_KEYS == keys
        prob = white_problem()
        prob["class_spec"] = dict.fromkeys(keys, 1.0)
        cli.Problem(write_problem(tmp_path, prob), strict=True)
        for extra in ("kind", "power", "weight", "radius", "nominal"):
            prob["class_spec"] = {**dict.fromkeys(keys, 1.0), extra: 1.0}
            with pytest.raises(cli.SchemaError, match=rf"unknown field\(s\) \['{extra}'\]"):
                cli.Problem(write_problem(tmp_path, prob), strict=True)

    def test_minimality_failure_exits_2(self, tmp_path):
        prob = white_problem()
        prob["channels"][0]["F"] = {
            "type": "rational", "numerator": [1.0, -1.0], "denominator": [1.0]}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) \
            == EXIT_MINIMALITY


class TestSolveRoutes:
    """``solve`` and ``validate`` solve a rational pair by the filter and a
    grid pair on the window; ``minimax`` searches over grids on the window."""

    @staticmethod
    def count_assemblies(monkeypatch):
        # solve_channel is the one caller of assemble_operators, the minimax
        # anchor's included
        from pcfield import extrapolate

        calls = []
        assemble = extrapolate.assemble_operators

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(extrapolate, "assemble_operators", counted)
        return calls

    @staticmethod
    def two_channels(grid):
        prob = ar1_problem()
        prob["channels"][0]["G"] = {"type": "rational", "numerator": [0.5]}
        prob["channels"].append(dict(prob["channels"][0], m=1, a=[[1.0], [0.5]]))
        if grid:
            for channel in prob["channels"]:
                for key in ("F", "G"):
                    density = density_from_spec(channel[key])
                    channel[key] = density_to_spec(density.rasterize(1024))
        return prob

    @pytest.mark.parametrize("grid, per_channel", [(False, 0), (True, 1)])
    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_assemblies_per_channel(self, tmp_path, monkeypatch, command, grid, per_channel):
        calls = self.count_assemblies(monkeypatch)
        path = write_problem(tmp_path, self.two_channels(grid))
        assert main([command, "--input", str(path), "--output", str(tmp_path / "out")]) \
            == EXIT_OK
        assert len(calls) == 2 * per_channel

    def test_minimax_still_assembles(self, tmp_path, monkeypatch):
        calls = self.count_assemblies(monkeypatch)
        prob = white_problem()
        for edit in _noisy_class(_CONTAMINATION):
            edit(prob)
        path = write_problem(tmp_path, prob)
        assert main(["minimax", "--input", str(path), "--output", str(tmp_path / "out")]) \
            in (EXIT_OK, EXIT_NOT_CONVERGED)
        steps = len(json.loads((tmp_path / "out" / "minimax.json").read_text())
                    ["objective_history"])
        assert len(calls) >= steps


def _set(path, value):
    """Return an edit that sets ``payload[path[0]][path[1]]...`` to value."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


class TestSolverIntegers:
    @pytest.mark.parametrize("edits, message", [
        pytest.param([_set(("solver", "window"), "abc")],
                     "solver.window must be an integer", id="window-string"),
        pytest.param([_set(("solver", "window"), 2.5)],
                     "solver.window must be an integer", id="window-fraction"),
        pytest.param([_set(("solver", "window"), True)],
                     "solver.window must be an integer", id="window-bool"),
        pytest.param([_set(("solver", "window"), 0)],
                     "solver.window must be >= 1", id="window-zero"),
        pytest.param([_set(("solver", "window"), 40), _set(("solver", "n_lambda"), 64)],
                     "solver.window 40 too large for n_lambda 64", id="window-vs-grid"),
        pytest.param([_set(("solver", "window"), 1)],
                     "functional support 2 exceeds solver.window 1", id="window-vs-support"),
        pytest.param([_set(("solver", "j_past"), "x")],
                     "solver.j_past must be an integer", id="j_past-string"),
        pytest.param([_set(("solver", "j_past"), 0)],
                     "solver.j_past must be >= 1", id="j_past-zero"),
        pytest.param([_set(("solver", "n_lambda"), "abc")],
                     "solver.n_lambda must be an integer", id="n_lambda-string"),
        pytest.param([_set(("solver", "n_lambda"), None)],
                     "solver.n_lambda must be an integer", id="n_lambda-null"),
        pytest.param([_set(("channels", 0, "m"), "zero")],
                     "channels[0].m must be an integer", id="m-string"),
        pytest.param([_set(("simulation", "n_trials"), "many")],
                     "simulation.n_trials must be an integer", id="n_trials-string"),
    ])
    def test_bad_integer_exits_3_with_one_line(self, tmp_path, capsys, edits, message):
        prob = white_problem()
        for edit in edits:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("schema error:")
        assert message in err
        assert not out.exists()

    def test_integral_float_accepted(self, tmp_path):
        prob = white_problem()
        prob["solver"]["window"] = 32.0
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK


_ALIASED_PAST = [_set(("solver", "window"), 8), _set(("solver", "j_past"), 40),
                 _set(("solver", "n_lambda"), 64)]
# the replay reads the estimator's weights to lag 2 * n_steps = 128, which
# aliases on a 256-point grid
_ALIASED_SIMULATION = [
    _set(("solver", "n_lambda"), 256), _set(("solver", "window"), 16),
    _set(("channels", 0, "F", "denominator"), [1.0, -0.5]),
    _set(("channels", 0, "G"), {"type": "rational", "numerator": [0.5]}),
    _set(("simulation", "n_steps"), 64),
]
# a pole at 0.97 keeps the estimator's memory far beyond 4 steps
_SHORT_SIMULATION = [
    _set(("solver", "n_lambda"), 1024), _set(("solver", "window"), 48),
    _set(("channels", 0, "F", "denominator"), [1.0, -0.97]),
    _set(("channels", 0, "G"), {"type": "rational", "numerator": [1.0]}),
    _set(("simulation", "n_steps"), 4),
]

# a pole at 0.995, whose factor needs 5972 lags at n_lambda 1024: the exact
# lags are kept to their negligible tail and wrap onto the grid
_LONG_MEMORY_SIGNAL = [
    _set(("solver", "n_lambda"), 1024),
    _set(("channels", 0, "F", "denominator"), [1.0, -0.995]),
]
# a pole at radius 1 - 2e-8 between two nodes of the 1024-node grid passes
# the parser's 1e-8 rule, the rank floor and check, but its factor needs
# about 1.5e9 exact lags: cut at the bound of the doubling, it misses its
# density by a relative residual near 1, so factorize refuses to write it
# and simulate to draw from it
_BOUNDED_POLE = [[1.0, 0.0], [-(1.0 - 2e-8) * np.cos(np.pi / 1024),
                              -(1.0 - 2e-8) * np.sin(np.pi / 1024)]]
_UNSAMPLEABLE_SIGNAL = [
    _set(("solver", "n_lambda"), 1024),
    _set(("channels", 0, "F", "denominator"), _BOUNDED_POLE),
]
# the same density as a grid (its Wilson factor misses it by 15 %) takes
# the window route, whose 32 coefficients read delta 2.390 against the
# oracle's 2.4925: validate reports the disagreement
_UNSAMPLEABLE_GRID_SIGNAL = [
    _set(("solver", "n_lambda"), 1024),
    _set(("channels", 0, "F"), density_to_spec(RationalDensity.ar1(0.995).rasterize(1024))),
]

# an MA(1) zero at radius 1 - 1e-6: the filter's weights decay far past the
# lags a 512-node grid resolves, and fold onto it; validate's 32 simulated
# steps hold only half of their weight
_WEIGHTS_BEYOND_THE_GRID = [_set(("channels", 0, "F", "numerator"), [1.0, -(1.0 - 1e-6)])]


def _ma1_zero(radius, angle):
    """The numerator [1, -radius e^{i angle}] as [re, im] pairs."""
    return [[1.0, 0.0], [-radius * np.cos(angle), -radius * np.sin(angle)]]


# a white noise grid with one infinite node, written as JSON's Infinity
_INFINITE_GRID_NOISE = [_set(("channels", 0, "G"), {
    "type": "grid", "K": 1, "n_lambda": 512,
    "values": [[[float("inf") if t == 7 else 0.5]] for t in range(512)],
})]

# finite coefficients whose square overflows on the grid
_OVERFLOWING_NUMERATOR = [_set(("channels", 0, "F", "numerator"), [1e200])]

# a K = 2 signal observed through K = 1 noise
_MISMATCHED_NOISE = [
    _set(("channels", 0, "F"), {"type": "rational", "numerator": [[[1.0, 0.0], [0.0, 1.0]]]}),
    _set(("channels", 0, "a"), [[1.0, 0.5]]),
    _set(("channels", 0, "G"), {"type": "rational", "numerator": [0.5]}),
]

# a K = 2 signal whose second component is zero, observed through full-rank
# white noise: the joint past/future covariance is singular
_REDUCED_RANK_SIGNAL = [
    _set(("channels", 0, "F"), {"type": "rational", "numerator": [[[1.0, 0.0], [0.0, 0.0]]],
                                "denominator": [1.0, -0.5]}),
    _set(("channels", 0, "G"), {"type": "rational", "numerator": [[[0.5, 0.0], [0.0, 0.5]]]}),
    _set(("channels", 0, "a"), [[1.0, 1.0]]),
]

_INFEASIBLE_BAND = {
    "family": "band", "variant": "trace", "noiseless": True,
    "lower": {"type": "rational", "numerator": [0.5], "denominator": [1.0]},
    "upper": {"type": "rational", "numerator": [1.0], "denominator": [1.0]},
    "signal_power": 5.0,
}

# noisy classes on white_problem's K = 1 channel, observed through noise 0.25
_CONTAMINATION = {
    "family": "contamination", "variant": "trace",
    "upper": {"type": "rational", "numerator": [1.0]}, "epsilon": 0.3,
    "signal_power": 1.2, "noise_power": 0.4, "max_iter": 20,
}
_BAND = {
    "family": "band", "variant": "trace",
    "lower": {"type": "rational", "numerator": [0.5]},
    "upper": {"type": "rational", "numerator": [1.5]}, "signal_power": 1.0,
    "noise_nominal": {"type": "rational", "numerator": [0.5]}, "noise_radius": 0.1,
    "max_iter": 20,
}


def _noisy_class(base, **fields):
    """Edits that give white_problem a noise density and the class ``base``
    with ``fields`` replaced."""
    return [_set(("channels", 0, "G"), {"type": "rational", "numerator": [0.5]}),
            _set(("class_spec",), {**base, **fields})]


# a class density on 256 nodes, where solver.n_lambda is 512
_GRID_256 = {"type": "grid", "K": 1, "n_lambda": 256, "values": [[[1.0]]] * 256}

# F = max(|sin(lambda/2)|^8, 1e-19) <= 1: the exact B satisfies B >= I, but at
# window 48 its condition number is ~8e17 and the computed B has an
# eigenvalue near -134; every node of a K = 1 pair has condition 1
_NON_PD_OPERATOR = [_set(("solver", "window"), 48), _set(("channels", 0, "F"), {
    "type": "grid", "K": 1, "n_lambda": 512,
    "values": [[[v]] for v in np.maximum(np.abs(np.sin(lambda_grid(512) / 2)) ** 8,
                                         1e-19).tolist()],
})]


def _sampled(samples):
    """Edits that give white_problem a K = 2 signal and a functional
    sampled at 8 steps per period."""
    return [_set(("blocking",), {"period": 1.0, "n_components": 2, "dt": 0.125}),
            _set(("channels", 0, "F"),
                 {"type": "rational", "numerator": [[[1.0, 0.0], [0.0, 1.0]]]}),
            _set(("channels", 0, "a"), {"samples": samples})]


def _blocking(**fields):
    """An edit that gives white_problem a valid blocking section with
    ``fields`` replaced."""
    return [_set(("blocking",), {"period": 1.0, "n_components": 1, "dt": 0.25, **fields})]


# a second channel with the first one's (m, l), whose h_0_1.csv would
# overwrite the first's and whose functional minimax would drop
_DUPLICATE_CHANNEL = [lambda payload: payload["channels"].append(
    dict(payload["channels"][0], a=[[2.0]]))]


class TestRuntimeFailures:
    """Inputs that parse but cannot be computed exit with a documented code
    and one line on stderr, never with a traceback."""

    @pytest.mark.parametrize("command, edits, code, prefix", [
        pytest.param("oracle", _ALIASED_PAST, EXIT_SCHEMA,
                     "schema error: channels[0]: solver.j_past 40", id="oracle-lag-aliases"),
        pytest.param("validate", _ALIASED_PAST, EXIT_SCHEMA,
                     "schema error: channels[0]: solver.j_past 40", id="validate-lag-aliases"),
        pytest.param("validate", _ALIASED_SIMULATION, EXIT_SCHEMA,
                     "schema error: channels[0]: simulation.n_steps: 64 steps read the "
                     "estimator's weights to lag 128", id="validate-n-steps-aliases"),
        pytest.param("validate", _SHORT_SIMULATION, EXIT_SCHEMA,
                     "schema error: channels[0]: simulation.n_steps: estimator keeps",
                     id="validate-n-steps-too-short"),
        pytest.param("simulate", _UNSAMPLEABLE_SIGNAL, EXIT_MINIMALITY,
                     "factorization failure: channels[0]: factor's relative residual",
                     id="simulate-factor-over-tolerance"),
        pytest.param("validate", _UNSAMPLEABLE_GRID_SIGNAL, EXIT_VALIDATION,
                     "validate: disagreement beyond tolerance",
                     id="validate-factor-over-tolerance"),
        pytest.param("solve", [_set(("channels", 0, "F", "denominator"), [1.0, -1.0])],
                     EXIT_SCHEMA, "schema error: channels[0].F: denominator has a root "
                     "on the unit circle", id="denominator-root-on-circle"),
        pytest.param("solve", [_set(("channels", 0, "F", "numerator"), [1.0, float("nan")])],
                     EXIT_SCHEMA, "schema error: channels[0].F: numerator and denominator "
                     "coefficients must be finite", id="solve-nan-numerator"),
        pytest.param("check", [_set(("channels", 0, "F", "numerator"), [1.0, float("nan")])],
                     EXIT_SCHEMA, "schema error: channels[0].F: numerator and denominator "
                     "coefficients must be finite", id="check-nan-numerator"),
        pytest.param("solve", _INFINITE_GRID_NOISE, EXIT_SCHEMA,
                     "schema error: channels[0].G: density has non-finite values",
                     id="solve-infinite-grid-value"),
        pytest.param("check", _INFINITE_GRID_NOISE, EXIT_SCHEMA,
                     "schema error: channels[0].G: density has non-finite values",
                     id="check-infinite-grid-value"),
        pytest.param("solve", _OVERFLOWING_NUMERATOR, EXIT_SCHEMA,
                     "schema error: rational density overflows", id="solve-overflowing-numerator"),
        pytest.param("check", _OVERFLOWING_NUMERATOR, EXIT_SCHEMA,
                     "schema error: rational density overflows", id="check-overflowing-numerator"),
        pytest.param("factorize", _OVERFLOWING_NUMERATOR, EXIT_SCHEMA,
                     "schema error: rational density overflows",
                     id="factorize-overflowing-numerator"),
        pytest.param("minimax", [_set(("class_spec",), _INFEASIBLE_BAND)], EXIT_SCHEMA,
                     "infeasible class: power target", id="infeasible-class-power"),
        pytest.param("factorize", [_set(("channels", 0, "F", "numerator"), [0.0])],
                     EXIT_MINIMALITY, "factorization failure: cannot factorize the zero "
                     "density", id="factorize-zero-density"),
        pytest.param("factorize", _UNSAMPLEABLE_SIGNAL, EXIT_MINIMALITY,
                     "factorization failure: channels[0]: factor's relative residual",
                     id="factorize-over-tolerance"),
        pytest.param("solve", _MISMATCHED_NOISE, EXIT_SCHEMA,
                     "schema error: channels[0].G: density has K=1, channels[0].F has K=2",
                     id="solve-noise-k-mismatch"),
        pytest.param("check", _MISMATCHED_NOISE, EXIT_SCHEMA,
                     "schema error: channels[0].G: density has K=1, channels[0].F has K=2",
                     id="check-noise-k-mismatch"),
        pytest.param("solve", [_set(("solver", "tolerances"), {"oracle_rel": "abc"})],
                     EXIT_SCHEMA, "schema error: solver.tolerances.oracle_rel must be a "
                     "positive number, got 'abc'", id="tolerance-string"),
        pytest.param("solve", _DUPLICATE_CHANNEL, EXIT_SCHEMA,
                     "schema error: channels[1]: duplicate (m, l) = (0, 1), already "
                     "channels[0]", id="solve-duplicate-channel"),
        pytest.param("minimax", _DUPLICATE_CHANNEL, EXIT_SCHEMA,
                     "schema error: channels[1]: duplicate (m, l) = (0, 1), already "
                     "channels[0]", id="minimax-duplicate-channel"),
        pytest.param("solve", [_set(("channels", 0, "m"), 1), _set(("channels", 0, "l"), 4)],
                     EXIT_SCHEMA, "schema error: channels[0]: harmonic (m, l) = (1, 4) "
                     "needs m >= 0 and 1 <= l <= 2m + 1", id="solve-l-above-2m-plus-1"),
        pytest.param("solve", [_set(("channels", 0, "l"), 2)],
                     EXIT_SCHEMA, "schema error: channels[0]: harmonic (m, l) = (0, 2) "
                     "needs m >= 0 and 1 <= l <= 2m + 1", id="solve-zonal-l-2"),
        pytest.param("minimax", [_set(("class_spec",), {**_INFEASIBLE_BAND, "noiseless": "false"})],
                     EXIT_SCHEMA, "schema error: class_spec.noiseless must be true or false, "
                     "got 'false'", id="noiseless-string"),
        pytest.param("minimax", _noisy_class(_CONTAMINATION, epsilon=True), EXIT_SCHEMA,
                     "schema error: class_spec: epsilon must be a number, got True",
                     id="epsilon-true"),
        pytest.param("minimax", _noisy_class(_CONTAMINATION, signal_power=True), EXIT_SCHEMA,
                     "schema error: class_spec: signal power must be a number, got True",
                     id="signal-power-true"),
        pytest.param("minimax", _noisy_class(_CONTAMINATION, noise_power=False), EXIT_SCHEMA,
                     "schema error: class_spec: noise power must be a number, got False",
                     id="noise-power-false"),
        pytest.param("minimax", _noisy_class(_CONTAMINATION, signal_power=float("inf")),
                     EXIT_SCHEMA, "schema error: class_spec: signal power must be finite",
                     id="contamination-signal-power-infinite"),
        pytest.param("minimax", _noisy_class(_CONTAMINATION, noise_power=float("inf")),
                     EXIT_SCHEMA, "schema error: class_spec: noise power must be finite",
                     id="contamination-noise-power-infinite"),
        pytest.param("minimax", _noisy_class(_CONTAMINATION, variant="matrix",
                                             signal_power=[[float("inf")]], noise_power=[[0.4]]),
                     EXIT_SCHEMA, "schema error: class_spec: signal power must be finite",
                     id="matrix-power-infinite-entry"),
        pytest.param("minimax", _noisy_class(_BAND, noise_radius=-0.1), EXIT_SCHEMA,
                     "schema error: class_spec: noise radius must be >= 0",
                     id="band-radius-negative"),
        pytest.param("minimax", _noisy_class(_BAND, signal_power=float("inf")), EXIT_SCHEMA,
                     "schema error: class_spec: signal power must be finite",
                     id="band-signal-power-infinite"),
        pytest.param("minimax", _noisy_class(_BAND, noise_radius=float("nan")), EXIT_SCHEMA,
                     "schema error: class_spec: noise radius must be finite",
                     id="band-radius-nan"),
        pytest.param("minimax", _noisy_class(_BAND, variant="component", signal_power=[1.0],
                                             noise_radius=[float("nan")]),
                     EXIT_SCHEMA, "schema error: class_spec: noise radius must be finite",
                     id="component-radius-nan-entry"),
        pytest.param("minimax", _noisy_class(_BAND, variant="component", signal_power=[1.0],
                                             noise_radius=[True]),
                     EXIT_SCHEMA, "schema error: class_spec.noise_radius: entries must be "
                     "numbers in a regular nested list, got bool",
                     id="component-radius-true-entry"),
        pytest.param("solve", [_set(("channels", 0, "F", "numerator"), [True, 0.5])],
                     EXIT_SCHEMA, "schema error: channels[0].F: numerator: entries must be "
                     "numbers in a regular nested list, got bool", id="solve-true-in-numerator"),
        pytest.param("solve", [_set(("channels", 0, "a"), [[1.0], [10 ** 400]])],
                     EXIT_SCHEMA, "schema error: channels[0].a: int too large to convert "
                     "to float", id="solve-integer-overflows-float"),
        pytest.param("solve", _sampled([True] * 8 + [0.0] * 8), EXIT_SCHEMA,
                     "schema error: channels[0].a: samples: entries must be numbers in a "
                     "regular nested list, got bool", id="solve-true-in-samples"),
        pytest.param("solve", _sampled([[1.0], [1.0, 2.0]]), EXIT_SCHEMA,
                     "schema error: channels[0].a: samples: entries must be numbers in a "
                     "regular nested list, got list", id="solve-ragged-samples"),
        pytest.param("solve", _sampled([1.0] * 7), EXIT_SCHEMA,
                     "schema error: channels[0].a: final period truncated",
                     id="solve-samples-truncate-a-period"),
        pytest.param("solve", [*_blocking(n_components=2),
                               _set(("channels", 0, "a"), {"samples": [1.0] * 4})],
                     EXIT_SCHEMA, "schema error: channels[0].a: functional of shape (1, 2) "
                     "does not fit densities with K=1", id="solve-samples-of-another-k"),
        pytest.param("solve", [_set(("channels", 0, "F", "numerator"),
                                    [[1.0, 0.0], [-np.cos(0.1234), -np.sin(0.1234)]])],
                     EXIT_MINIMALITY, "minimality failure: the pair's filter",
                     id="solve-zero-on-circle-between-nodes"),
        pytest.param("validate", _WEIGHTS_BEYOND_THE_GRID, EXIT_SCHEMA,
                     "schema error: channels[0]: simulation.n_steps: estimator keeps 5.00e-01 "
                     "of its weight beyond the simulated past window",
                     id="validate-weights-beyond-the-past-window"),
        pytest.param("solve", _NON_PD_OPERATOR, EXIT_MINIMALITY,
                     "minimality failure: assembled B is not positive definite",
                     id="solve-non-pd-operator"),
        pytest.param("solve", _blocking(period="1.0"), EXIT_SCHEMA,
                     "schema error: blocking.period must be a positive number, got '1.0'",
                     id="blocking-period-string"),
        pytest.param("solve", _blocking(period=True), EXIT_SCHEMA,
                     "schema error: blocking.period must be a positive number, got True",
                     id="blocking-period-true"),
        pytest.param("solve", _blocking(n_components=1.7), EXIT_SCHEMA,
                     "schema error: blocking.n_components must be an integer, got 1.7",
                     id="blocking-fractional-components"),
        pytest.param("solve", _blocking(period=[1.0]), EXIT_SCHEMA,
                     "schema error: blocking.period must be a positive number, got [1.0]",
                     id="blocking-period-list"),
        pytest.param("solve", _blocking(period=None), EXIT_SCHEMA,
                     "schema error: blocking.period must be a positive number, got None",
                     id="blocking-period-null"),
        pytest.param("validate", [_set(("simulation", "keep_trials"), "false")],
                     EXIT_SCHEMA, "schema error: simulation.keep_trials must be true or "
                     "false, got 'false'", id="keep-trials-string"),
        *(pytest.param("minimax", _noisy_class(_CONTAMINATION, **{key: _GRID_256}), EXIT_SCHEMA,
                       f"schema error: class_spec.{key}: grid density has n_lambda=256, "
                       "solver uses 512", id=f"class-{key}-off-the-grid")
          for key in ("upper", "init_F", "init_G")),
    ])
    def test_exit_code_with_one_line(self, tmp_path, capsys, command, edits, code, prefix):
        prob = white_problem()
        for edit in edits:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main([command, "--input", str(path), "--output", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(prefix)

    @pytest.mark.parametrize("edits, prefix", [
        pytest.param(_ALIASED_SIMULATION, "simulation.n_steps: 64 steps read the "
                     "estimator's weights to lag 128", id="weight-lags"),
        # 2 * n_steps = 40 stays below 64, but the 45-step functional takes
        # the joint covariances to lag 20 + 45 - 1 = 64
        pytest.param([_set(("solver", "n_lambda"), 128), _set(("solver", "window"), 48),
                      _set(("solver", "j_past"), 8),
                      _set(("channels", 0, "a"), [[1.0]] * 45),
                      _set(("simulation", "n_steps"), 20)],
                     "simulation.n_steps: 20 steps read the estimator's weights to lag 40 "
                     "and the covariances to lag 64", id="covariance-lags"),
        # the lags fit a 16384 grid, but (2047 + 2) * 1 entries exceed the
        # joint size limit of 2048
        pytest.param([_set(("solver", "n_lambda"), 16384),
                      _set(("simulation", "n_steps"), 2047)],
                     "simulation.n_steps: 2047 past and 2 future steps of 1 components "
                     "make a joint vector of 2049 entries", id="joint-size"),
    ])
    def test_validate_rejects_unusable_n_steps_before_solving(self, tmp_path, capsys,
                                                               monkeypatch, edits, prefix):
        def no_solve(*args, **kwargs):
            raise AssertionError("validate solved before checking simulation.n_steps")

        monkeypatch.setattr(cli, "solve_channel", no_solve)
        prob = white_problem()
        for edit in edits:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("schema error: channels[0]: " + prefix)

    @pytest.mark.parametrize("j_past, code", [(28, EXIT_OK), (29, EXIT_SCHEMA)])
    def test_oracle_reads_covariances_to_j_past_plus_support_minus_one(
            self, tmp_path, capsys, j_past, code):
        # J = 4 at n_lambda 64: the covariance lags reach j_past + 3, which
        # first aliases at j_past 29
        prob = white_problem(n_lambda=64)
        prob["solver"].update(window=8, j_past=j_past)
        prob["channels"][0]["a"] = [[1.0], [0.5], [0.25], [0.125]]
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["oracle", "--input", str(path), "--output", str(out)]) == code
        err = capsys.readouterr().err
        assert (err == "") == (code == EXIT_OK)
        if code == EXIT_SCHEMA:
            assert err.startswith(f"schema error: channels[0]: solver.j_past {j_past} and "
                                  "functional support 4 read the covariances to lag 32")

    @pytest.mark.parametrize("command", ["oracle", "validate"])
    def test_oracle_gram_no_shift_factors_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # the oracle's ridge loop gives up past a shift of 1e-2 with a typed
        # error, not a LinAlgError traceback
        def never(gram, **kwargs):
            raise scipy.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", never)
        path = write_problem(tmp_path, white_problem())
        out = tmp_path / "out"
        assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_MINIMALITY
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("factorization failure: observation Gram matrix is not positive "
                              "definite with ridge shift 1.000e-02; the next shift "
                              "1.000e-01 exceeds 1e-2")
        assert not any(out.iterdir())

    def test_factorize_over_tolerance_writes_nothing(self, tmp_path, capsys):
        # factorize and simulate refuse the same factor by one rule, with
        # one message, before either writes a file; the doubling's bound
        # refuses the pole near the circle quickly
        prob = white_problem()
        for edit in _UNSAMPLEABLE_SIGNAL:
            edit(prob)
        path = write_problem(tmp_path, prob)
        errors = []
        for command in ("factorize", "simulate"):
            out = tmp_path / command
            start = time.perf_counter()
            assert main([command, "--input", str(path), "--output", str(out)]) \
                == EXIT_MINIMALITY
            assert time.perf_counter() - start < 5.0
            assert not any(out.iterdir())
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].count("\n") == 1
        assert errors[0].startswith(
            "factorization failure: channels[0]: factor's relative residual ")
        assert errors[0].rstrip().endswith(f"exceeds {FACTORIZATION_TOL:.1e}")

    def test_factorize_at_the_sweep_cap_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        # one sweep leaves the factor of a pole at 0.5 far from its density;
        # the factor comes back, and factorize's tolerance gate refuses it.
        # The sweeps factorize grids (a rational density takes the Riccati
        # route), so the signal is given as its grid.
        monkeypatch.setattr("pcfield.extrapolate._FACTORIZE_MAX_SWEEPS", 1)
        problem = ar1_problem()
        problem["channels"][0]["F"] = density_to_spec(
            as_grid(RationalDensity.ar1(0.5), problem["solver"]["n_lambda"]))
        path = write_problem(tmp_path, problem)
        out = tmp_path / "out"
        assert main(["factorize", "--input", str(path), "--output", str(out)]) \
            == EXIT_MINIMALITY
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("factorization failure: channels[0]: factor's relative residual")

    def test_reduced_rank_signal_validates(self, tmp_path, capsys):
        # the draw needs no factor of the singular joint covariance
        prob = white_problem()
        for edit in _REDUCED_RANK_SIGNAL:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads((out / "validation.json").read_text())["all_ok"] is True


class TestNoLagCut:
    """The rational route keeps every lag: the factor's exact lags and the
    filter's weights wrap onto the grid, at an even and an odd N."""

    @pytest.mark.parametrize("phi, n", [(0.9, 256), (0.9, 255), (0.995, 1024), (0.995, 1023)])
    def test_long_memory_signal_factorizes_and_draws(self, tmp_path, phi, n):
        prob = white_problem(n_lambda=n)
        prob["solver"]["window"] = 16
        prob["channels"][0]["F"]["denominator"] = [1.0, -phi]
        path = write_problem(tmp_path, prob)
        for command in ("factorize", "simulate"):
            out = tmp_path / command
            assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads((tmp_path / "factorize" / "factorization.json").read_text())
        F = RationalDensity.ar1(phi).rasterize(n)
        assert report["channels"][0]["residual"] <= 1e-12 * np.max(np.abs(F.values))
        assert report["channels"][0]["n_coefficients"] > n // 2

    @pytest.mark.parametrize("n", [512, 511])
    def test_near_unit_ma_solves(self, tmp_path, n):
        # the one-step error of the MA [1, -(1 - 1e-6)] is exactly 1, and
        # h read back from its CSV has that grid error
        prob = white_problem(n_lambda=n)
        prob["channels"][0]["a"] = [[1.0]]
        for edit in _WEIGHTS_BEYOND_THE_GRID:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
        delta = json.loads((out / "results.json").read_text())["delta_total"]
        assert delta == pytest.approx(1.0, abs=1e-10)
        rows = np.loadtxt(out / "h_0_1.csv", delimiter=",", skiprows=1, ndmin=2)
        h = rows[:, 2] + 1j * rows[:, 3]
        F = RationalDensity.ma([1.0, -(1.0 - 1e-6)]).rasterize(n).values[:, 0, 0].real
        assert np.mean(np.abs(1.0 - h) ** 2 * F) == pytest.approx(delta, abs=1e-10)


class TestRemovedKeys:
    """A file of the earlier schema may set ``solver.tolerances.cond_ceiling``,
    ``solver.tolerances.factorization`` and ``simulation.batch_size``: the
    keys are unknown now, so they are ignored, or refused under --strict."""

    @staticmethod
    def old_and_new():
        new = white_problem()
        new["channels"][0]["F"]["numerator"] = [1.0, 0.5]
        new["channels"][0]["G"] = {"type": "rational", "numerator": [0.5]}
        new["class_spec"] = dict(_CONTAMINATION, max_iter=5)
        old = json.loads(json.dumps(new))
        # each value would have changed a result when the keys were read
        old["solver"]["tolerances"] = {"cond_ceiling": 0.5, "factorization": 1e-30}
        old["simulation"]["batch_size"] = 7
        return old, new

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_ignored_without_strict(self, tmp_path, command):
        runs = []
        for name, payload in zip(("old", "new"), self.old_and_new()):
            path = write_problem(tmp_path, payload, name=f"{name}.json")
            out = tmp_path / name
            code = main([command, "--input", str(path), "--output", str(out)])
            artifacts = {}
            for artifact in sorted(out.iterdir()):
                content = artifact.read_bytes()
                if artifact.suffix == ".json":
                    data = json.loads(content)
                    assert data["meta"].pop("input_sha256")
                    content = json.dumps(data, sort_keys=True)
                artifacts[artifact.name] = content
            runs.append((code, artifacts))
        assert runs[0][1]
        assert runs[0] == runs[1]

    def test_refused_under_strict(self, tmp_path, capsys):
        old, _ = self.old_and_new()
        without_tolerances = json.loads(json.dumps(old))
        without_tolerances["solver"].pop("tolerances")
        out = tmp_path / "out"
        for payload, message in (
                (old, "solver.tolerances has unknown field(s) ['cond_ceiling', 'factorization']"),
                (without_tolerances, "simulation has unknown field(s) ['batch_size']")):
            path = write_problem(tmp_path, payload)
            assert main(["validate", "--input", str(path), "--output", str(out),
                         "--strict"]) == EXIT_SCHEMA
            assert capsys.readouterr().err == f"schema error: {message}\n"
        assert not out.exists()


class TestReadme:
    def test_problem_file_example_solves_under_strict(self, tmp_path):
        # the README's problem file, its // comments stripped, is the schema
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Problem file\n\n```jsonc\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "problem.json"
        path.write_text(re.sub(r"\s*//.*", "", block))
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out), "--strict"]) \
            == EXIT_OK
        assert (out / "results.json").exists()


class TestUsageErrors:
    """A command line that does not parse exits 3 (not argparse's 2, the
    minimality code) with one ``usage error:`` line and no outputs."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["bogus", "--input", "{input}", "--output", "{output}"],
                     "argument command: invalid choice: 'bogus'", id="unknown-command"),
        pytest.param(["solve", "--input", "{input}"],
                     "the following arguments are required: --output", id="missing-output"),
        pytest.param(["simulate", "--input", "{input}", "--output", "{output}",
                      "--seed", "abc"],
                     "argument --seed: must be a nonnegative integer", id="seed-not-integer"),
        pytest.param(["simulate", "--input", "{input}", "--output", "{output}",
                      "--seed", "-4"],
                     "argument --seed: must be a nonnegative integer", id="seed-negative"),
        pytest.param(["solve", "--input", "{input}", "--output", "{output}", "--frob"],
                     "unrecognized arguments: --frob", id="unknown-option"),
        pytest.param(["solve", "--input", "{input}", "--output", "{output}",
                      "--threads", "2"],
                     "unrecognized arguments: --threads 2", id="threads-removed"),
    ])
    def test_exit_3_with_one_line(self, tmp_path, capsys, argv, message):
        path = write_problem(tmp_path, white_problem())
        out = tmp_path / "out"
        argv = [arg.format(input=path, output=out) for arg in argv]
        assert main(argv) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: pcfield" in capsys.readouterr().out

    def test_process_status(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        result = subprocess.run([sys.executable, "-m", "pcfield", "solve", "--input",
                                 str(tmp_path / "p.json")], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == EXIT_SCHEMA
        assert result.stderr == ("usage error: the following arguments are "
                                 "required: --output\n")


class TestCsvWriter:
    def test_matches_csv_module_reference(self, tmp_path):
        import csv

        from pcfield.cli import _write_csv

        # more rows than one conversion block, so block edges are covered
        index = np.resize([0, 1, 2, 3, 2**40, 7], 2500)
        values = np.resize([-0.0, 1e-300, 5e-324, 3.0, -1.7976931348623157e308, 1e22], 2500)
        other = np.resize([0.1, -2.5e-310, 1e308, -0.0, 12345678901234.5, -7.0, 0.3], 2500)
        header = ["i", "a", "b"]
        _write_csv(tmp_path / "mine.csv", header, [index, values, other])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, a, b in zip(index, values, other):
                writer.writerow([int(i), repr(float(a)), repr(float(b))])
        mine = (tmp_path / "mine.csv").read_bytes()
        assert mine == (tmp_path / "ref.csv").read_bytes()
        assert b"-0.0," in mine and b"5e-324" in mine and b"\r\n" in mine

    @pytest.mark.parametrize("shape", [(8, 3), (8, 2, 2)])
    def test_grid_rows_match_loop_reference(self, tmp_path, shape):
        import csv

        from pcfield.cli import _frequency_cells, _write_grid_csv
        from pcfield.spectral import lambda_grid

        rng = np.random.default_rng(3)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[0, 0] = -0.0
        _write_grid_csv(tmp_path / "mine.csv", values, _frequency_cells(shape[0]))
        lam = lambda_grid(shape[0])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "k", "re", "im"] if len(shape) == 2
                            else ["lambda", "row", "col", "re", "im"])
            for index in np.ndindex(*shape):
                v = values[index]
                writer.writerow([repr(float(lam[index[0]])), *(i + 1 for i in index[1:]),
                                 repr(float(v.real)), repr(float(v.imag))])
        assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(4096, 3), (4096, 1), (512, 2, 2), (4096, 3, 3),
                                       (7, 3), (1500, 4)])
    def test_grid_rows_match_the_entry_writer(self, tmp_path, shape):
        # the node-blocked writer against the generic one, whose block
        # edges fall elsewhere, on signed zeros, infinities, nan and
        # extreme magnitudes
        from pcfield.cli import _entry_columns, _frequency_cells, _write_csv, _write_grid_csv
        from pcfield.spectral import lambda_grid

        rng = np.random.default_rng(4)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        edge = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300,
                         1e20, -1e-20, 5e-324])
        flat = values.reshape(-1)
        count = min(flat.size, edge.size)
        flat.real[:count] = edge[:count]
        flat.imag[:count] = edge[::-1][:count]
        flat.real[-count:] = edge[::-1][:count]
        flat.imag[-count:] = edge[:count]
        _write_grid_csv(tmp_path / "mine.csv", values, _frequency_cells(shape[0]))
        columns = _entry_columns(values)
        columns[0] = lambda_grid(shape[0])[columns[0]]
        names = ["k"] if len(shape) == 2 else ["row", "col"]
        _write_csv(tmp_path / "ref.csv", ["lambda", *names, "re", "im"], columns)
        mine = (tmp_path / "mine.csv").read_bytes()
        assert mine == (tmp_path / "ref.csv").read_bytes()
        assert b",-0.0," in mine and b"inf" in mine and b"nan" in mine


class TestValidate:
    def test_white_fixture_agrees(self, tmp_path):
        path = write_problem(tmp_path, white_problem())
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads((out / "validation.json").read_text())
        assert report["all_ok"] is True
        row = report["channels"][0]
        assert row["oracle_rel_error"] < 1e-10

    def test_ar1_fixture_agrees(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK

    def test_misspecified_reference_exits_5(self, tmp_path):
        prob = ar1_problem()
        # oracle and Monte Carlo replay against a different density
        prob["channels"][0]["reference_F"] = {
            "type": "rational", "numerator": [1.3], "denominator": [1.0, -0.7]}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) \
            == EXIT_VALIDATION
        report = json.loads((out / "validation.json").read_text())
        assert report["all_ok"] is False

    def test_each_density_rasterized_once(self, tmp_path, monkeypatch):
        # the solve, the oracle and the draw share one grid per density
        calls = []
        rasterize = RationalDensity.rasterize

        def count(density, n_lambda):
            calls.append(n_lambda)
            return rasterize(density, n_lambda)

        monkeypatch.setattr(RationalDensity, "rasterize", count)
        prob = ar1_problem()
        prob["channels"][0]["G"] = {"type": "rational", "numerator": [0.5],
                                    "denominator": [1.0]}
        out = tmp_path / "out"
        path = write_problem(tmp_path, prob)
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert calls == [1024, 1024]
        # a reference density is rasterized apart, only when given
        calls.clear()
        prob["channels"][0]["reference_F"] = prob["channels"][0]["F"]
        path = write_problem(tmp_path, prob)
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert calls == [1024, 1024, 1024]

    def test_unsampleable_factor_does_not_stop_validate(self, tmp_path):
        # validate draws from covariances, so a density whose factor misses
        # it still validates; here the grid takes the window route, whose 32
        # coefficients read delta 2.390 against the oracle's 2.4925
        prob = white_problem()
        for edit in _UNSAMPLEABLE_GRID_SIGNAL:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) \
            == EXIT_VALIDATION
        row = json.loads((out / "validation.json").read_text())["channels"][0]
        assert row["oracle_ok"] is False

    def test_long_memory_rational_signal_validates_on_the_filter(self, tmp_path):
        # the same density as a rational pair: the filter route solves it
        # exactly (delta 2.4925063, the oracle 2.4925043), so validate
        # agrees with the oracle
        prob = white_problem()
        for edit in _LONG_MEMORY_SIGNAL:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        row = json.loads((out / "validation.json").read_text())["channels"][0]
        assert row["oracle_ok"] is True

    def test_no_file_before_every_channel_passes(self, tmp_path, capsys):
        # the second channel's weights outlast the 32 simulated steps:
        # validate refuses it before it writes the first channel's trials
        prob = white_problem()
        prob["simulation"].update(n_trials=200, keep_trials=True)
        prob["channels"][0]["F"]["denominator"] = [1.0, -0.5]
        prob["channels"].append(dict(prob["channels"][0], m=1, l=1))
        prob["channels"][1]["F"] = {"type": "rational", "numerator": [1.0, -0.999999]}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            "schema error: channels[1]: simulation.n_steps: estimator keeps")
        assert list(out.iterdir()) == []

    def test_seed_flag_changes_the_draw_and_is_recorded(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        mse = {}
        for seed in ("5", "6"):
            out = tmp_path / f"o{seed}"
            assert main(["validate", "--input", str(path), "--output", str(out),
                         "--seed", seed]) == EXIT_OK
            rows = json.loads((out / "validation.json").read_text())["channels"]
            assert [row["seed"] for row in rows] == [int(seed)]
            mse[seed] = rows[0]["mse_empirical"]
        assert mse["5"] != mse["6"]

    def test_byte_identical_reruns(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["validate", "--input", str(path), "--output", str(out1)]) == EXIT_OK
        assert main(["validate", "--input", str(path), "--output", str(out2)]) == EXIT_OK
        assert (out1 / "validation.json").read_bytes() \
            == (out2 / "validation.json").read_bytes()


class TestMinimax:
    def fixed_power_fixture(self, p=1.5, max_iter=300):
        return {
            "version": "1",
            "solver": {"window": 48, "j_past": 48, "n_lambda": 512},
            "channels": [{
                "m": 0, "l": 1,
                "F": {"type": "rational", "numerator": [1.0, 0.55],
                      "denominator": [1.0]},
                "a": [[1.0]],
            }],
            "class_spec": {
                "family": "contamination", "variant": "trace", "noiseless": True,
                "upper": {"type": "rational", "numerator": [1.0],
                          "denominator": [1.0]},
                "epsilon": 1.0, "signal_power": p,
                "max_iter": max_iter, "tol": 1e-9,
            },
        }

    def test_fixed_power_fixture_flattens_density(self, tmp_path):
        p = 1.5
        path = write_problem(tmp_path, self.fixed_power_fixture(p))
        out = tmp_path / "out"
        assert main(["minimax", "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads((out / "minimax.json").read_text())
        assert report["status"] == "CONVERGED"
        assert report["objective"] == pytest.approx(p, abs=1e-3)
        rows = (out / "f0.csv").read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[3]) for r in rows])
        assert np.max(np.abs(values - p)) < 1e-3 * p
        assert (out / "h0_0_1.csv").exists()

    def test_point_class_echoes_density(self, tmp_path):
        prob = {
            "version": "1",
            "solver": {"window": 32, "j_past": 32, "n_lambda": 256},
            "channels": [{
                "m": 0, "l": 1,
                "F": {"type": "rational", "numerator": [1.2], "denominator": [1.0]},
                "G": {"type": "rational", "numerator": [0.6], "denominator": [1.0]},
                "a": [[1.0]],
            }],
            "class_spec": {
                "family": "band", "variant": "trace",
                "lower": {"type": "rational", "numerator": [1.2],
                          "denominator": [1.0]},
                "upper": {"type": "rational", "numerator": [1.2],
                          "denominator": [1.0]},
                "signal_power": 1.44,
                "noise_nominal": {"type": "rational", "numerator": [0.6],
                                  "denominator": [1.0]},
                "noise_radius": 0.0,
                "max_iter": 40, "tol": 1e-8,
            },
        }
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["minimax", "--input", str(path), "--output", str(out)]) == EXIT_OK
        rows = (out / "f0.csv").read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[3]) for r in rows])
        assert np.max(np.abs(values - 1.44)) < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_convergence_exits_4(self, tmp_path):
        path = write_problem(tmp_path, self.fixed_power_fixture(max_iter=1))
        out = tmp_path / "out"
        assert main(["minimax", "--input", str(path), "--output", str(out)]) \
            == EXIT_NOT_CONVERGED
        report = json.loads((out / "minimax.json").read_text())
        assert report["status"] == "NOT_CONVERGED"
        assert len(report["objective_history"]) >= 1

    def test_non_convergence_is_reported_once(self, tmp_path, capsys):
        # the CLI's own line replaces the library's RuntimeWarning
        path = write_problem(tmp_path, self.fixed_power_fixture(max_iter=1))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["minimax", "--input", str(path), "--output", str(out)])
        assert code == EXIT_NOT_CONVERGED
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "minimax: search did not converge; artifacts carry the best iterate\n")

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matrix_band_class_has_no_complex_cast(self, tmp_path):
        # parsed powers and radii arrive as complex arrays; none of them may
        # be cast to real with a silent loss of the imaginary part
        K = 2

        def constant(matrix):
            L = np.linalg.cholesky(np.asarray(matrix, dtype=complex))
            return {"type": "rational", "denominator": [1.0],
                    "numerator": np.stack([L.real, L.imag], axis=-1)[None].tolist()}

        nominal = constant(0.25 * np.eye(K))
        prob = {
            "version": "1",
            "solver": {"window": 16, "n_lambda": 128},
            "channels": [{"m": 0, "l": 1, "F": constant(np.eye(K)), "G": nominal,
                          "a": [[1.0, 0.2], [0.3, -0.4]]}],
            "class_spec": {
                "family": "band", "variant": "matrix",
                "lower": constant(0.3 * np.eye(K)),
                "upper": constant([[2.0, 0.2], [0.2, 2.0]]),
                "signal_power": np.eye(K).tolist(),
                "noise_nominal": nominal,
                "noise_radius": np.full((K, K), 0.15).tolist(),
                "max_iter": 2, "tol": 1e-9,
            },
        }
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["minimax", "--input", str(path), "--output", str(out)]) \
            in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert (out / "g0.csv").exists()

    @staticmethod
    def run_band(tmp_path, variant, signal_power, noise_radius):
        """A short K=2 band minimax run; returns the minimax.json multipliers."""
        K = 2

        def constant(matrix):
            L = np.linalg.cholesky(np.asarray(matrix, dtype=complex))
            return {"type": "rational", "denominator": [1.0],
                    "numerator": np.stack([L.real, L.imag], axis=-1)[None].tolist()}

        nominal = constant(0.25 * np.eye(K))
        prob = {
            "version": "1",
            "solver": {"window": 16, "n_lambda": 128},
            "channels": [{"m": 0, "l": 1, "F": constant(np.eye(K)), "G": nominal,
                          "a": [[1.0, 0.2], [0.3, -0.4]]}],
            "class_spec": {
                "family": "band", "variant": variant,
                "lower": constant(0.3 * np.eye(K)),
                "upper": constant([[2.0, 0.2], [0.2, 2.0]]),
                "signal_power": signal_power, "noise_nominal": nominal,
                "noise_radius": noise_radius, "max_iter": 2, "tol": 1e-9,
            },
        }
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["minimax", "--input", str(path), "--output", str(out)]) \
            in (EXIT_OK, EXIT_NOT_CONVERGED)
        return json.loads((out / "minimax.json").read_text())["multipliers"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_component_levels_reach_the_artifact(self, tmp_path):
        mult = self.run_band(tmp_path, "component", [1.0, 1.0], [0.15, 0.15])
        for side, level in (("F", "alpha_sq"), ("G", "beta_sq")):
            values = np.array(mult[side][level])
            assert values.shape == (2,)
            assert np.all(np.isfinite(values)) and np.all(values >= 0)
        assert "gamma" not in mult["F"] and "gamma_upper" not in mult["F"]
        assert "active_upper_fraction" in mult["F"] and "sign_fraction" in mult["G"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matrix_levels_reach_the_artifact(self, tmp_path):
        mult = self.run_band(tmp_path, "matrix", np.eye(2).tolist(),
                             np.full((2, 2), 0.15).tolist())
        for side, level in (("F", "alpha_outer"), ("G", "beta_outer")):
            re, im = np.array(mult[side][level])
            level_matrix = re + 1j * im
            assert level_matrix.shape == (2, 2)
            # a fitted level is a rank-1 PSD matrix
            assert np.max(np.abs(level_matrix - level_matrix.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(level_matrix).min() >= -1e-12
        assert "gamma" not in mult["F"]


def _constant_spec(matrix):
    """A constant rational density equal to the PSD ``matrix``."""
    L = np.linalg.cholesky(np.asarray(matrix, dtype=complex))
    return {"type": "rational", "denominator": [1.0],
            "numerator": np.stack([L.real, L.imag], axis=-1)[None].tolist()}


def k2_band_problem():
    """A short K = 2 matrix band x L1 minimax problem."""
    nominal = _constant_spec(0.25 * np.eye(2))
    return {
        "version": "1",
        "solver": {"window": 16, "n_lambda": 128},
        "channels": [{"m": 0, "l": 1, "F": _constant_spec(np.eye(2)), "G": nominal,
                      "a": [[1.0, 0.2], [0.3, -0.4]]}],
        "class_spec": {
            "family": "band", "variant": "matrix",
            "lower": _constant_spec(0.3 * np.eye(2)),
            "upper": _constant_spec([[2.0, 0.2], [0.2, 2.0]]),
            "signal_power": np.eye(2).tolist(), "noise_nominal": nominal,
            "noise_radius": np.full((2, 2), 0.15).tolist(), "max_iter": 2, "tol": 1e-9,
        },
    }


def _class(**fields):
    """Edits that set class_spec fields of ``k2_band_problem``."""
    return [_set(("class_spec", key), value) for key, value in fields.items()]


def _add_channel(channel):
    """An edit that appends ``channel`` to the problem's channels."""
    def edit(payload):
        payload["channels"].append(channel)
    return edit


_K1 = {"type": "rational", "numerator": [1.0]}


class TestClassSpecShapes:
    """class_spec values that do not parse or do not fit the K = 2 class
    exit 3 with one line before any solve."""

    @pytest.mark.parametrize("edits, message", [
        pytest.param(_class(variant="trace", signal_power=[1.0, 2.0], noise_radius=0.15),
                     "class_spec: signal power has shape (2,); the trace variant takes "
                     "a scalar or shape (1,)", id="trace-vector-power"),
        pytest.param(_class(variant="component", signal_power=[1.0, 1.0, 1.0],
                            noise_radius=0.15),
                     "class_spec: signal power has shape (3,); the component variant "
                     "takes a scalar or shape (2,)", id="component-three-powers"),
        pytest.param(_class(variant="component", signal_power=[1.0, 1.0],
                            noise_radius=[0.15, 0.15, 0.15]),
                     "class_spec: noise radius has shape (3,); the component variant "
                     "takes a scalar or shape (2,)", id="component-three-radii"),
        pytest.param(_class(noise_radius=[0.15, 0.15]),
                     "class_spec: noise radius has shape (2,); the matrix variant takes "
                     "a scalar or shape (2, 2)", id="matrix-vector-radius"),
        pytest.param(_class(signal_power=2.0),
                     "class_spec: signal power has shape (); the matrix variant takes "
                     "shape (2, 2)", id="matrix-scalar-power"),
        pytest.param(_class(variant="weighted", signal_power=2.0, noise_radius=0.15,
                            weight_signal=np.eye(3).tolist(),
                            weight_noise=np.eye(2).tolist()),
                     "class_spec: signal weight has shape (3, 3), signal upper has K=2",
                     id="weighted-3x3-weight"),
        pytest.param(_class(channel_weight=0),
                     "class_spec.channel_weight must be a positive number, got 0",
                     id="channel-weight-zero"),
        pytest.param(_class(max_iter="x"),
                     "class_spec.max_iter must be an integer, got 'x'", id="max-iter-string"),
        pytest.param(_class(tol="abc"),
                     "class_spec.tol must be a positive number, got 'abc'", id="tol-string"),
        pytest.param(_class(family="contamination", variant="trace", upper=_K1,
                            epsilon=0.3, signal_power=2.0, noise_power=0.5),
                     "channels[0].F: density has K=2, class_spec.upper has K=1",
                     id="k1-upper"),
        pytest.param([_add_channel({"m": 1, "l": 1, "F": _K1, "G": _K1, "a": [[1.0]]})],
                     "channels[1].F: density has K=1, class_spec.upper has K=2",
                     id="mixed-k-channels"),
        pytest.param(_class(init_F=_K1),
                     "class_spec.init_F: density has K=1, class_spec.upper has K=2",
                     id="k1-init-F"),
        pytest.param(_class(init_G=_K1),
                     "class_spec.init_G: density has K=1, class_spec.upper has K=2",
                     id="k1-init-G"),
        pytest.param(_class(family="contamination", variant="trace", epsilon=[0.3],
                            signal_power=2.0, noise_power=0.5),
                     "class_spec: float() argument must be", id="epsilon-list"),
    ])
    def test_exits_3_with_one_line(self, tmp_path, capsys, edits, message):
        prob = k2_band_problem()
        for edit in edits:
            edit(prob)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["minimax", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("schema error:")
        assert message in err
        assert not (out / "minimax.json").exists()


class TestOtherCommands:
    def test_oracle_command(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        out = tmp_path / "out"
        assert main(["oracle", "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads((out / "oracle.json").read_text())
        assert report["mse_total"] == pytest.approx(1.0, abs=1e-6)

    def test_factorize_command(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        out = tmp_path / "out"
        assert main(["factorize", "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads((out / "factorization.json").read_text())
        assert report["channels"][0]["residual"] < 1e-8
        rows = (out / "factor_0_1.csv").read_text().splitlines()
        assert rows[0] == "u,row,col,re,im"
        first = rows[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-8)

    def test_factorize_counts_sweeps_for_grids_only(self, tmp_path):
        # a rational density is factorized by one Riccati solve: 0 sweeps
        problem = ar1_problem()
        grid = json.loads(json.dumps(problem))
        grid["channels"][0]["F"] = density_to_spec(
            as_grid(RationalDensity.ar1(0.5), problem["solver"]["n_lambda"]))
        reports = []
        for name, payload in (("rational", problem), ("grid", grid)):
            out = tmp_path / name
            path = write_problem(tmp_path, payload, name=f"{name}.json")
            assert main(["factorize", "--input", str(path), "--output", str(out)]) == EXIT_OK
            reports.append(json.loads((out / "factorization.json").read_text())["channels"][0])
        assert reports[0]["iterations"] == 0 and reports[1]["iterations"] > 0
        assert reports[0]["residual"] <= 1e-14 and reports[1]["residual"] <= 1e-8

    def test_factorize_counts_the_coefficients_it_writes(self, tmp_path):
        problem = ar1_problem()
        numerator = np.array([[[1.0, 0.0], [0.2, 1.0]], [[0.3, 0.0], [0.0, 0.1]]])
        problem["channels"].append({
            "m": 1, "l": 1, "F": density_to_spec(RationalDensity(numerator, [1.0, -0.5])),
            "a": [[1.0, 0.2]]})
        path = write_problem(tmp_path, problem)
        out = tmp_path / "out"
        assert main(["factorize", "--input", str(path), "--output", str(out)]) == EXIT_OK
        for report in json.loads((out / "factorization.json").read_text())["channels"]:
            rows = np.loadtxt(out / f"factor_{report['m']}_{report['l']}.csv",
                              delimiter=",", skiprows=1, ndmin=2)
            assert report["n_coefficients"] == len(np.unique(rows[:, 0]))
            assert report["n_coefficients"] < problem["solver"]["n_lambda"] // 2

    @pytest.mark.parametrize("kind", ["rational", "grid"])
    def test_factorize_a_density_near_1e_minus_200(self, tmp_path, capsys, kind):
        # squared entries of this grid underflow; the factorization scales
        # the grid exactly to unit size first
        F = RationalDensity(1e-100 * np.array([1.0, 0.3]), [1.0, -0.4])
        problem = ar1_problem()
        problem["channels"][0]["F"] = density_to_spec(F if kind == "rational" else as_grid(F, 1024))
        path = write_problem(tmp_path, problem)
        out = tmp_path / "out"
        assert main(["factorize", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((out / "factorization.json").read_text())["channels"][0]
        assert 0.0 <= report["residual"] <= 1e-10 * 1e-200
        # d(u) = 1e-100 (0.4^u + 0.3 * 0.4^(u-1)): the tail is cut near u = 34,
        # not at d(0), whose squared entries underflow
        rows = np.loadtxt(out / "factor_0_1.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 3] == pytest.approx(1e-100, rel=1e-12)
        assert 30 <= len(rows) <= 40

    def test_factorize_refuses_a_non_finite_residual(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from pcfield import simulate_channel

        factorize = cli.spectral_factorize

        def nan_residual(F, n_lambda=None):
            return dataclasses.replace(factorize(F, n_lambda=n_lambda), residual=float("nan"))

        monkeypatch.setattr(cli, "spectral_factorize", nan_residual)
        path = write_problem(tmp_path, ar1_problem())
        out = tmp_path / "out"
        assert main(["factorize", "--input", str(path), "--output", str(out)]) \
            == EXIT_MINIMALITY
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("factorization failure: channels[0]: factor's relative "
                              "residual nan")
        assert not (out / "factorization.json").exists()
        with pytest.raises(cli.FactorizationError, match="relative residual nan"):
            simulate_channel(nan_residual(RationalDensity.ar1(0.5)), 10, seed=1)

    def test_simulate_draws_from_the_factor_of_the_density(self, tmp_path):
        from pcfield import simulate_channel, spectral_factorize

        path = write_problem(tmp_path, ar1_problem())
        out = tmp_path / "out"
        assert main(["simulate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        fac = spectral_factorize(RationalDensity.ar1(0.5), n_lambda=1024)
        assert fac.iterations == 0
        expected = simulate_channel(fac, 64, seed=21)
        rows = np.loadtxt(out / "path_0_1.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(rows[:, 2] + 1j * rows[:, 3], expected[:, 0])

    def test_simulate_command_deterministic(self, tmp_path):
        path = write_problem(tmp_path, ar1_problem())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--input", str(path), "--output", str(out1)]) == EXIT_OK
        assert main(["simulate", "--input", str(path), "--output", str(out2)]) == EXIT_OK
        assert (out1 / "path_0_1.csv").read_bytes() == (out2 / "path_0_1.csv").read_bytes()
        # seed override changes the draw
        out3 = tmp_path / "o3"
        assert main(["simulate", "--input", str(path), "--output", str(out3),
                     "--seed", "99"]) == EXIT_OK
        assert (out1 / "path_0_1.csv").read_bytes() != (out3 / "path_0_1.csv").read_bytes()

    def test_check_command_flags_divergent_density(self, tmp_path):
        prob = white_problem()
        prob["channels"][0]["F"] = {
            "type": "rational", "numerator": [1.0, -1.0], "denominator": [1.0]}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["check", "--input", str(path), "--output", str(out)]) \
            == EXIT_MINIMALITY
        report = json.loads((out / "minimality.json").read_text())
        assert report["all_passed"] is False
        assert report["channels"][0]["closed_loop_radius"] >= 1.0
        assert report["channels"][0]["trace_integral"] == float("inf")


class TestCheckAgreesWithSolve:
    """``check`` and ``solve`` read one filter: ``check`` exits 2 exactly
    where ``solve`` raises a minimality violation."""

    @pytest.mark.parametrize("numerator, denominator, check_code, solve_code", [
        pytest.param([1.0, -1.0], [1.0], EXIT_MINIMALITY, EXIT_MINIMALITY, id="zero-at-a-node"),
        pytest.param(_ma1_zero(1.0, 0.1234), [1.0], EXIT_MINIMALITY, EXIT_MINIMALITY,
                     id="zero-between-nodes"),
        pytest.param([0.0], [1.0], EXIT_MINIMALITY, EXIT_MINIMALITY, id="zero-density"),
        pytest.param([1.0], [1.0, -0.5], EXIT_OK, EXIT_OK, id="ar1"),
        # the zero sits at an odd node of the doubled grid: the pair is
        # minimal, and its weights, which outlast the 4096-node grid, fold onto it
        pytest.param(_ma1_zero(1.0 - 1e-6, np.pi / 4096), [1.0], EXIT_OK, EXIT_OK,
                     id="zero-near-an-odd-node-of-2n"),
    ])
    def test_exit_codes_agree(self, tmp_path, capsys, numerator, denominator,
                              check_code, solve_code):
        prob = white_problem(n_lambda=4096)
        prob["channels"][0]["F"] = {"type": "rational", "numerator": numerator,
                                    "denominator": denominator}
        path = write_problem(tmp_path, prob)
        codes = [main([command, "--input", str(path), "--output", str(tmp_path / command)])
                 for command in ("check", "solve")]
        assert codes == [check_code, solve_code]
        report = json.loads((tmp_path / "check" / "minimality.json").read_text())["channels"][0]
        assert report["passed"] == (check_code == EXIT_OK)
        assert (report["closed_loop_radius"] < 1.0) == report["passed"]
        capsys.readouterr()

    def test_grid_pair_singular_node_names_one_lambda(self, tmp_path, capsys):
        # a grid pair that vanishes at the node lambda = 0: both commands
        # read one verdict, exit 2 and name that node
        prob = white_problem()
        prob["channels"][0]["F"] = density_to_spec(RationalDensity.ma([1.0, -1.0]).rasterize(512))
        prob["channels"][0]["G"] = density_to_spec(RationalDensity.ma([0.5, -0.5]).rasterize(512))
        path = write_problem(tmp_path, prob)
        capsys.readouterr()
        codes = []
        for command in ("check", "solve"):
            codes.append(main([command, "--input", str(path), "--output", str(tmp_path / command)]))
        assert codes == [EXIT_MINIMALITY, EXIT_MINIMALITY]
        report = json.loads((tmp_path / "check" / "minimality.json").read_text())["channels"][0]
        assert report["singular_lambdas"] == [0.0] and report["closed_loop_radius"] is None
        first = capsys.readouterr().err.splitlines()[0]
        assert first == ("minimality failure: density pair is numerically singular at "
                         "lambda = 0.000000 (condition number inf)")
        assert list((tmp_path / "solve").iterdir()) == []

    def test_solve_refuses_before_writing(self, tmp_path, capsys):
        # the first channel solves; the second's zero between nodes is
        # refused by its filter before any file is written
        prob = white_problem()
        prob["channels"].append(dict(prob["channels"][0], m=1, l=1, F={
            "type": "rational", "numerator": _ma1_zero(1.0, 0.1234)}))
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_MINIMALITY
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err.startswith("minimality failure: the pair's filter")

    def test_factorize_keeps_a_zero_between_nodes(self, tmp_path):
        # the factor does not judge the closed loop: a zero on the circle
        # between nodes factorizes to rounding
        prob = white_problem(n_lambda=4096)
        prob["channels"][0]["F"]["numerator"] = _ma1_zero(1.0, 0.1234)
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["factorize", "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads((out / "factorization.json").read_text())["channels"][0]
        F = density_from_spec(prob["channels"][0]["F"]).rasterize(4096)
        sup = np.max(np.abs(F.values))
        assert report["iterations"] == 0
        assert report["residual"] <= 1e-13 * sup


class TestSampledInputs:
    def test_functional_from_samples_csv(self, tmp_path):
        import csv as _csv

        csv_path = tmp_path / "weights.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["t", "value"])
            for i in range(16):
                writer.writerow([i * 0.125, 1.0 if i < 8 else 0.0])
        prob = white_problem()
        prob["blocking"] = {"period": 1.0, "n_components": 2, "dt": 0.125}
        prob["channels"][0]["F"] = {
            "type": "rational",
            "numerator": [[[1.0, 0.0], [0.0, 1.0]]],
            "denominator": [1.0],
        }
        prob["channels"][0]["a"] = {"samples_csv": str(csv_path)}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
        results = json.loads((out / "results.json").read_text())
        assert results["delta_total"] == pytest.approx(1.0, abs=1e-10)

    def test_trial_records_csv_from_validate(self, tmp_path):
        prob = white_problem()
        prob["simulation"]["n_trials"] = 200
        prob["simulation"]["keep_trials"] = True
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        rows = (out / "trials_0_1.csv").read_text().splitlines()
        assert rows[0] == "trial,realized_re,realized_im,estimated_re,estimated_im,squared_error"
        assert len(rows) == 201
        assert all(float(r.split(",")[5]) >= 0 for r in rows[1:])
