import json

import numpy as np
import pytest

from pcfield.cli import (
    EXIT_MINIMALITY,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    main,
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

    def test_minimality_failure_exits_2(self, tmp_path):
        prob = white_problem()
        prob["channels"][0]["F"] = {
            "type": "rational", "numerator": [1.0, -1.0], "denominator": [1.0]}
        path = write_problem(tmp_path, prob)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--output", str(out)]) \
            == EXIT_MINIMALITY

    def test_threads_flag_gives_same_results(self, tmp_path):
        prob = ar1_problem()
        prob["channels"].append(dict(prob["channels"][0], m=1))
        path = write_problem(tmp_path, prob)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--input", str(path), "--output", str(out1)]) == EXIT_OK
        assert main(["solve", "--input", str(path), "--output", str(out2),
                     "--threads", "2"]) == EXIT_OK
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()


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
_INFEASIBLE_BAND = {
    "family": "band", "variant": "trace", "noiseless": True,
    "lower": {"type": "rational", "numerator": [0.5], "denominator": [1.0]},
    "upper": {"type": "rational", "numerator": [1.0], "denominator": [1.0]},
    "signal_power": 5.0,
}


class TestRuntimeFailures:
    """Inputs that parse but cannot be computed exit with a documented code
    and one line on stderr, never with a traceback."""

    @pytest.mark.parametrize("command, edits, code, prefix", [
        pytest.param("oracle", _ALIASED_PAST, EXIT_SCHEMA,
                     "schema error: channels[0]: solver.j_past 40", id="oracle-lag-aliases"),
        pytest.param("validate", _ALIASED_PAST, EXIT_SCHEMA,
                     "schema error: channels[0]: solver.j_past 40", id="validate-lag-aliases"),
        pytest.param("solve", [_set(("channels", 0, "F", "denominator"), [1.0, -1.0])],
                     EXIT_SCHEMA, "schema error: channels[0].F: denominator has a root "
                     "on the unit circle", id="denominator-root-on-circle"),
        pytest.param("minimax", [_set(("class_spec",), _INFEASIBLE_BAND)], EXIT_SCHEMA,
                     "infeasible class: power target", id="infeasible-class-power"),
        pytest.param("factorize", [_set(("channels", 0, "F", "numerator"), [0.0])],
                     EXIT_MINIMALITY, "factorization failure: cannot factorize the zero "
                     "density", id="factorize-zero-density"),
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

        from pcfield.cli import _write_grid_csv
        from pcfield.spectral import lambda_grid

        rng = np.random.default_rng(3)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[0, 0] = -0.0
        _write_grid_csv(tmp_path / "mine.csv", values, shape[0])
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
        assert report["channels"][0]["refinement_growth"] > 0.10


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
